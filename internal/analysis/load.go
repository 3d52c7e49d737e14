package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// listedPackage is the slice of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	Module     *struct {
		Path string
		Dir  string
	}
	Error *struct {
		Err string
	}
	DepOnly bool
}

// Load type-checks the packages matching patterns (as `go list` resolves
// them, relative to dir) and returns them ready for analysis. Dependencies
// are imported from compiler export data — `go list -export` builds it —
// so the target packages are the only ones parsed from source.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,Standard,GoFiles,Module,Error,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var targets []*listedPackage
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && !p.DepOnly && !skipListedPackage(&p) {
			pkg := p
			targets = append(targets, &pkg)
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		pkg, err := typeCheck(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// skipListedPackage reports whether p is support material rather than an
// analysis target: testdata trees and vendored copies can be swept up by
// explicit patterns but must never be analyzed — their code is someone
// else's (vendor) or deliberately wrong (testdata fixtures). The segments
// are judged below the module root, so a module that IS a testdata
// fixture (the golden suites' nexvet.example) still analyzes its own
// packages.
func skipListedPackage(p *listedPackage) bool {
	rel := p.Dir
	if p.Module != nil && p.Module.Dir != "" && strings.HasPrefix(p.Dir, p.Module.Dir) {
		rel = strings.TrimPrefix(p.Dir, p.Module.Dir)
	}
	for _, seg := range strings.Split(strings.ReplaceAll(rel, "\\", "/"), "/") {
		if seg == "testdata" || seg == "vendor" {
			return true
		}
	}
	return false
}

// exportImporter returns a types.Importer resolving import paths to
// compiler export-data files.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typeCheck parses and type-checks one package from the files goFiles
// names in dir.
func typeCheck(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	info := NewTypesInfo()
	conf := types.Config{
		Importer: imp,
		Error:    func(error) {}, // keep going; first error returned below
	}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", importPath, err)
	}
	return &Package{Path: importPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
