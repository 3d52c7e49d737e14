// Package analysis is nexvet's static-analysis substrate: a small,
// dependency-free counterpart of golang.org/x/tools/go/analysis (which this
// repo cannot vendor — stdlib only) plus the project analyzers that
// turn NEXSORT's runtime invariants into compile-time checks:
//
//	NV001 framebalance — every Budget.Grant and FramePool.Acquire is
//	       matched by a Release on every return path
//	NV002 iopurity     — outside internal/em, block traffic may not bypass
//	       em.Device's accounting (no raw Backend/os/syscall I/O)
//	NV004 detptr       — the deterministic sort/merge paths use no wall
//	       clock, no global rand, and no map-iteration-ordered output
//	NV005 ctxflow      — library packages neither manufacture root contexts
//	       (context.Background/TODO) nor store a context.Context in a
//	       struct field
//	NV008 lockguard    — struct fields accessed repeatedly under a sibling
//	       mutex are inferred guarded; unguarded or atomic-mixed accesses
//	       are reported
//
// NV003 (statsatomic), NV006 (goleak) and NV007 (chandisc) are retired
// (DESIGN.md §14); their codes are not reused.
//
// cmd/nexvet runs the analyzers over packages loaded from `go list`
// metadata. Intentional exceptions live in baseline.txt with a mandatory
// justification; stale entries fail a run over the whole tree, so the
// exception list can only shrink silently, never grow.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a type-checked package via the
// Pass and reports findings with Pass.Report.
type Analyzer struct {
	// Name is the analyzer's short name (e.g. "framebalance").
	Name string
	// Code is the stable diagnostic code (e.g. "NV001") carried by every
	// diagnostic this analyzer reports; baselines key on it.
	Code string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check.
	Run func(*Pass)
}

// All returns the full nexvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{FrameBalance, IOPurity, DetPtr, CtxFlow, LockGuard}
}

// Pass holds one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, positioned and attributed to its enclosing
// function so baseline entries survive line drift.
type Diagnostic struct {
	Pos     token.Position
	Code    string
	Message string
	// Hint is the one-line fix suggestion appended to the rendered form.
	Hint string
	// Func is the enclosing function or method name ("" at package scope);
	// baseline entries match on it.
	Func string
}

// String renders the diagnostic in the CI-clickable form
// "file:line:col: [CODE] message (hint)".
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Code, d.Message)
	if d.Hint != "" {
		s += " (" + d.Hint + ")"
	}
	return s
}

// Report records a finding at pos. Findings in _test.go files are dropped:
// the invariants guard production block traffic, and tests deliberately
// poke backends, clocks and budgets off the books.
func (p *Pass) Report(pos token.Pos, msg, hint string) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Code:    p.Analyzer.Code,
		Message: msg,
		Hint:    hint,
		Func:    p.enclosingFunc(pos),
	})
}

// enclosingFunc names the innermost function declaration containing pos.
func (p *Pass) enclosingFunc(pos token.Pos) string {
	for _, f := range p.Files {
		if pos < f.FileStart || pos > f.FileEnd {
			continue
		}
		name := ""
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || pos < n.Pos() || pos > n.End() {
				return n == f
			}
			if fd, ok := n.(*ast.FuncDecl); ok {
				name = fd.Name.Name
			}
			return true
		})
		return name
	}
	return ""
}

// RunAnalyzers applies each analyzer to each package and returns every
// diagnostic, ordered by position then code.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, az := range analyzers {
			pass := &Pass{
				Analyzer: az,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			az.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Code < b.Code
	})
	return diags
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewTypesInfo returns a types.Info with every map the analyzers read.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// --- shared helpers for the analyzers ---

// isEMPath reports whether path is the em device-layer package (the real
// module's or an analyzer-test fake with the same tail).
func isEMPath(path string) bool {
	return path == "nexsort/internal/em" || strings.HasSuffix(path, "/internal/em")
}

// underEMTree reports whether path is em or one of its subpackages
// (e.g. em/chaostest), which are all part of the device layer.
func underEMTree(path string) bool {
	return isEMPath(path) || strings.Contains(path, "/internal/em/")
}

// declaredInEM reports whether the named type's package is the em layer.
func declaredInEM(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && isEMPath(obj.Pkg().Path())
}

// namedOrPointee unwraps pointers and aliases down to a *types.Named.
func namedOrPointee(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// isEMType reports whether t (or its pointee) is the named em type (e.g.
// "Budget", "FramePool", "Stats").
func isEMType(t types.Type, name string) bool {
	named := namedOrPointee(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && declaredInEM(obj)
}

// chainText renders a pure ident/selector chain (e.g. "s.env.Budget") and
// reports whether e is one. Call chains, indexing and parens disqualify:
// obligations are only tracked against stable receiver spellings.
func chainText(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		base, ok := chainText(x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	}
	return "", false
}

// chainOwner returns the chain one selector shorter ("s.env" for
// "s.env.Budget"); for a bare ident it returns the ident itself.
func chainOwner(chain string) string {
	if i := strings.LastIndex(chain, "."); i >= 0 {
		return chain[:i]
	}
	return chain
}
