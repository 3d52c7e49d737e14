// nexvet statically enforces NEXSORT's frame, budget, I/O-accounting, and
// concurrency invariants (see DESIGN.md §11 and §15). It runs two ways:
//
//	go vet -vettool=$(command -v nexvet) ./...   # unit-checker mode, per package
//	nexvet ./...                                 # standalone: whole tree + stale-baseline check
//
// Diagnostics print as "file:line:col: [CODE] message (hint)" — clickable
// in CI logs. Codes: NV001 framebalance, NV002 iopurity, NV003 statsatomic,
// NV004 detptr, NV005 ctxflow, NV006 goleak, NV007 chandisc, NV008
// lockguard (`nexvet -codes` prints the full reference). Intentional
// exceptions live in internal/analysis/baseline.txt; the standalone run
// fails on entries that no longer match anything, and
// `nexvet -fix-baseline ./...` regenerates the file, keeping existing
// justifications and writing rejected-until-edited TODO placeholders for
// new findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nexsort/internal/analysis"
)

func main() {
	// The go vet driver probes with -V=full and -flags before handing over
	// per-package .cfg files; intercept those before flag parsing.
	if len(os.Args) == 2 {
		switch os.Args[1] {
		case "-V=full", "--V=full":
			analysis.PrintVersion(os.Stdout, "nexvet")
			return
		case "-flags", "--flags":
			analysis.PrintFlags(os.Stdout)
			return
		}
	}

	baselineFlag := flag.String("baseline", "", "baseline file (default: internal/analysis/baseline.txt under the module root)")
	listCodes := flag.Bool("codes", false, "print the diagnostic-code reference and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON object per diagnostic on stdout (baselined findings included, marked)")
	onlyFlag := flag.String("only", "", "comma-separated NV codes to run (e.g. NV006,NV007,NV008); default all")
	fixBaseline := flag.Bool("fix-baseline", false, "regenerate the baseline file from the current findings, preserving justifications; fails on stale entries instead of dropping them")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nexvet [-baseline file] [-only CODES] [-json] [-fix-baseline] [packages]\n")
		fmt.Fprintf(os.Stderr, "       nexvet <unit.cfg>        (go vet -vettool protocol)\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listCodes {
		for _, az := range analysis.All() {
			fmt.Printf("%s %-13s %s\n", az.Code, az.Name, az.Doc)
		}
		return
	}

	analyzers, codes, err := selectAnalyzers(*onlyFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nexvet:", err)
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runVettool(args[0], *baselineFlag)
		return
	}
	runStandalone(args, *baselineFlag, analyzers, codes, *jsonOut, *fixBaseline)
}

// selectAnalyzers resolves -only into the analyzer subset to run; codes is
// nil when every analyzer runs (so stale checking covers the whole file).
func selectAnalyzers(only string) ([]*analysis.Analyzer, map[string]bool, error) {
	all := analysis.All()
	if only == "" {
		return all, nil, nil
	}
	want := map[string]bool{}
	for _, c := range strings.Split(only, ",") {
		want[strings.ToUpper(strings.TrimSpace(c))] = true
	}
	var picked []*analysis.Analyzer
	codes := map[string]bool{}
	for _, az := range all {
		if want[az.Code] {
			picked = append(picked, az)
			codes[az.Code] = true
			delete(want, az.Code)
		}
	}
	for c := range want {
		return nil, nil, fmt.Errorf("-only: unknown code %s (see nexvet -codes)", c)
	}
	return picked, codes, nil
}

// runVettool is one go vet unit-checker invocation: analyze the package
// the driver described, report non-baselined findings, exit 1 if any.
func runVettool(cfgFile, baselinePath string) {
	if baselinePath == "" {
		if cwd, err := os.Getwd(); err == nil {
			baselinePath = analysis.FindBaseline(cwd)
		}
	}
	diags, err := analysis.RunUnitchecker(cfgFile, baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// runStandalone analyzes whole packages via the go toolchain and
// additionally fails on stale baseline entries — only a whole-tree run can
// tell that an exception no longer matches anything.
func runStandalone(patterns []string, baselinePath string, analyzers []*analysis.Analyzer, codes map[string]bool, jsonOut, fixBaseline bool) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nexvet:", err)
		os.Exit(2)
	}
	if baselinePath == "" {
		baselinePath = analysis.FindBaseline(cwd)
	}

	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := analysis.RunAnalyzers(pkgs, analyzers)

	if fixBaseline {
		runFixBaseline(cwd, baselinePath, diags)
		return
	}

	baseline, err := analysis.LoadBaseline(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	kept, suppressed := baseline.Filter(diags)

	if jsonOut {
		emitJSON(cwd, kept, false)
		emitJSON(cwd, suppressed, true)
	} else {
		for _, d := range kept {
			fmt.Fprintln(os.Stderr, rel(cwd, d))
		}
	}
	// Stale entries can only be judged against the whole tree; a subset run
	// legitimately leaves entries for unanalyzed packages untouched. A
	// -only run can likewise only judge the codes it executed.
	var stale []string
	if wholeTree(patterns) {
		stale = baseline.StaleIn(codes)
	}
	for _, s := range stale {
		fmt.Fprintln(os.Stderr, s)
	}
	if len(kept) > 0 || len(stale) > 0 {
		os.Exit(1)
	}
	if !jsonOut {
		fmt.Printf("nexvet: %d packages clean (%d baselined exceptions)\n", len(pkgs), len(suppressed))
	}
}

// runFixBaseline rewrites the baseline from the current findings. Existing
// justifications are preserved verbatim; new findings get TODO
// placeholders that LoadBaseline rejects until a human edits them; stale
// entries FAIL the run without writing — deleting a justification is a
// decision, not a side effect of regeneration.
func runFixBaseline(cwd, baselinePath string, diags []analysis.Diagnostic) {
	if baselinePath == "" {
		baselinePath = filepath.Join(cwd, "internal", "analysis", "baseline.txt")
	}
	baseline, err := analysis.LoadBaselineLenient(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	content, stale := baseline.Regenerate(diags, cwd)
	if len(stale) > 0 {
		fmt.Fprintln(os.Stderr, "nexvet: -fix-baseline refuses to drop justifications silently; delete these dead entries first:")
		for _, s := range stale {
			fmt.Fprintln(os.Stderr, s)
		}
		os.Exit(1)
	}
	if err := os.WriteFile(baselinePath, []byte(content), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "nexvet:", err)
		os.Exit(2)
	}
	fmt.Printf("nexvet: baseline rewritten to %s (%d findings covered)\n", rel2(cwd, baselinePath), len(diags))
}

// jsonDiag is the -json line shape: stable field names for CI annotation
// tooling.
type jsonDiag struct {
	Analyzer  string `json:"analyzer"`
	Code      string `json:"code"`
	File      string `json:"file"`
	Line      int    `json:"line"`
	Col       int    `json:"col"`
	Func      string `json:"func,omitempty"`
	Package   string `json:"package"`
	Message   string `json:"message"`
	Hint      string `json:"hint,omitempty"`
	Baselined bool   `json:"baselined"`
}

// emitJSON prints one JSON object per diagnostic on stdout.
func emitJSON(cwd string, diags []analysis.Diagnostic, baselined bool) {
	names := map[string]string{}
	for _, az := range analysis.All() {
		names[az.Code] = az.Name
	}
	enc := json.NewEncoder(os.Stdout)
	for _, d := range diags {
		enc.Encode(jsonDiag{
			Analyzer:  names[d.Code],
			Code:      d.Code,
			File:      rel2(cwd, d.Pos.Filename),
			Line:      d.Pos.Line,
			Col:       d.Pos.Column,
			Func:      d.Func,
			Package:   d.Pkg,
			Message:   d.Message,
			Hint:      d.Hint,
			Baselined: baselined,
		})
	}
}

// wholeTree reports whether the pattern set covers the entire module, which
// is the only scope where an unused baseline entry is provably stale.
func wholeTree(patterns []string) bool {
	for _, p := range patterns {
		if p == "./..." || p == "all" {
			return true
		}
	}
	return false
}

// rel renders d with a module-relative path when possible, keeping output
// stable across checkouts.
func rel(cwd string, d analysis.Diagnostic) string {
	d.Pos.Filename = rel2(cwd, d.Pos.Filename)
	return d.String()
}

func rel2(cwd, path string) string {
	if r, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return path
}
