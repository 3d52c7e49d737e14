// nexvet statically enforces NEXSORT's frame, budget, I/O-accounting,
// determinism, context and lock-guard invariants (see DESIGN.md §11):
//
//	nexvet [packages]    # default ./...
//
// It takes no flags. Diagnostics print as
// "file:line:col: [CODE] message (hint)", clickable in CI logs. Codes:
// NV001 framebalance, NV002 iopurity, NV004 detptr, NV005 ctxflow, NV008
// lockguard. Intentional exceptions live in
// internal/analysis/baseline.txt under the module root; a run over the
// whole tree also fails on entries that no longer match anything.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"nexsort/internal/analysis"
)

func main() {
	patterns := os.Args[1:]
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintln(os.Stderr, "usage: nexvet [packages]")
			os.Exit(2)
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nexvet:", err)
		os.Exit(2)
	}
	baseline, err := analysis.LoadBaseline(analysis.FindBaseline(cwd))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	pkgs, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	kept, suppressed := baseline.Filter(analysis.RunAnalyzers(pkgs, analysis.All()))
	for _, d := range kept {
		d.Pos.Filename = rel(cwd, d.Pos.Filename)
		fmt.Fprintln(os.Stderr, d)
	}
	// Only a run over the whole tree can tell that an entry matches
	// nothing: a narrower run leaves the other packages' entries unused.
	var stale []string
	if wholeTree(patterns) {
		stale = baseline.Stale()
	}
	for _, s := range stale {
		fmt.Fprintln(os.Stderr, s)
	}
	if len(kept) > 0 || len(stale) > 0 {
		os.Exit(1)
	}
	fmt.Printf("nexvet: %d packages clean (%d baselined exceptions)\n", len(pkgs), len(suppressed))
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

// rel renders path relative to cwd when it lies below it, keeping output
// stable across checkouts.
func rel(cwd, path string) string {
	if r, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return path
}
