package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetPtr (NV004) guards the determinism contract of DESIGN.md §9: at every
// parallelism level the sorters must produce byte-identical output and
// identical per-category I/O counts (paralleldiff pins this at P∈{1,2,8}).
// Inside the deterministic packages the analyzer bans the three classic
// nondeterminism leaks:
//
//   - wall-clock reads (time.Now/Since/Until) feeding computation;
//   - the global math/rand source (unseeded, and racy under workers) —
//     rand.New(rand.NewSource(seed)) remains fine;
//   - `range` over a map, whose iteration order varies run to run.
//
// Order-independent map walks (commutative sums, copies, key collection
// followed by a sort) are intentional exceptions: baseline them with the
// reason the order cannot leak.
var DetPtr = &Analyzer{
	Name: "detptr",
	Code: "NV004",
	Doc: "report wall-clock reads, global math/rand use, and map-ordered " +
		"iteration in the deterministic sort/merge packages",
	Run: runDetPtr,
}

// detScopes are the path tails of the packages under the determinism
// contract: the device/accounting layer and everything that decides what
// bytes and I/Os the sorters produce.
var detScopes = []string{
	"/internal/em", "/internal/core", "/internal/extsort", "/internal/merge",
	"/internal/xstack", "/internal/runstore", "/internal/compact",
	"/internal/keypath", "/internal/keys", "/internal/sortkey",
	"/internal/xmltok", "/internal/xmltree",
}

// inDetScope reports whether the package path (or a parent) is under the
// determinism contract.
func inDetScope(path string) bool {
	p := "/" + strings.TrimPrefix(path, "/")
	for _, scope := range detScopes {
		if strings.HasSuffix(p, scope) || strings.Contains(p, scope+"/") {
			return true
		}
	}
	return false
}

// seededRandConstructors are the math/rand entry points that do NOT touch
// the global source.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runDetPtr(pass *Pass) {
	if !inDetScope(pass.Pkg.Path()) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				sel, ok := x.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkgPath, ok := pass.pkgOf(sel.X)
				if !ok {
					return true
				}
				name := sel.Sel.Name
				switch {
				case pkgPath == "time" && (name == "Now" || name == "Since" || name == "Until"):
					pass.Report(x.Pos(),
						"wall-clock read `time."+name+"` in a deterministic package",
						"derive timing outside the sort/merge path; timestamps must never influence output bytes or I/O counts")
				case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !seededRandConstructors[name]:
					pass.Report(x.Pos(),
						"global math/rand source `rand."+name+"` in a deterministic package",
						"use rand.New(rand.NewSource(seed)) so runs are reproducible and worker-schedule independent")
				}
			case *ast.RangeStmt:
				t, ok := pass.Info.Types[x.X]
				if !ok {
					return true
				}
				if _, isMap := t.Type.Underlying().(*types.Map); isMap {
					pass.Report(x.Pos(),
						"map iteration order is not deterministic",
						"collect and sort the keys first; baseline only order-independent walks (commutative sums, copies)")
				}
			}
			return true
		})
	}
}
