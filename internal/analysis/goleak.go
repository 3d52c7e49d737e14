package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeak (NV006) enforces the goroutine-lifecycle discipline of DESIGN.md
// §15: every goroutine a library package launches must have a statically
// provable join or drain path, so no run can leave workers behind for the
// race detector (or a production process) to find later. A launch is
// proven when any of these holds:
//
//   - WaitGroup pairing — the goroutine body calls `wg.Done()` (usually
//     deferred) on a WaitGroup the launching function `Add`s to before the
//     launch, and some function in the package `Wait`s on it (the
//     extsort/core worker-dispatch idiom);
//   - close-drains-the-worker — the body's main loop is `for ... range ch`
//     over a channel the package closes somewhere (a queue worker that
//     exits once its queue is closed);
//   - done-channel receive — the body receives from a channel the package
//     closes (the quit-channel idiom);
//   - producer close — the body closes a channel that code outside the
//     body ranges over or receives from, so the consumer observes
//     termination (a producer's `defer close(out)` plus a draining stop);
//   - pool ownership — the body releases an em.Pool slot, tying its
//     lifetime to the pool's bounded admission (always paired with a
//     WaitGroup in this tree, but recognized on its own).
//
// Fire-and-forget launches, Add/Done imbalances, and launches whose body
// cannot be resolved statically (func-valued fields, other-package calls)
// are flagged; genuinely unprovable-but-correct launches are baselined
// with the reason the goroutine still terminates.
var GoLeak = &Analyzer{
	Name: "goleak",
	Code: "NV006",
	Doc: "report goroutine launches in library packages with no statically " +
		"provable join or drain path (WaitGroup pairing, close-drained worker, " +
		"done-channel, producer close, or pool ownership)",
	Run: runGoLeak,
}

func runGoLeak(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return // binaries may run goroutines for their own lifetime
	}
	facts := gatherConcFacts(pass)
	for _, g := range facts.gos {
		body, ok := facts.goBody(g.stmt)
		if !ok {
			pass.Report(g.stmt.Pos(),
				"goroutine body is not statically resolvable, so no join or drain path can be proven",
				"launch a function literal or a same-package function/method, or baseline with the reason the goroutine terminates")
			continue
		}
		// Add-without-Done is reported even when another proof shows the
		// goroutine terminates: the launcher's Add with no matching Done in
		// the worker means the Wait hangs regardless of how the worker ends.
		if facts.addWithoutDone(g, body) {
			pass.Report(g.stmt.Pos(),
				"the launching function Adds to a WaitGroup for this goroutine but its body never calls Done — Add/Done imbalance, the Wait hangs",
				"defer wg.Done() first thing in the goroutine body, or drop the Add if another mechanism joins it")
			continue
		}
		if detail, proven := facts.joinProof(g, body); !proven {
			msg := "fire-and-forget goroutine: no statically provable join or drain path"
			if detail != "" {
				msg = msg + " (" + detail + ")"
			}
			pass.Report(g.stmt.Pos(), msg,
				"pair a wg.Add before the launch with a deferred wg.Done inside and a Wait, drain the worker by closing its input channel, or baseline with the reason it terminates")
		}
	}
}

// addWithoutDone reports whether the launching function Adds to a
// WaitGroup that neither this goroutine's body nor a sibling launched
// from the same function ever Dones. The sibling exemption keeps a
// launcher that Adds for worker A while also spawning helper B from
// flagging B.
func (f *concFacts) addWithoutDone(g goSite, body *ast.BlockStmt) bool {
	for wg, adds := range f.wgAdd {
		addHere := false
		for _, pos := range adds {
			if containsPos(g.launcherBody, pos) && !containsPos(g.stmt, pos) {
				addHere = true
			}
		}
		if !addHere || f.doneIn(body, wg) {
			continue
		}
		siblingDones := false
		for _, other := range f.gos {
			if other.launcherBody != g.launcherBody || other.stmt == g.stmt {
				continue
			}
			if ob, ok := f.goBody(other.stmt); ok && f.doneIn(ob, wg) {
				siblingDones = true
			}
		}
		if !siblingDones {
			return true
		}
	}
	return false
}

// joinProof looks for any of the recognized join/drain paths for the
// goroutine launched at g with the resolved body. When none is found, the
// returned detail names the nearest miss (an Add/Done imbalance, a missing
// Wait) so the diagnostic points at the specific hole.
func (f *concFacts) joinProof(g goSite, body *ast.BlockStmt) (detail string, proven bool) {
	// WaitGroup pairing. The launcher scan excludes the go statement's own
	// subtree: an Add inside the goroutine races the Wait (the classic
	// wg.Add-in-the-worker bug) and must not count as "before the launch".
	dones := f.wgObjectsCalledIn(body, f.wgDone)
	for _, wg := range dones {
		addBeforeLaunch := false
		for _, pos := range f.wgAdd[wg] {
			if containsPos(g.launcherBody, pos) && !containsPos(g.stmt, pos) {
				addBeforeLaunch = true
			}
		}
		switch {
		case addBeforeLaunch && len(f.wgWait[wg]) > 0:
			return "", true
		case !addBeforeLaunch:
			detail = "the goroutine calls wg.Done but the launching function never Adds for it — Add/Done imbalance"
		default:
			detail = "wg.Add/Done pair up but nothing in the package Waits on the WaitGroup"
		}
	}

	// Close-drains-the-worker: the body's loop ranges over a channel some
	// closer in the package terminates.
	for _, ch := range f.chanObjectsRangedIn(body) {
		if len(f.chanClose[ch]) > 0 {
			return "", true
		}
	}

	// Done-channel receive: the body receives from a channel the package
	// closes (select-based quit protocols land here).
	for ch, recvs := range f.chanRecv {
		if len(f.chanClose[ch]) == 0 {
			continue
		}
		for _, pos := range recvs {
			if containsPos(body, pos) {
				return "", true
			}
		}
	}

	// Producer close: the body closes a channel that is ranged/received
	// outside the body, so the consumer observes the goroutine's end.
	for ch, closes := range f.chanClose {
		closedInBody := false
		for _, c := range closes {
			if containsPos(body, c.Pos()) {
				closedInBody = true
			}
		}
		if !closedInBody {
			continue
		}
		for _, pos := range f.chanRange[ch] {
			if !containsPos(body, pos) {
				return "", true
			}
		}
		for _, pos := range f.chanRecv[ch] {
			if !containsPos(body, pos) {
				return "", true
			}
		}
	}

	// Pool ownership: the body releases an em.Pool worker slot.
	if f.releasesPoolIn(body) {
		return "", true
	}
	return detail, false
}

// wgObjectsCalledIn returns the WaitGroup objects with a call from calls
// positioned inside body.
func (f *concFacts) wgObjectsCalledIn(body *ast.BlockStmt, calls map[types.Object][]token.Pos) []types.Object {
	var out []types.Object
	for wg, positions := range calls {
		for _, pos := range positions {
			if containsPos(body, pos) {
				out = append(out, wg)
				break
			}
		}
	}
	return out
}

// doneIn reports whether body contains a Done call on wg.
func (f *concFacts) doneIn(body *ast.BlockStmt, wg types.Object) bool {
	for _, pos := range f.wgDone[wg] {
		if containsPos(body, pos) {
			return true
		}
	}
	return false
}

// chanObjectsRangedIn returns the channel objects ranged over inside body.
func (f *concFacts) chanObjectsRangedIn(body *ast.BlockStmt) []types.Object {
	var out []types.Object
	for ch, positions := range f.chanRange {
		for _, pos := range positions {
			if containsPos(body, pos) {
				out = append(out, ch)
				break
			}
		}
	}
	return out
}

// releasesPoolIn reports whether body calls Release on an em.Pool.
func (f *concFacts) releasesPoolIn(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" {
			if recv, ok := f.pass.Info.Types[sel.X]; ok && isEMType(recv.Type, "Pool") {
				found = true
			}
		}
		return !found
	})
	return found
}
