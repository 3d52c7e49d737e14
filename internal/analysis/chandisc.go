package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// ChanDisc (NV007) enforces channel ownership and close discipline:
//
//   - exactly one statically identified closer per channel — two close
//     sites for the same channel mean ownership is ambiguous and one of
//     them will eventually panic;
//   - no send after a reachable close on any intra-function path (the
//     walk is path-sensitive: a close in one if-branch taints only that
//     branch, and a deferred close — which runs at exit — taints nothing);
//   - no close of a receive-only channel (a consumer closing its input
//     inverts ownership) and no close of a literal nil channel;
//   - bounded capacity for the device layer's data queues: an unbuffered
//     `make(chan T)` under internal/em needs a baseline justification,
//     because an unbounded handoff between device-layer goroutines turns
//     a memory bound counted in blocks into a rendezvous stall. Signal
//     channels (`chan struct{}`, closed once, never carrying data) are
//     exempt.
//
// Cross-function send/close ordering (e.g. a queue guarding its sends
// with a mutex and a closed flag) is runtime protocol, deliberately out
// of scope: the analyzer proves the intra-function discipline and leaves the
// cross-function race to the lock-guard analyzer and `-race` soaks.
var ChanDisc = &Analyzer{
	Name: "chandisc",
	Code: "NV007",
	Doc: "report channels with multiple closers, sends after a reachable " +
		"close, closes of receive-only or nil channels, and unbuffered data " +
		"queues in the device layer",
	Run: runChanDisc,
}

func runChanDisc(pass *Pass) {
	facts := gatherConcFacts(pass)

	// One closer per channel. Sites are keyed by the channel's object, so
	// `e.writeq` closed from two different methods is still two closers.
	for ch, closes := range facts.chanClose {
		if len(closes) < 2 {
			continue
		}
		sort.Slice(closes, func(i, j int) bool { return closes[i].Pos() < closes[j].Pos() })
		first := pass.Fset.Position(closes[0].Pos())
		for _, call := range closes[1:] {
			pass.Report(call.Pos(),
				"channel `"+ch.Name()+"` has more than one statically identified closer (first closer at "+
					first.Filename+":"+strconv.Itoa(first.Line)+")",
				"give the channel exactly one owning closer; everyone else signals the owner instead of closing")
		}
	}

	// Per close site: receive-only and nil operands.
	for _, closes := range facts.chanClose {
		for _, call := range closes {
			checkCloseOperand(pass, call)
		}
	}
	// Closes whose operand has no resolvable object (e.g. `close(nil)`)
	// never reach facts.chanClose; scan for them directly.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					if pass.refObj(call.Args[0]) == nil {
						checkCloseOperand(pass, call)
					}
				}
			}
			return true
		})
	}

	// Path-sensitive send-after-close, one function unit at a time.
	forEachFuncUnit(pass, func(body *ast.BlockStmt) {
		w := &cdWalk{pass: pass, body: body}
		w.walkStmts(body.List, map[string]token.Pos{})
	})

	// Bounded-queue rule for the device layer.
	if underEMTree(pass.Pkg.Path()) {
		checkUnboundedQueues(pass)
	}
}

// checkCloseOperand flags closes of receive-only or nil channels.
func checkCloseOperand(pass *Pass, call *ast.CallExpr) {
	arg := ast.Unparen(call.Args[0])
	if id, ok := arg.(*ast.Ident); ok && id.Name == "nil" {
		pass.Report(call.Pos(), "close of nil channel panics at runtime",
			"close the channel through its owning variable")
		return
	}
	tv, ok := pass.Info.Types[arg]
	if !ok {
		return
	}
	if ch, ok := tv.Type.Underlying().(*types.Chan); ok && ch.Dir() == types.RecvOnly {
		pass.Report(call.Pos(),
			"close of receive-only channel inverts ownership (and does not compile without a conversion)",
			"only the sending owner closes; receivers detect termination via the closed channel")
	}
}

// cdWalk is the path-sensitive send-after-close walker for one function
// body. The per-path state maps canonical channel chains (e.g. "e.writeq")
// to the position of the close that killed them on this path.
type cdWalk struct {
	pass *Pass
	body *ast.BlockStmt
}

// walkStmts threads the closed-set through a statement list, reporting
// sends to channels closed earlier on the same path. It returns true when
// every path through the list terminates before falling off the end.
func (w *cdWalk) walkStmts(stmts []ast.Stmt, closed map[string]token.Pos) bool {
	for _, s := range stmts {
		if w.walkStmt(s, closed) {
			return true
		}
	}
	return false
}

func (w *cdWalk) walkStmt(s ast.Stmt, closed map[string]token.Pos) (terminated bool) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if chain, pos, ok := w.closeTarget(x.X); ok {
			closed[chain] = pos
		}
		return isTerminalCall(x.X)

	case *ast.SendStmt:
		w.checkSend(x, closed)

	case *ast.AssignStmt:
		// Reassigning a tracked chain revives it: the closed channel value
		// is gone, replaced by whatever the RHS made.
		for _, l := range x.Lhs {
			if chain, ok := chainText(l); ok {
				delete(closed, chain)
			}
		}

	case *ast.ReturnStmt:
		return true

	case *ast.DeferStmt, *ast.GoStmt:
		// A deferred close runs at function exit, after every send in the
		// body; a goroutine's closes and sends are not ordered with this
		// path at all. Neither taints the walk (goroutine bodies are their
		// own function units).

	case *ast.IfStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, closed)
		}
		thenC, elseC := clonePosSet(closed), clonePosSet(closed)
		termThen := w.walkStmts(x.Body.List, thenC)
		termElse := false
		if x.Else != nil {
			termElse = w.walkStmt(x.Else, elseC)
		}
		for k := range closed {
			delete(closed, k)
		}
		if !termThen {
			mergePosSet(closed, thenC)
		}
		if !termElse {
			mergePosSet(closed, elseC)
		}
		return termThen && termElse

	case *ast.BlockStmt:
		return w.walkStmts(x.List, closed)

	case *ast.ForStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, closed)
		}
		// Two passes over the body so a loop-carried close (iteration N
		// closes, iteration N+1 sends) is seen by the sends of the second
		// pass; the first pass's reports are authoritative, the second only
		// extends the closed-set.
		bodyC := clonePosSet(closed)
		w.walkStmts(x.Body.List, bodyC)
		if x.Post != nil {
			w.walkStmt(x.Post, bodyC)
		}
		w.walkStmts(x.Body.List, bodyC)
		mergePosSet(closed, bodyC)

	case *ast.RangeStmt:
		bodyC := clonePosSet(closed)
		w.walkStmts(x.Body.List, bodyC)
		w.walkStmts(x.Body.List, bodyC)
		mergePosSet(closed, bodyC)

	case *ast.SwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, closed)
		}
		return w.walkCases(x.Body, closed)

	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, closed)
		}
		return w.walkCases(x.Body, closed)

	case *ast.SelectStmt:
		return w.walkCases(x.Body, closed)

	case *ast.LabeledStmt:
		return w.walkStmt(x.Stmt, closed)

	case *ast.BranchStmt:
		return x.Tok != token.FALLTHROUGH

	}
	return false
}

// walkCases treats switch/select clause bodies as sibling paths.
func (w *cdWalk) walkCases(body *ast.BlockStmt, closed map[string]token.Pos) bool {
	entry := clonePosSet(closed)
	for k := range closed {
		delete(closed, k)
	}
	hasDefault := false
	allTerminate := len(body.List) > 0
	for _, clause := range body.List {
		var stmts []ast.Stmt
		caseC := clonePosSet(entry)
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			stmts = c.Body
		case *ast.CommClause:
			hasDefault = true // select always takes some clause
			if c.Comm != nil {
				w.walkStmt(c.Comm, caseC)
			}
			stmts = c.Body
		}
		if !w.walkStmts(stmts, caseC) {
			allTerminate = false
			mergePosSet(closed, caseC)
		}
	}
	if !hasDefault {
		mergePosSet(closed, entry)
		allTerminate = false
	}
	return allTerminate
}

// checkSend reports x when its channel chain was closed on this path.
func (w *cdWalk) checkSend(x *ast.SendStmt, closed map[string]token.Pos) {
	chain, ok := chainText(x.Chan)
	if !ok {
		return
	}
	if pos, dead := closed[chain]; dead {
		at := w.pass.Fset.Position(pos)
		w.pass.Report(x.Pos(),
			"send on `"+chain+"` after it was closed on this path (closed at "+
				at.Filename+":"+strconv.Itoa(at.Line)+") — this panics at runtime",
			"close last, after every sender is done; or route the send through the owner that knows the channel is live")
	}
}

// closeTarget matches `close(chain)` and returns the canonical chain.
func (w *cdWalk) closeTarget(e ast.Expr) (string, token.Pos, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", token.NoPos, false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "close" {
		return "", token.NoPos, false
	}
	if _, isBuiltin := w.pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return "", token.NoPos, false
	}
	chain, ok := chainText(call.Args[0])
	if !ok {
		return "", token.NoPos, false
	}
	return chain, call.Pos(), true
}

func clonePosSet(m map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func mergePosSet(dst, src map[string]token.Pos) {
	for k, v := range src {
		if _, ok := dst[k]; !ok {
			dst[k] = v
		}
	}
}

// checkUnboundedQueues flags unbuffered data channels in the em tree:
// a data queue in the device layer must be bounded so that its depth,
// granted in blocks, stays the memory bound. chan struct{} signal channels are exempt — they carry no
// data and are closed, not drained.
func checkUnboundedQueues(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "make" || len(call.Args) != 1 {
				return true
			}
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			tv, ok := pass.Info.Types[call]
			if !ok {
				return true
			}
			ch, ok := tv.Type.Underlying().(*types.Chan)
			if !ok {
				return true
			}
			if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				return true // signal channel: no data to bound
			}
			pass.Report(call.Pos(),
				"unbuffered data channel in the device layer: queues feeding the write-behind/read-ahead paths must be bounded",
				"size the channel from the depth grant (e.g. make(chan T, depth)), or baseline with the reason an unbounded handoff is safe here")
			return true
		})
	}
}
