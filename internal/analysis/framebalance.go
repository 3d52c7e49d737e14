package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// FrameBalance (NV001) enforces the frame-containment invariant of
// DESIGN.md §10 at compile time: every memory acquisition —
// Budget.Grant, FramePool.Acquire — must be matched, on every path that can reach a return (error unwinds included),
// by its release, a defer of its release, or an explicit transfer of
// ownership (the budget/frames stored into a returned object, captured by a
// worker closure, or passed to another owner).
//
// The check is intra-procedural and path-sensitive over the function's
// statement structure. It recognizes the repo's idioms:
//
//   - `if err := b.Grant(n); err != nil { return ... }` — the obligation
//     exists only on the success path;
//   - `defer b.Release(n)` and `defer func() { ... b.Release(n) ... }()`;
//   - constructors that grant and then return an object owning the budget
//     (`&StreamWriter{budget: budget, ...}`);
//   - worker dispatch: a `go` launch hands over what it visibly passes —
//     a release in the launched call, an argument, or a resource the
//     launched closure mentions — and everything else stays on the
//     launcher's books.
//
// Grant-only wrappers (a function whose contract is that the caller
// releases) are intentional exceptions: baseline them.
var FrameBalance = &Analyzer{
	Name: "framebalance",
	Code: "NV001",
	Doc: "report Budget grants and FramePool acquisitions that can reach a " +
		"return with no release, defer, or ownership transfer on some path",
	Run: runFrameBalance,
}

// oblig is one outstanding acquisition.
type oblig struct {
	pos  token.Pos // acquire site
	call string    // rendered acquire, for the message
	// root/owner: canonical receiver chain of a Budget acquisition and its
	// one-shorter prefix ("" for frame obligations).
	root  string
	owner string
	// frameVars: idents bound to the acquired Frame (aliases accumulate);
	// a mention in value position transfers ownership.
	frameVars map[*ast.Object]bool
	// errVar: the error ident guarding a conditional acquisition; until the
	// `err != nil` check resolves, the obligation is conditional.
	errVar *ast.Object
}

// fbState is the per-path analysis state: the set of live obligations.
type fbState struct {
	live map[*oblig]bool
}

func (s *fbState) clone() *fbState {
	c := &fbState{live: make(map[*oblig]bool, len(s.live))}
	for o := range s.live {
		c.live[o] = true
	}
	return c
}

// merge unions live obligations from a sibling path.
func (s *fbState) merge(o *fbState) {
	for ob := range o.live {
		s.live[ob] = true
	}
}

type fbFunc struct {
	pass     *Pass
	aliases  map[*ast.Object]string // budget/pool local aliases → canonical chain
	reported map[*oblig]bool
}

func runFrameBalance(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			fb := &fbFunc{pass: pass, aliases: map[*ast.Object]string{}, reported: map[*oblig]bool{}}
			st := &fbState{live: map[*oblig]bool{}}
			if !fb.walkStmts(body.List, st) {
				fb.checkReturn(st, body.End())
			}
			return true // nested functions are analyzed as their own units
		})
	}
}

// walkStmts analyzes a statement list, returning true when every path
// through it terminates (return/panic/exit) before falling off the end.
func (f *fbFunc) walkStmts(stmts []ast.Stmt, st *fbState) bool {
	for _, s := range stmts {
		if f.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (f *fbFunc) walkStmt(s ast.Stmt, st *fbState) (terminated bool) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		f.processExpr(x.X, st)
		return isTerminalCall(x.X)

	case *ast.AssignStmt:
		f.processAssign(x, st)

	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						f.processExpr(v, st)
					}
				}
			}
		}

	case *ast.ReturnStmt:
		for _, r := range x.Results {
			f.processExpr(r, st)
		}
		f.checkReturn(st, x.Pos())
		return true

	case *ast.DeferStmt:
		// A deferred release runs at every subsequent exit of this path, so
		// it discharges the obligation outright.
		f.handOff(x.Call, st)

	case *ast.GoStmt:
		// A launched worker is a new owner of what the launch hands it.
		f.handOff(x.Call, st)

	case *ast.IfStmt:
		return f.walkIf(x, st)

	case *ast.BlockStmt:
		return f.walkStmts(x.List, st)

	case *ast.ForStmt:
		if x.Init != nil {
			f.walkStmt(x.Init, st)
		}
		if x.Cond != nil {
			f.processExpr(x.Cond, st)
		}
		body := st.clone()
		f.walkStmts(x.Body.List, body)
		if x.Post != nil {
			f.walkStmt(x.Post, body)
		}
		st.merge(body)

	case *ast.RangeStmt:
		f.processExpr(x.X, st)
		body := st.clone()
		f.walkStmts(x.Body.List, body)
		st.merge(body)

	case *ast.SwitchStmt:
		if x.Init != nil {
			f.walkStmt(x.Init, st)
		}
		if x.Tag != nil {
			f.processExpr(x.Tag, st)
		}
		return f.walkCases(x.Body, st)

	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			f.walkStmt(x.Init, st)
		}
		return f.walkCases(x.Body, st)

	case *ast.SelectStmt:
		return f.walkCases(x.Body, st)

	case *ast.LabeledStmt:
		return f.walkStmt(x.Stmt, st)

	case *ast.SendStmt:
		f.processExpr(x.Chan, st)
		f.processExpr(x.Value, st)

	case *ast.BranchStmt:
		// break/continue/goto: approximate by ending this path; the loop
		// merge already accounts for the body's obligations.
		return x.Tok != token.FALLTHROUGH

	case *ast.IncDecStmt:
		f.processExpr(x.X, st)
	}
	return false
}

// walkIf handles if/else with the error-check idiom: when the condition is
// `errVar != nil` (or `== nil`) for an error bound to a conditional
// acquisition, the obligation is dead on the failure branch and
// unconditional on the success branch.
func (f *fbFunc) walkIf(x *ast.IfStmt, st *fbState) bool {
	if x.Init != nil {
		f.walkStmt(x.Init, st)
	}
	f.processExpr(x.Cond, st)

	errObj, errIsNonNil := errCheck(x.Cond)
	thenSt, elseSt := st.clone(), st.clone()
	if errObj != nil {
		failSt, okSt := thenSt, elseSt
		if !errIsNonNil {
			failSt, okSt = elseSt, thenSt
		}
		for o := range st.live {
			if o.errVar == errObj {
				delete(failSt.live, o) // acquisition failed: nothing held
			}
		}
		for o := range okSt.live {
			if o.errVar == errObj {
				o.errVar = nil // success proven: unconditionally held
			}
		}
	}

	termThen := f.walkStmts(x.Body.List, thenSt)
	termElse := false
	if x.Else != nil {
		termElse = f.walkStmt(x.Else, elseSt)
	}

	st.live = map[*oblig]bool{}
	if !termThen {
		st.merge(thenSt)
	}
	if !termElse {
		st.merge(elseSt)
	}
	return termThen && termElse
}

// walkCases analyzes switch/select clause bodies as sibling paths.
func (f *fbFunc) walkCases(body *ast.BlockStmt, st *fbState) bool {
	entry := st.clone()
	st.live = map[*oblig]bool{}
	hasDefault := false
	allTerminate := true
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				f.processExpr(e, entry)
			}
			stmts = c.Body
		case *ast.CommClause:
			hasDefault = true // select always takes some clause
			if c.Comm != nil {
				f.walkStmt(c.Comm, entry)
			}
			stmts = c.Body
		}
		caseSt := entry.clone()
		if !f.walkStmts(stmts, caseSt) {
			allTerminate = false
			st.merge(caseSt)
		}
	}
	if !hasDefault {
		st.merge(entry)
		allTerminate = false
	}
	return allTerminate && len(body.List) > 0
}

// processAssign records acquisitions bound to variables, budget/pool
// aliases, and escapes on the right-hand sides.
func (f *fbFunc) processAssign(x *ast.AssignStmt, st *fbState) {
	// Acquisition forms: `err := B.Grant(n)`, `f := P.Acquire()`.
	if len(x.Rhs) == 1 {
		if call, ok := x.Rhs[0].(*ast.CallExpr); ok {
			if f.acquireAssign(call, x.Lhs, st) {
				for _, a := range call.Args {
					f.processExpr(a, st)
				}
				return
			}
		}
		// Alias: `b := s.env.Budget` / `pool := dev.Frames()` — only pure
		// chains are canonicalizable.
		if obj := singleNewIdent(x); obj != nil {
			if t, ok := f.pass.Info.Types[x.Rhs[0]]; ok &&
				(isEMType(t.Type, "Budget") || isEMType(t.Type, "FramePool")) {
				if chain, ok := chainText(x.Rhs[0]); ok {
					f.aliases[obj] = f.canonical(chain)
				}
			}
			// Frame alias: `g := f` keeps the obligation dischargeable
			// through either name.
			if id, ok := x.Rhs[0].(*ast.Ident); ok && id.Obj != nil {
				for o := range st.live {
					if o.frameVars[id.Obj] {
						o.frameVars[obj] = true
					}
				}
			}
		}
	}
	for _, r := range x.Rhs {
		f.processExpr(r, st)
	}
	for _, l := range x.Lhs {
		// Index/selector stores are value sinks for their RHS only; the
		// LHS chain itself is not an escape.
		if ix, ok := l.(*ast.IndexExpr); ok {
			f.processExpr(ix.Index, st)
		}
	}
}

// acquireAssign handles an acquisition call on the RHS of an assignment,
// binding result variables. Returns true when call was an acquisition.
func (f *fbFunc) acquireAssign(call *ast.CallExpr, lhs []ast.Expr, st *fbState) bool {
	kind, root := f.acquisition(call)
	switch kind {
	case "Grant":
		o := f.newBudgetOblig(call, root)
		if len(lhs) == 1 {
			o.errVar = identObj(lhs[0])
		}
		st.live[o] = true
	case "Acquire":
		o := &oblig{pos: call.Pos(), call: renderCall(call), frameVars: map[*ast.Object]bool{}}
		if len(lhs) == 1 {
			if obj := identObj(lhs[0]); obj != nil {
				o.frameVars[obj] = true
			}
		}
		st.live[o] = true
	default:
		return false
	}
	return true
}

// acquisition classifies call as one of the tracked acquisition methods,
// returning its kind and (for Budget methods) the canonical receiver chain.
func (f *fbFunc) acquisition(call *ast.CallExpr) (kind, root string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	recv, ok := f.pass.Info.Types[sel.X]
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Grant":
		if !isEMType(recv.Type, "Budget") {
			return "", ""
		}
		chain, ok := chainText(sel.X)
		if !ok {
			return "", "" // unstable receiver spelling: not trackable
		}
		return "Grant", f.canonical(chain)
	case "Acquire":
		if !isEMType(recv.Type, "FramePool") {
			return "", ""
		}
		return "Acquire", ""
	}
	return "", ""
}

func (f *fbFunc) newBudgetOblig(call *ast.CallExpr, root string) *oblig {
	return &oblig{pos: call.Pos(), call: renderCall(call), root: root, owner: chainOwner(root)}
}

// canonical resolves a leading alias in chain to its canonical spelling.
func (f *fbFunc) canonical(chain string) string {
	head, rest := chain, ""
	if i := strings.IndexByte(chain, '.'); i >= 0 {
		head, rest = chain[:i], chain[i:]
	}
	for obj, canon := range f.aliases {
		if obj.Name == head {
			return canon + rest
		}
	}
	return chain
}

// processCallDischarges applies the Release semantics of a call.
func (f *fbFunc) processCallDischarges(call *ast.CallExpr, st *fbState) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv, ok := f.pass.Info.Types[sel.X]
	if !ok {
		return
	}
	switch {
	case sel.Sel.Name == "Release" && isEMType(recv.Type, "Budget"):
		if chain, ok := chainText(sel.X); ok {
			root := f.canonical(chain)
			for o := range st.live {
				if o.root == root {
					delete(st.live, o)
				}
			}
		}
	case sel.Sel.Name == "Release" && isEMType(recv.Type, "FramePool") && len(call.Args) == 1:
		if obj := identObj(call.Args[0]); obj != nil {
			for o := range st.live {
				if o.frameVars[obj] {
					delete(st.live, o)
				}
			}
		}
	}
}

// processExpr scans one value expression: discharges releases, records
// inline acquisitions (their results dropped), and applies escape
// semantics — a maximal mention of an obligation's root, owner, or frame
// variable in value position transfers ownership out of this function.
func (f *fbFunc) processExpr(e ast.Expr, st *fbState) {
	if e == nil {
		return
	}
	var walk func(n, parent ast.Node) bool
	walk = func(n, parent ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			f.closureScan(x, st)
			return false
		case *ast.CallExpr:
			f.processCallDischarges(x, st)
			if kind, root := f.acquisition(x); kind != "" {
				// Result dropped or consumed inline: for Budget methods the
				// obligation is still trackable by root; a dropped frame is
				// only releasable via its consumer, so treat it as escaped.
				if root != "" {
					st.live[f.newBudgetOblig(x, root)] = true
				}
				for _, a := range x.Args {
					f.processExpr(a, st)
				}
				return false
			}
		case *ast.Ident:
			if !isMaximalValueUse(x, parent) {
				return true
			}
			f.escapeIdent(x, st)
		case *ast.SelectorExpr:
			if !isMaximalValueUse(x, parent) {
				return true
			}
			if chain, ok := chainText(x); ok {
				f.escapeChain(f.canonical(chain), st)
				return false // children are part of this chain
			}
		}
		return true
	}
	inspectWithParent(e, walk)
}

// escapeIdent transfers obligations owned by ident: a frame variable, a
// budget alias, or a bare-ident root/owner.
func (f *fbFunc) escapeIdent(id *ast.Ident, st *fbState) {
	if id.Obj != nil {
		for o := range st.live {
			if o.frameVars[id.Obj] {
				delete(st.live, o)
			}
		}
		if canon, ok := f.aliases[id.Obj]; ok {
			f.escapeChain(canon, st)
			return
		}
	}
	f.escapeChain(id.Name, st)
}

func (f *fbFunc) escapeChain(chain string, st *fbState) {
	for o := range st.live {
		if o.root != "" && (chain == o.root || chain == o.owner) {
			delete(st.live, o)
		}
	}
}

// handOff applies a deferred or launched call: its own release, escape
// semantics for its arguments, and a scan of a function literal it runs.
func (f *fbFunc) handOff(call *ast.CallExpr, st *fbState) {
	f.processCallDischarges(call, st)
	for _, a := range call.Args {
		f.processExpr(a, st)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		f.closureScan(lit, st)
	}
}

// closureScan treats a function literal as a potential new owner: any
// release call or captured mention of an obligation's resources inside it
// discharges the obligation (the closure — deferred, launched or stored —
// is now responsible).
func (f *fbFunc) closureScan(lit *ast.FuncLit, st *fbState) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			f.processCallDischarges(x, st)
		case *ast.Ident:
			if x.Obj != nil {
				for o := range st.live {
					if o.frameVars[x.Obj] {
						delete(st.live, o)
					}
				}
			}
		}
		return true
	})
}

// checkReturn reports every obligation still live when a return (or the
// end of the function body) is reachable.
func (f *fbFunc) checkReturn(st *fbState, ret token.Pos) {
	for o := range st.live {
		if f.reported[o] {
			continue
		}
		f.reported[o] = true
		retPos := f.pass.Fset.Position(ret)
		f.pass.Report(o.pos,
			"`"+o.call+"` can reach the return at line "+strconv.Itoa(retPos.Line)+" with the acquisition still held",
			"release it on every path, defer the release, or hand it to an owner; baseline grant-only wrappers")
	}
}

// --- small AST utilities ---

// isTerminalCall reports whether the expression statement never returns:
// panic, os.Exit, log.Fatal*, runtime.Goexit.
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fun.Sel.Name == "Exit":
			return true
		case pkg.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"):
			return true
		case pkg.Name == "runtime" && fun.Sel.Name == "Goexit":
			return true
		}
	}
	return false
}

// errCheck matches `x != nil` / `x == nil` over an ident, returning its
// object and whether the test is for non-nil.
func errCheck(cond ast.Expr) (*ast.Object, bool) {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return nil, false
	}
	id, nilSide := bin.X, bin.Y
	if isNilIdent(id) {
		id, nilSide = bin.Y, bin.X
	}
	if !isNilIdent(nilSide) {
		return nil, false
	}
	obj := identObj(id)
	return obj, bin.Op == token.NEQ
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func identObj(e ast.Expr) *ast.Object {
	if id, ok := e.(*ast.Ident); ok {
		return id.Obj
	}
	return nil
}

// singleNewIdent returns the object of `x := rhs` single-variable
// definitions (nil otherwise).
func singleNewIdent(x *ast.AssignStmt) *ast.Object {
	if x.Tok != token.DEFINE || len(x.Lhs) != 1 {
		return nil
	}
	return identObj(x.Lhs[0])
}

// isMaximalValueUse reports whether node n is not swallowed by a larger
// selector chain and is not the operator position of a call.
func isMaximalValueUse(n ast.Expr, parent ast.Node) bool {
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		return p.X != n // `x` in `x.f` extends into a longer chain
	case *ast.CallExpr:
		return p.Fun != n // calling is not passing the value
	}
	return true
}

// inspectWithParent is ast.Inspect with the parent node threaded through.
func inspectWithParent(root ast.Node, visit func(n, parent ast.Node) bool) {
	type frame struct{ n ast.Node }
	var stack []frame
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		var parent ast.Node
		if len(stack) > 0 {
			parent = stack[len(stack)-1].n
		}
		ok := visit(n, parent)
		if ok {
			stack = append(stack, frame{n})
		}
		return ok
	})
}

// renderCall renders `recv.Method` for the diagnostic message.
func renderCall(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if chain, ok := chainText(sel.X); ok {
			return chain + "." + sel.Sel.Name
		}
		return "(...)." + sel.Sel.Name
	}
	return "acquire"
}
