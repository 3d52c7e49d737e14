package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// LockGuard (NV008) infers which struct fields a mutex guards from the
// package's own access patterns, then flags the accesses that break the
// inferred discipline. A field accessed at least lockGuardThreshold times
// while a sibling mutex of the same struct is held — in the struct's
// defining package — is considered guarded by that mutex, and every other
// access must hold it too. That automatically covers the device's allocation
// state (Device.mu), the streams' extent tables (Stream.mu), the budget's
// counters (Budget.mu), the frame pool's free list and the run store's
// run table, with no per-struct configuration.
//
// The walk recognizes the repo's locking idioms:
//
//   - `mu.Lock()` ... `mu.Unlock()` brackets a region; `defer mu.Unlock()`
//     holds to the end of the function; RLock/RUnlock count the same
//     (readers of a guarded field need at least the read lock);
//   - accesses in the function that builds the struct (`e := &T{...}`
//     followed by `e.field = ...`) are pre-publication and exempt;
//   - functions whose name ends in "Locked" document that the caller
//     holds the lock; their accesses are neither counted nor flagged;
//   - channel-typed fields are exempt (send/receive are internally
//     synchronized), as are sync.* / sync/atomic fields themselves.
//
// It also flags mixed disciplines: a field reached both through
// sync/atomic calls and through mutex-guarded plain accesses has two
// uncomposable protections, which is how torn counters are born.
//
// Post-join single-threaded phases (reading worker results after
// wg.Wait()) are real but unprovable here: baseline them with the drain
// point that makes the unguarded access safe.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Code: "NV008",
	Doc: "infer mutex-guarded struct fields from access patterns and report " +
		"accesses without the guard, and fields mixing atomic and " +
		"mutex-guarded access",
	Run: runLockGuard,
}

// lockGuardThreshold is the number of locked accesses that promote a
// field to "guarded" — two distinct locked touches establish intent, one
// could be incidental.
const lockGuardThreshold = 2

// lgAccess is one plain access to a candidate field.
type lgAccess struct {
	pos  token.Pos
	held map[string]bool // sibling mutex field names held at the access
}

// lgField aggregates a field's accesses across the package.
type lgField struct {
	owner   *types.TypeName // defining struct
	field   *types.Var
	plain   []lgAccess
	atomics []token.Pos // sync/atomic calls taking &x.field
}

func runLockGuard(pass *Pass) {
	fields := map[*types.Var]*lgField{}
	forEachFuncUnit(pass, func(body *ast.BlockStmt) {
		name := enclosingDeclName(pass, body)
		if strings.HasSuffix(name, "Locked") {
			return // contract: the caller holds the lock
		}
		w := &lgWalk{pass: pass, fields: fields, exempt: map[types.Object]bool{}}
		w.walkStmts(body.List, map[string]bool{})
	})

	// Inference and reporting, in stable order.
	ordered := make([]*lgField, 0, len(fields))
	for _, f := range fields {
		ordered = append(ordered, f)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].field.Pos() < ordered[j].field.Pos() })

	for _, f := range ordered {
		counts := map[string]int{}
		for _, a := range f.plain {
			for m := range a.held {
				counts[m]++
			}
		}
		guard, guardCount := "", 0
		for m, n := range counts {
			if n > guardCount || (n == guardCount && m < guard) {
				guard, guardCount = m, n
			}
		}
		if guardCount < lockGuardThreshold {
			continue // no inferred discipline for this field
		}
		label := "`" + f.field.Name() + "` of `" + f.owner.Name() + "`"
		for _, a := range f.plain {
			if a.held[guard] {
				continue
			}
			detail := "holds no lock"
			if len(a.held) > 0 {
				detail = "holds `" + strings.Join(sortedKeys(a.held), "`, `") + "` instead"
			}
			pass.Report(a.pos,
				"field "+label+" is guarded by `"+guard+"` ("+strconv.Itoa(guardCount)+
					" accesses hold it in this package) but this access "+detail,
				"take "+guard+" around the access, or baseline with the drain/ownership reason the unguarded access is safe")
		}
		for _, pos := range f.atomics {
			pass.Report(pos,
				"field "+label+" mixes sync/atomic access with `"+guard+"`-guarded plain access — the two protocols do not compose",
				"pick one discipline: all-atomic (and drop the lock) or all-guarded plain access")
		}
	}
}

// lgWalk walks one function body tracking the set of held mutex chains
// (e.g. "e.pendMu") and the locally constructed (pre-publication) values.
type lgWalk struct {
	pass   *Pass
	fields map[*types.Var]*lgField
	exempt map[types.Object]bool // locals built from a composite literal here
}

func (w *lgWalk) walkStmts(stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		w.walkStmt(s, held)
	}
}

func (w *lgWalk) walkStmt(s ast.Stmt, held map[string]bool) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if chain, op, ok := w.lockOp(x.X); ok {
			switch op {
			case "Lock", "RLock":
				held[chain] = true
			case "Unlock", "RUnlock":
				delete(held, chain)
			}
			return // the mutex receiver itself is not a data access
		}
		w.scanExpr(x.X, held)

	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the region open to function exit; any
		// other deferred call runs after the walk's regions and is scanned
		// with the current held set (a deferred release typically runs
		// under no lock, but flagging it here would be guessing).
		if _, op, ok := w.lockOp(x.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return
		}
		w.scanExpr(x.Call, held)

	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			w.scanExpr(r, held)
		}
		// Constructor exemption: a local defined from a composite literal
		// of a mutex-carrying struct is pre-publication in this function.
		if x.Tok == token.DEFINE && len(x.Lhs) == len(x.Rhs) {
			for i, l := range x.Lhs {
				if obj := identObj(l); obj != nil && isOwnStructLiteral(w.pass, x.Rhs[i]) {
					if def, ok := w.pass.Info.Defs[l.(*ast.Ident)]; ok && def != nil {
						w.exempt[def] = true
					}
					_ = obj
				}
			}
		}
		for _, l := range x.Lhs {
			w.scanExpr(l, held)
		}

	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, v := range vs.Values {
						w.scanExpr(v, held)
						if i < len(vs.Names) && isOwnStructLiteral(w.pass, v) {
							if def := w.pass.Info.Defs[vs.Names[i]]; def != nil {
								w.exempt[def] = true
							}
						}
					}
				}
			}
		}

	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.scanExpr(r, held)
		}

	case *ast.GoStmt:
		// The goroutine does not inherit this path's locks; its body is its
		// own function unit. Arguments are evaluated here, under the locks.
		for _, a := range x.Call.Args {
			w.scanExpr(a, held)
		}

	case *ast.SendStmt:
		w.scanExpr(x.Chan, held)
		w.scanExpr(x.Value, held)

	case *ast.IfStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, held)
		}
		w.scanExpr(x.Cond, held)
		w.walkStmts(x.Body.List, cloneBoolSet(held))
		if x.Else != nil {
			w.walkStmt(x.Else, cloneBoolSet(held))
		}

	case *ast.BlockStmt:
		w.walkStmts(x.List, cloneBoolSet(held))

	case *ast.ForStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, held)
		}
		if x.Cond != nil {
			w.scanExpr(x.Cond, held)
		}
		inner := cloneBoolSet(held)
		w.walkStmts(x.Body.List, inner)
		if x.Post != nil {
			w.walkStmt(x.Post, inner)
		}

	case *ast.RangeStmt:
		w.scanExpr(x.X, held)
		w.walkStmts(x.Body.List, cloneBoolSet(held))

	case *ast.SwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, held)
		}
		if x.Tag != nil {
			w.scanExpr(x.Tag, held)
		}
		w.walkClauses(x.Body, held)

	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			w.walkStmt(x.Init, held)
		}
		w.walkClauses(x.Body, held)

	case *ast.SelectStmt:
		w.walkClauses(x.Body, held)

	case *ast.LabeledStmt:
		w.walkStmt(x.Stmt, held)

	case *ast.IncDecStmt:
		w.scanExpr(x.X, held)
	}
}

func (w *lgWalk) walkClauses(body *ast.BlockStmt, held map[string]bool) {
	for _, clause := range body.List {
		inner := cloneBoolSet(held)
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.scanExpr(e, inner)
			}
			w.walkStmts(c.Body, inner)
		case *ast.CommClause:
			if c.Comm != nil {
				w.walkStmt(c.Comm, inner)
			}
			w.walkStmts(c.Body, inner)
		}
	}
}

// lockOp matches `chain.Lock()` / `RLock` / `Unlock` / `RUnlock` on a
// sync.Mutex or sync.RWMutex and returns the canonical mutex chain.
func (w *lgWalk) lockOp(e ast.Expr) (chain, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
		return "", "", false
	}
	recv, hasType := w.pass.Info.Types[sel.X]
	if !hasType || (!isSyncType(recv.Type, "Mutex") && !isSyncType(recv.Type, "RWMutex")) {
		return "", "", false
	}
	c, isChain := chainText(sel.X)
	if !isChain {
		return "", "", false
	}
	return c, name, true
}

// scanExpr records every candidate field access in e with the current
// held set. Nested function literals are their own units and are skipped.
func (w *lgWalk) scanExpr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if w.recordAtomicOp(x) {
				return false
			}
		case *ast.SelectorExpr:
			w.recordAccess(x, held)
		}
		return true
	})
}

// recordAccess files a FieldVal selection of a mutex-carrying struct
// declared in this package.
func (w *lgWalk) recordAccess(sel *ast.SelectorExpr, held map[string]bool) {
	selection, ok := w.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	field, _ := selection.Obj().(*types.Var)
	if field == nil || field.Pkg() != w.pass.Pkg {
		return // guard inference only in the defining package
	}
	owner := namedOrPointee(selection.Recv())
	if owner == nil || owner.Obj().Pkg() != w.pass.Pkg {
		return
	}
	mutexes := mutexFieldsOf(owner)
	if len(mutexes) == 0 {
		return
	}
	if isSyncFamilyType(field.Type()) {
		return // the primitives themselves are not guarded data
	}
	if _, isChan := field.Type().Underlying().(*types.Chan); isChan {
		return // channel ops synchronize themselves
	}
	ownerChain, ok := chainText(sel.X)
	if !ok {
		return // unstable receiver spelling: not matchable against lock chains
	}
	if base, _, _ := strings.Cut(ownerChain, "."); base != "" {
		for obj := range w.exempt {
			if obj.Name() == base {
				return // pre-publication access on a locally built value
			}
		}
	}
	heldHere := map[string]bool{}
	for m := range mutexes {
		if held[ownerChain+"."+m] {
			heldHere[m] = true
		}
	}
	w.fileAccess(owner.Obj(), field, lgAccess{pos: sel.Sel.Pos(), held: heldHere})
}

// recordAtomicOp matches atomic.Op(&chain.field, ...) and files the field.
// Returns true when the call was an atomic op (its args are consumed).
func (w *lgWalk) recordAtomicOp(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := w.pass.pkgOf(sel.X)
	if !ok || pkg != "sync/atomic" {
		return false
	}
	for _, a := range call.Args {
		un, ok := ast.Unparen(a).(*ast.UnaryExpr)
		if !ok || un.Op != token.AND {
			continue
		}
		fsel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		selection, ok := w.pass.Info.Selections[fsel]
		if !ok || selection.Kind() != types.FieldVal {
			continue
		}
		field, _ := selection.Obj().(*types.Var)
		owner := namedOrPointee(selection.Recv())
		if field == nil || owner == nil || owner.Obj().Pkg() != w.pass.Pkg {
			continue
		}
		if len(mutexFieldsOf(owner)) == 0 {
			continue
		}
		f := w.fieldRecord(owner.Obj(), field)
		f.atomics = append(f.atomics, fsel.Sel.Pos())
	}
	return true
}

func (w *lgWalk) fileAccess(owner *types.TypeName, field *types.Var, a lgAccess) {
	f := w.fieldRecord(owner, field)
	f.plain = append(f.plain, a)
}

func (w *lgWalk) fieldRecord(owner *types.TypeName, field *types.Var) *lgField {
	f, ok := w.fields[field]
	if !ok {
		f = &lgField{owner: owner, field: field}
		w.fields[field] = f
	}
	return f
}

// mutexFieldsOf returns the names of named's sync.Mutex/RWMutex fields.
func mutexFieldsOf(named *types.Named) map[string]bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	out := map[string]bool{}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isSyncType(f.Type(), "Mutex") || isSyncType(f.Type(), "RWMutex") {
			out[f.Name()] = true
		}
	}
	return out
}

// isOwnStructLiteral reports whether e is `T{...}` or `&T{...}` for a
// mutex-carrying struct T declared in this package.
func isOwnStructLiteral(pass *Pass, e ast.Expr) bool {
	x := ast.Unparen(e)
	if un, ok := x.(*ast.UnaryExpr); ok && un.Op == token.AND {
		x = ast.Unparen(un.X)
	}
	lit, ok := x.(*ast.CompositeLit)
	if !ok {
		return false
	}
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return false
	}
	named := namedOrPointee(tv.Type)
	if named == nil || named.Obj().Pkg() != pass.Pkg {
		return false
	}
	return len(mutexFieldsOf(named)) > 0
}

// isSyncType reports whether t (or its pointee) is the named sync type
// (e.g. "Mutex", "RWMutex").
func isSyncType(t types.Type, name string) bool {
	named := namedOrPointee(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// isSyncFamilyType reports whether t is declared in sync or sync/atomic —
// synchronization primitives are not data fields for guard inference.
func isSyncFamilyType(t types.Type) bool {
	named := namedOrPointee(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "sync" || path == "sync/atomic"
}

// forEachFuncUnit visits every function body in the package — declarations
// and function literals alike — each as its own analysis unit.
func forEachFuncUnit(pass *Pass, visit func(body *ast.BlockStmt)) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					visit(fn.Body)
				}
			case *ast.FuncLit:
				visit(fn.Body)
			}
			return true
		})
	}
}

// enclosingDeclName returns the name of the FuncDecl whose body is body
// ("" for function literals).
func enclosingDeclName(pass *Pass, body *ast.BlockStmt) string {
	for _, file := range pass.Files {
		if body.Pos() < file.FileStart || body.Pos() > file.FileEnd {
			continue
		}
		name := ""
		ast.Inspect(file, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body == body {
				name = fd.Name.Name
				return false
			}
			return true
		})
		return name
	}
	return ""
}

func cloneBoolSet(m map[string]bool) map[string]bool {
	c := make(map[string]bool, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
