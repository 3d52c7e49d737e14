// Package fb exercises framebalance (NV001): acquisitions that leak on
// some path are flagged at the acquire site; releases, deferred releases,
// error-guarded acquisitions, ownership transfers, and what a `go` launch
// hands its worker are recognized as discharges.
package fb

import "nexvet.example/internal/em"

// --- positives: some path reaches a return with the acquisition held ---

func leakOnEarlyReturn(b *em.Budget, cond bool) error {
	if err := b.Grant(4); err != nil { // want "can reach the return"
		return err
	}
	if cond {
		return nil // leaks the 4-block grant
	}
	b.Release(4)
	return nil
}

// a grant whose error is dropped is held from the call on.
func droppedErrorLeak(b *em.Budget) {
	b.Grant(1) // want "can reach the return"
}

func poolLeak(p *em.FramePool, cond bool) {
	f := p.Acquire() // want "can reach the return"
	if cond {
		return // leaks the frame
	}
	p.Release(f)
}

func switchLeak(b *em.Budget, mode int) error {
	if err := b.Grant(2); err != nil { // want "can reach the return"
		return err
	}
	switch mode {
	case 0:
		b.Release(2)
	case 1:
		// leaks on this arm
	default:
		b.Release(2)
	}
	return nil
}

var _ = func(b *em.Budget) error {
	if err := b.Grant(1); err != nil { // want "can reach the return"
		return err
	}
	return nil
}

// a launch that hands the worker nothing leaves the grant on the
// launcher's books.
func launchLeak(b *em.Budget) error {
	if err := b.Grant(2); err != nil { // want "can reach the return"
		return err
	}
	go idle()
	return nil
}

func idle() {}

// --- negatives: every path discharges ---

func balanced(b *em.Budget, cond bool) error {
	if err := b.Grant(4); err != nil {
		return err
	}
	if cond {
		b.Release(4)
		return nil
	}
	b.Release(4)
	return nil
}

func deferred(b *em.Budget) error {
	if err := b.Grant(2); err != nil {
		return err
	}
	defer b.Release(2)
	return nil
}

// writer owns a grant for its lifetime; newWriter hands the budget to it.
type writer struct {
	budget *em.Budget
	blocks int
}

func newWriter(budget *em.Budget) (*writer, error) {
	if err := budget.Grant(2); err != nil {
		return nil, err
	}
	return &writer{budget: budget, blocks: 2}, nil
}

func (w *writer) Close() {
	w.budget.Release(w.blocks)
}

// worker dispatch: the closure takes the obligation with it.
func worker(b *em.Budget) error {
	if err := b.Grant(8); err != nil {
		return err
	}
	go func() {
		defer b.Release(8)
	}()
	return nil
}

// a frame passed to a launched worker as an argument goes with it.
func launchArg(p *em.FramePool) {
	f := p.Acquire()
	go settle(p, f)
}

func settle(p *em.FramePool, f em.Frame) {
	p.Release(f)
}

// env-style indirection: an alias of the canonical chain releases it.
type env struct {
	Budget *em.Budget
}

func aliasedRelease(e *env) error {
	bb := e.Budget
	if err := bb.Grant(1); err != nil {
		return err
	}
	e.Budget.Release(1)
	return nil
}

// returned frame: ownership moves to the caller.
func handOff(p *em.FramePool) em.Frame {
	f := p.Acquire()
	return f
}

// panic path needs no release: it never returns.
func panicPath(b *em.Budget, cond bool) error {
	if err := b.Grant(1); err != nil {
		return err
	}
	if cond {
		panic("structural invariant broken")
	}
	b.Release(1)
	return nil
}
