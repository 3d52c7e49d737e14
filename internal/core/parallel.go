package core

import (
	"errors"
	"fmt"
	"sync"

	"nexsort/internal/em"
	"nexsort/internal/runstore"
)

// Parallel subtree sorting. In the default layout a complete subtree no
// larger than the cut capacity is resident in the data stack's window and
// sorts in place. Once its bytes are loaded into a token tree, its sort
// touches no stack state: indexing, sorting and emitting use only the
// tree, its run writer and the (concurrency-safe) device. sortSubtree
// therefore loads the tree on the scanning goroutine — through the same
// charged ReadRange as the inline sort — and hands it to a pooled worker,
// and the scan goes on with the next sibling while the worker sorts and
// spills. The paper's layout never dispatches: it sorts every subtree on
// the scanning goroutine, as Figure 4 does.
//
// Three rules keep the execution byte-identical to sequential at every
// parallelism level, with unchanged block-transfer counts:
//
//  1. Admission never changes routing. A subtree is a dispatch candidate
//     exactly when the sequential run sorts it in place, and a refused
//     dispatch sorts it in place on the scanning goroutine.
//  2. Nearly all of the budget is the data stack's window, so a worker's
//     grant is lent out of it: only blocks the window holds no frame in,
//     so shrinking it evicts nothing. The window pages exactly as the
//     sequential run's as long as it never has to evict at the shrunk
//     size, so pushToken takes the blocks back (drainWorkers) before any
//     push that could outgrow it.
//  3. Every non-dispatched path (external sorts, cuts, merged sorts, error
//     unwinds, closing the stacks) first drains the pool, so code that
//     sizes itself by Budget.Free() — the key-path fallback, the
//     child-record merger — sees exactly the sequential value, and the
//     window is whole again.
type parState struct {
	pool *em.Pool
	wg   sync.WaitGroup
	// lent is the number of blocks lent out of the data stack's window to
	// in-flight workers; only the scanning goroutine touches it.
	lent int

	mu       sync.Mutex
	firstErr error
	panicVal any
	trees    []*tokenTree // token trees no sort is using, kept for reuse
}

// testHookDispatched, when a test sets it, is called on the scanning
// goroutine for every subtree sort dispatched to a worker.
var testHookDispatched func()

// errWindowFull refuses a dispatch whose grant the data stack's window
// cannot lend without evicting.
var errWindowFull = errors.New("core: data-stack window has no room to lend")

// grantWorker lends n blocks out of the data stack's window and grants
// them to a worker, but only if the window has n blocks it holds no frame
// in. The worker releases the grant; drainWorkers grows the window back.
func (s *sorter) grantWorker(n int) error {
	r := s.data.Resident()
	if r-s.data.Held() < n {
		return errWindowFull
	}
	if err := s.data.SetResident(r - n); err != nil {
		return err
	}
	s.par.lent += n
	return s.env.Budget.Grant(n)
}

// takeTree returns a token tree for one in-memory sort, reusing one an
// earlier sort returned, so that the tree's buffers are allocated once per
// concurrent sort rather than once per subtree. It emits the layout's run
// format.
func (s *sorter) takeTree() *tokenTree {
	s.par.mu.Lock()
	defer s.par.mu.Unlock()
	n := len(s.par.trees)
	if n == 0 {
		return &tokenTree{keyed: s.opts.PaperLayout}
	}
	t := s.par.trees[n-1]
	s.par.trees = s.par.trees[:n-1]
	return t
}

// returnTree makes t available to the next sort.
func (s *sorter) returnTree(t *tokenTree) {
	s.par.mu.Lock()
	s.par.trees = append(s.par.trees, t)
	s.par.mu.Unlock()
}

// workerErr reports (without waiting) a worker failure recorded so far,
// re-raising a worker panic on the calling goroutine.
func (s *sorter) workerErr() error {
	s.par.mu.Lock()
	defer s.par.mu.Unlock()
	if s.par.panicVal != nil {
		pv := s.par.panicVal
		s.par.panicVal = nil
		panic(pv)
	}
	return s.par.firstErr
}

// drainWorkers blocks until every dispatched subtree sort has finished and
// released its blocks, grows the data stack's window back by the blocks
// lent to them, then surfaces any worker failure. It must be called before
// any code path that grants budget or depends on Budget.Free() or on runs
// being sealed. Workers never call it, so it cannot deadlock.
func (s *sorter) drainWorkers() error {
	s.par.wg.Wait()
	if n := s.par.lent; n > 0 {
		s.par.lent = 0
		if err := s.data.SetResident(s.data.Resident() + n); err != nil {
			return fmt.Errorf("core: restoring data-stack window: %w", err)
		}
	}
	return s.workerErr()
}

// tryDispatchSubtreeSort attempts to run the in-place sort of the
// size-byte subtree at start on a pool worker. It returns ok=false (and no
// error) when the pool is busy or the window cannot lend the worker's
// grant — the caller then drains and sorts inline. On ok=true the run is
// created and will be sealed by the worker; the caller may immediately
// truncate the data stack and continue scanning.
func (s *sorter) tryDispatchSubtreeSort(start, size int64, relLimit int) (runstore.RunID, bool, error) {
	if err := s.workerErr(); err != nil {
		return 0, false, err
	}
	pool := s.par.pool
	if !pool.TryAcquire() {
		return 0, false, nil
	}
	// The worker's working set: the token tree, modelled at the subtree's
	// encoded size as the paper layout's in-memory sort models it, and the
	// run writer's block. The grant holds one more block for the range
	// reader that loads the tree, returned as soon as the tree is loaded,
	// so that a window without room sends the subtree down the inline path
	// instead of failing the reader's grant.
	bs := int64(s.env.Conf.BlockSize)
	held := int((size+bs-1)/bs) + 1
	if err := s.grantWorker(held + 1); err != nil {
		pool.Release()
		return 0, false, nil // no room to lend: sort inline instead
	}
	t, err := s.loadTree(nil, start)
	s.env.Budget.Release(1)
	if err != nil {
		s.env.Budget.Release(held)
		pool.Release()
		return 0, false, err
	}
	// The writer block is inside the worker's grant, so the store must not
	// charge it again.
	runID, w, err := s.store.Create(em.CatSubtreeSort, nil)
	if err != nil {
		s.returnTree(t)
		s.env.Budget.Release(held)
		pool.Release()
		return 0, false, err
	}
	if testHookDispatched != nil {
		testHookDispatched()
	}
	s.par.wg.Add(1)
	go func() {
		defer s.par.wg.Done()
		defer pool.Release()
		// The writer's frame returns to the pool in w.Close, before the
		// blocks that covered it return to the budget, keeping live-frames
		// <= blocks-in-use at every instant.
		defer s.env.Budget.Release(held)
		defer s.returnTree(t)
		defer func() {
			if r := recover(); r != nil {
				s.par.mu.Lock()
				if s.par.panicVal == nil {
					s.par.panicVal = r
				}
				s.par.mu.Unlock()
			}
		}()
		err := t.sortSubtree(relLimit, w)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			s.par.mu.Lock()
			if s.par.firstErr == nil {
				s.par.firstErr = err
			}
			s.par.mu.Unlock()
		}
	}()
	return runID, true, nil
}
