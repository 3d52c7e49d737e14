package core

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"nexsort/internal/em"
	"nexsort/internal/runstore"
)

// Parallel subtree sorting. Sibling subtrees share no stack state: once a
// complete subtree's bytes are popped off the data stack, sorting them and
// writing the run touches only the subtree's own snapshot, its run writer,
// and the (concurrency-safe) device. sortSubtree therefore dispatches the
// in-memory case to a pooled worker when there is room for a second
// working set, and the main goroutine keeps scanning the input — the next
// sibling fills while the previous one sorts and spills.
//
// Three rules keep the execution byte-identical to sequential at every
// parallelism level, with unchanged block-transfer counts:
//
//  1. Admission never changes routing. In the paper's layout it reads
//     effectiveFree() — the budget as a sequential run would see it, i.e.
//     actual free blocks plus everything in-flight workers still hold.
//     Grant/release and the in-flight tally move together under mu, so
//     the figure is exact, never racy. In the default layout the subtree
//     is resident and sorts in place either way.
//  2. In the default layout nearly all of the budget is the data stack's
//     window, so a worker's grant is lent out of it: only blocks the
//     window holds no frame in, so shrinking it evicts nothing. The
//     window pages exactly as the sequential run's as long as it never
//     has to evict at the shrunk size, so pushToken takes the blocks back
//     (drainWorkers) before any push that could outgrow it.
//  3. Every non-dispatched path (external sort, cuts, incomplete merges,
//     error unwinds, closing the stacks) first drains the pool, so code
//     that sizes itself by Budget.Free() — the key-path fallback, the
//     child-record merger — sees exactly the sequential value, and the
//     window is whole again.
//
// The subtree's bytes are snapshotted (read off the data stack) on the
// main goroutine before dispatch — the same charged reads the sequential
// path performs — so the worker does no stack I/O at all.
type parState struct {
	pool *em.Pool
	wg   sync.WaitGroup
	// lent is the number of blocks lent out of the data stack's window to
	// in-flight workers; only the scanning goroutine touches it.
	lent int

	mu       sync.Mutex
	inflight int // budget blocks held by in-flight workers
	firstErr error
	panicVal any
	trees    []*tokenTree // token trees no sort is using, kept for reuse
}

// effectiveFree returns the free-block count a sequential execution would
// observe at this point of the scan: blocks actually free plus blocks held
// by in-flight subtree workers (a sequential run would have already
// released those).
func (s *sorter) effectiveFree() int {
	s.par.mu.Lock()
	defer s.par.mu.Unlock()
	return s.env.Budget.Free() + s.par.inflight
}

// testHookDispatched, when a test sets it, is called on the scanning
// goroutine for every subtree sort dispatched to a worker.
var testHookDispatched func()

// errWindowFull refuses a dispatch whose grant the data stack's window
// cannot lend without evicting.
var errWindowFull = errors.New("core: data-stack window has no room to lend")

// grantWorker reserves n blocks for a worker and records them in the
// in-flight tally atomically with the grant. In the default layout the
// blocks are first lent out of the data stack's window, and only if the
// window has n blocks it holds no frame in; drainWorkers takes them back.
func (s *sorter) grantWorker(n int) error {
	if !s.opts.PaperLayout {
		r := s.data.Resident()
		if r-s.data.Held() < n {
			return errWindowFull
		}
		if err := s.data.SetResident(r - n); err != nil {
			return err
		}
		s.par.lent += n
	}
	s.par.mu.Lock()
	defer s.par.mu.Unlock()
	if err := s.env.Budget.Grant(n); err != nil {
		return err
	}
	s.par.inflight += n
	return nil
}

// releaseWorker returns a worker's blocks, keeping the tally paired.
func (s *sorter) releaseWorker(n int) {
	s.par.mu.Lock()
	s.env.Budget.Release(n)
	s.par.inflight -= n
	s.par.mu.Unlock()
}

// takeTree returns a token tree for one in-memory sort, reusing one an
// earlier sort returned, so that the tree's buffers are allocated once per
// concurrent sort rather than once per subtree.
func (s *sorter) takeTree() *tokenTree {
	s.par.mu.Lock()
	defer s.par.mu.Unlock()
	n := len(s.par.trees)
	if n == 0 {
		return new(tokenTree)
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

// tryDispatchSubtreeSort attempts to run the in-memory sort of the subtree
// [start, start+size) on a pool worker. It returns ok=false (and no error)
// when the pool is busy or the budget cannot admit a second working set —
// the caller then drains and sorts sequentially. On ok=true the run is
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
	bs := int64(s.env.Conf.BlockSize)
	blocks := int((size + bs - 1) / bs)
	// The worker's working set: the raw snapshot (blocks), the token
	// tree's copy and index — modelled at the snapshot's footprint, as the
	// sequential grant in internalSubtreeSort models it — and the run
	// writer's block.
	// The grant holds one more block for the range reader that takes the
	// snapshot, returned as soon as the snapshot is taken, so that a full
	// budget sends the subtree down the inline path instead of failing
	// the reader's grant.
	held := 2*blocks + 1
	if err := s.grantWorker(held + 1); err != nil {
		pool.Release()
		return 0, false, nil // budget pressure: sort inline instead
	}
	snap, err := s.snapshotRange(start, size)
	s.releaseWorker(1)
	if err != nil {
		s.releaseWorker(held)
		pool.Release()
		return 0, false, err
	}
	// The writer block is inside the worker's grant, so the store must not
	// charge it again.
	runID, w, err := s.store.Create(em.CatSubtreeSort, nil)
	if err != nil {
		snap.release(s.env.Dev.Frames())
		s.releaseWorker(held)
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
		defer s.releaseWorker(held)
		// Frames return to the pool before the blocks that covered them
		// return to the budget (defers run last-in first-out), keeping
		// live-frames <= blocks-in-use at every instant.
		defer snap.release(s.env.Dev.Frames())
		defer func() {
			if r := recover(); r != nil {
				s.par.mu.Lock()
				if s.par.panicVal == nil {
					s.par.panicVal = r
				}
				s.par.mu.Unlock()
			}
		}()
		t := s.takeTree()
		defer s.returnTree(t)
		err := t.sortSubtree(snap, snap.size, relLimit, w)
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

// snapshotRange copies the data-stack range [start, Size()) into a chain of
// pooled frames on the calling goroutine — the `blocks` share of the
// worker's grant pins exactly that many frames, and the reader's block is
// granted by the caller. The reads are charged exactly as the sequential
// in-memory sort's ReadRange pass, so dispatching changes no counter.
func (s *sorter) snapshotRange(start, size int64) (*frameChain, error) {
	reader, err := s.data.ReadRange(nil, start)
	if err != nil {
		return nil, err
	}
	defer reader.Close()
	pool := s.env.Dev.Frames()
	chain := &frameChain{size: size, fsize: int64(pool.FrameSize())}
	for off := int64(0); off < size; off += chain.fsize {
		f := pool.Acquire()
		chain.frames = append(chain.frames, f)
		n := chain.fsize
		if rest := size - off; rest < n {
			n = rest
		}
		if _, err := io.ReadFull(reader, f.Bytes()[:n]); err != nil {
			chain.release(pool)
			return nil, err
		}
	}
	return chain, nil
}

// frameChain is a worker's private subtree snapshot: the encoded bytes
// pinned across budget-backed frames instead of one variable-sized heap
// slab, read back as one stream spanning the chain.
type frameChain struct {
	frames []em.Frame
	size   int64
	fsize  int64
	pos    int64
}

// Window returns the unread bytes of the frame holding the read position
// (xmltok.WindowReader).
func (c *frameChain) Window() ([]byte, error) {
	if c.pos >= c.size {
		return nil, io.EOF
	}
	frame := c.frames[c.pos/c.fsize].Bytes()
	off := c.pos % c.fsize
	return frame[off:min(c.fsize, off+c.size-c.pos)], nil
}

func (c *frameChain) Advance(n int) { c.pos += int64(n) }

func (c *frameChain) ReadByte() (byte, error) {
	w, err := c.Window()
	if err != nil {
		return 0, err
	}
	c.pos++
	return w[0], nil
}

func (c *frameChain) Read(p []byte) (int, error) {
	w, err := c.Window()
	if err != nil {
		return 0, err
	}
	n := copy(p, w)
	c.pos += int64(n)
	return n, nil
}

func (c *frameChain) release(pool *em.FramePool) {
	for _, f := range c.frames {
		pool.Release(f)
	}
	c.frames = nil
}
