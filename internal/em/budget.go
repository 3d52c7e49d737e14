package em

import (
	"fmt"
	"sync"
)

// Budget enforces the external-memory model's main-memory parameter M: the
// number of blocks of internal memory available to an algorithm. Components
// Grant blocks before buffering block-sized data in memory and Release them
// when the buffers are dropped. Grant fails rather than overcommitting, so a
// configuration that would exceed M is caught immediately instead of
// silently using more memory than the model allows.
//
// The peak grant is tracked so tests can assert that an algorithm stayed
// within its declared budget.
//
// Locking: every method takes the internal mutex, so Grant/Release are safe
// from any goroutine — background sort workers release their own grants.
// The mutex makes each call atomic, not sequences of calls. No caller needs
// more: NEXSORT's workers only release, and every grant and every reading
// of Free() that routes a sort is made on the scanning goroutine, which
// first waits for its workers wherever the value matters.
type Budget struct {
	mu    sync.Mutex
	total int
	used  int
	peak  int
}

// NewBudget returns a Budget of m blocks. m must be positive.
func NewBudget(m int) *Budget {
	if m <= 0 {
		panic("em: memory budget must be positive")
	}
	return &Budget{total: m}
}

// Total returns M, the budget size in blocks.
func (b *Budget) Total() int { return b.total }

// Grant reserves n blocks of main memory, or returns ErrBudgetExceeded
// (wrapped with the amounts involved) if fewer than n blocks are free.
func (b *Budget) Grant(n int) error {
	if n < 0 {
		panic("em: negative grant")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used+n > b.total {
		return fmt.Errorf("%w: want %d blocks, %d of %d in use",
			ErrBudgetExceeded, n, b.used, b.total)
	}
	b.used += n
	if b.used > b.peak {
		b.peak = b.used
	}
	return nil
}

// Release returns n blocks to the budget. Releasing more than is in use is
// a programming error and panics.
func (b *Budget) Release(n int) {
	if n < 0 {
		panic("em: negative release")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if n > b.used {
		panic(fmt.Sprintf("em: release of %d blocks with only %d in use", n, b.used))
	}
	b.used -= n
}

// InUse returns the number of blocks currently granted.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Free returns the number of blocks currently available.
func (b *Budget) Free() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total - b.used
}

// Peak returns the high-water mark of granted blocks.
func (b *Budget) Peak() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peak
}
