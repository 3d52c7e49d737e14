package xstack

import (
	"fmt"

	"nexsort/internal/em"
)

// ByteStack is an external-memory stack of bytes: NEXSORT's data stack.
// Callers push variable-length serialized XML units, record interesting
// offsets (on the path stack), and later either read a suffix of the stack
// sequentially (a complete subtree being extracted for sorting) or truncate
// back to a recorded offset. Individual byte pops are never needed, so the
// API is Push / Size / ReadRange / Truncate.
type ByteStack struct {
	p    *pager
	size int64
}

// NewByteStack creates a data stack over dev charging category cat, with
// `resident` blocks of main memory granted from budget. Section 3.1 assumes
// at least one block for the data stack.
func NewByteStack(dev *em.Device, cat em.Category, budget *em.Budget, resident int) (*ByteStack, error) {
	p, err := newPager(dev, cat, budget, resident)
	if err != nil {
		return nil, err
	}
	return &ByteStack{p: p}, nil
}

// Size returns the stack height in bytes. Offsets returned by Size before a
// push identify that push's start location, the quantity stored on the path
// stack.
func (s *ByteStack) Size() int64 { return s.size }

// Push appends data to the top of the stack.
func (s *ByteStack) Push(data []byte) error {
	bs := int64(s.p.blockSize())
	for len(data) > 0 {
		b := int(s.size / bs)
		if b > s.p.topBlock() {
			if err := s.p.grow(); err != nil {
				return err
			}
		}
		off := int(s.size % bs)
		n := copy(s.p.buf(b)[off:], data)
		s.p.markDirty(b)
		data = data[n:]
		s.size += int64(n)
	}
	return nil
}

// Truncate discards all bytes at or above offset n, making n the new top.
// Truncation writes nothing; if the new top lies below the resident window,
// the block containing it is paged in (one read) so subsequent pushes can
// continue in place.
func (s *ByteStack) Truncate(n int64) error {
	if n < 0 || n > s.size {
		return fmt.Errorf("xstack: truncate to %d outside [0,%d]", n, s.size)
	}
	s.size = n
	if n == 0 {
		s.p.reset()
		return nil
	}
	bs := int64(s.p.blockSize())
	b := int(n / bs)
	if n%bs == 0 {
		// The new top sits exactly at a block boundary; the next push
		// starts a new block, so keep the previous block as top.
		b--
	}
	return s.p.shrinkTo(b)
}

// ReadRange returns a reader over bytes [off, Size()). Resident blocks are
// copied from the window for free; evicted blocks cost one charged read
// each. The stack must not be mutated while the reader is in use. The
// reader borrows one block of main memory from budget until Close.
func (s *ByteStack) ReadRange(budget *em.Budget, off int64) (*em.BlockReader, error) {
	return em.NewBlockReader(s.p.frames, budget, s.size, off, s.p.readInto)
}

// SetResident resizes the resident window (see pager.setResident): the
// grant delta is settled with the stack's budget, and shrinking evicts the
// oldest resident blocks.
func (s *ByteStack) SetResident(n int) error { return s.p.setResident(n) }

// Resident returns the current window capacity in blocks.
func (s *ByteStack) Resident() int { return s.p.resident }

// Held returns how many blocks the window holds in frames right now, at
// most Resident(). Shrinking the window to Held() or more evicts nothing.
func (s *ByteStack) Held() int { return len(s.p.bufs) }

// Close releases the resident-window grant. The stack is unusable after.
func (s *ByteStack) Close() { s.p.close() }
