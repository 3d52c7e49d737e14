package xstack

import (
	"fmt"
	"io"

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
// served from memory for free; evicted blocks cost one charged read each.
// The stack must not be mutated while the reader is in use. The reader
// borrows one block of main memory from budget until Close.
func (s *ByteStack) ReadRange(budget *em.Budget, off int64) (*RangeReader, error) {
	if off < 0 || off > s.size {
		return nil, fmt.Errorf("xstack: read range start %d outside [0,%d]", off, s.size)
	}
	if budget != nil {
		if err := budget.Grant(1); err != nil {
			return nil, err
		}
	}
	frame := s.p.frames.Acquire()
	return &RangeReader{
		s:      s,
		budget: budget,
		frame:  frame,
		buf:    frame.Bytes(),
		cur:    -1,
		pos:    off,
		end:    s.size,
	}, nil
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

// RangeReader streams a suffix of a ByteStack. It implements io.Reader,
// io.ByteReader and xmltok.WindowReader.
type RangeReader struct {
	s      *ByteStack
	budget *em.Budget
	frame  em.Frame
	buf    []byte
	cur    int // stack block index currently in buf; -1 if none
	pos    int64
	end    int64
	closed bool
}

// Window returns the unread bytes of the stack block holding the read
// position, paging that block in first if it is not the one in the buffer.
// It returns io.EOF at the end of the range.
func (r *RangeReader) Window() ([]byte, error) {
	if r.closed {
		return nil, fmt.Errorf("xstack: read from closed RangeReader")
	}
	if r.pos >= r.end {
		return nil, io.EOF
	}
	bs := int64(len(r.buf))
	b := int(r.pos / bs)
	if b != r.cur {
		if err := r.s.p.readInto(b, r.buf); err != nil {
			return nil, err
		}
		r.cur = b
	}
	return r.buf[r.pos%bs : min64(bs, r.end-int64(b)*bs)], nil
}

// Advance consumes the first n bytes of the window.
func (r *RangeReader) Advance(n int) { r.pos += int64(n) }

// Read implements io.Reader.
func (r *RangeReader) Read(p []byte) (int, error) {
	w, err := r.Window()
	if err != nil {
		return 0, err
	}
	n := copy(p, w)
	r.pos += int64(n)
	return n, nil
}

// ReadByte implements io.ByteReader.
func (r *RangeReader) ReadByte() (byte, error) {
	w, err := r.Window()
	if err != nil {
		return 0, err
	}
	r.pos++
	return w[0], nil
}

// Close recycles the reader's buffer frame and releases its grant.
func (r *RangeReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.s.p.frames.Release(r.frame)
	r.buf = nil
	if r.budget != nil {
		r.budget.Release(1)
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
