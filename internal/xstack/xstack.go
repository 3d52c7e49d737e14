// Package xstack provides the external-memory stacks NEXSORT relies on:
// stacks that keep only a small, fixed window of blocks resident in main
// memory and page the rest to an em.Device on demand.
//
// Section 3.1 of the paper names three such stacks — the data stack, the
// path stack, and the output location stack — and its worst-case analysis
// (Lemmas 4.10, 4.11 and 4.13) assumes a no-prefetch paging policy: a block
// in external memory is paged in only when something on it must actually be
// popped or read. The implementations here follow that policy exactly:
//
//   - a push that overflows the resident window evicts the oldest resident
//     block, writing it to the device only if it is dirty;
//   - a pop or truncate never performs a write, because bytes above the new
//     top are garbage;
//   - a pop that reaches below the resident window pages in exactly the one
//     block holding the new top.
//
// ByteStack stores an unstructured byte sequence and supports range reads —
// that is the data stack, whose entries (serialized XML units) have variable
// length and are consumed wholesale when a subtree is extracted for sorting.
// RecordStack stores fixed-size records — that is the path stack and the
// output location stack. Records never straddle block boundaries: each
// block holds floor(blockSize/recordSize) records, mirroring how TPIE lays
// out fixed-size items.
package xstack

import (
	"errors"
	"fmt"

	"nexsort/internal/em"
)

// ErrEmpty is returned when popping or peeking an empty RecordStack.
var ErrEmpty = errors.New("xstack: stack is empty")

// pager manages the resident window shared by both stack kinds. Stack
// blocks are numbered from 0 at the bottom; the window is a contiguous run
// of blocks ending at the current top block.
type pager struct {
	dev      *em.Device
	cat      em.Category
	budget   *em.Budget
	frames   *em.FramePool
	resident int // maximum resident blocks (granted from budget)

	ids    []int64    // device block ID per stack block; -1 until first evict
	bufs   []em.Frame // resident frames, bufs[i] holds stack block wStart+i
	dirty  []bool
	wStart int // stack block index of bufs[0]
	closed bool
}

func newPager(dev *em.Device, cat em.Category, budget *em.Budget, resident int) (*pager, error) {
	if resident < 1 {
		return nil, fmt.Errorf("xstack: resident window must be >= 1, got %d", resident)
	}
	if budget != nil {
		if err := budget.Grant(resident); err != nil {
			return nil, fmt.Errorf("xstack: granting %d resident blocks: %w", resident, err)
		}
	}
	p := &pager{dev: dev, cat: cat, budget: budget, frames: dev.Frames(), resident: resident}
	p.bufs = append(p.bufs, p.frames.Acquire())
	p.dirty = append(p.dirty, false)
	return p, nil
}

func (p *pager) blockSize() int { return p.dev.BlockSize() }

// topBlock returns the stack block index of the last resident buffer.
func (p *pager) topBlock() int { return p.wStart + len(p.bufs) - 1 }

// isResident reports whether stack block b is in the window.
func (p *pager) isResident(b int) bool {
	return b >= p.wStart && b <= p.topBlock()
}

// buf returns the buffer for resident stack block b.
func (p *pager) buf(b int) []byte { return p.bufs[b-p.wStart].Bytes() }

// markDirty flags resident stack block b as modified.
func (p *pager) markDirty(b int) { p.dirty[b-p.wStart] = true }

func (p *pager) deviceID(b int) int64 {
	for len(p.ids) <= b {
		p.ids = append(p.ids, -1)
	}
	if p.ids[b] < 0 {
		p.ids[b] = p.dev.AllocBlock()
	}
	return p.ids[b]
}

// grow extends the window upward by one fresh (zeroed) frame, evicting the
// oldest block first if the window is full.
func (p *pager) grow() error {
	if len(p.bufs) == p.resident {
		if err := p.evictOldest(); err != nil {
			return err
		}
	}
	p.bufs = append(p.bufs, p.frames.Acquire())
	p.dirty = append(p.dirty, false)
	return nil
}

// evictOldest drops the oldest resident block from the window, writing it
// to the device first if it is dirty.
func (p *pager) evictOldest() error {
	if p.dirty[0] {
		if err := p.dev.WriteBlock(p.cat, p.deviceID(p.wStart), p.bufs[0].Bytes()); err != nil {
			return err
		}
	}
	p.frames.Release(p.bufs[0])
	p.bufs = p.bufs[1:]
	p.dirty = p.dirty[1:]
	p.wStart++
	return nil
}

// shrinkTo makes stack block b the top block. Blocks above b are dropped
// without writing (their contents are garbage). If b lies below the window,
// the window collapses to the single block b, paged in from the device.
func (p *pager) shrinkTo(b int) error {
	if b >= p.wStart {
		keep := b - p.wStart + 1
		for _, f := range p.bufs[keep:] {
			p.frames.Release(f)
		}
		p.bufs = p.bufs[:keep]
		p.dirty = p.dirty[:keep]
		return nil
	}
	// Page fault: the new top lives below the window. The oldest resident
	// frame is reused for the paged-in block; the rest are recycled.
	if p.ids == nil || b >= len(p.ids) || p.ids[b] < 0 {
		return fmt.Errorf("xstack: internal error: block %d was never evicted", b)
	}
	if err := p.dev.ReadBlock(p.cat, p.ids[b], p.bufs[0].Bytes()); err != nil {
		return err
	}
	for _, f := range p.bufs[1:] {
		p.frames.Release(f)
	}
	p.bufs = p.bufs[:1]
	p.dirty = p.dirty[:1]
	p.dirty[0] = false
	p.wStart = b
	return nil
}

// setResident changes the window capacity. Shrinking evicts the oldest
// resident blocks (writing dirty ones) until the window fits; growing is
// free. The grant delta is settled with the pager's budget. NEXSORT's
// graceful degeneration uses this to lend the data stack's accumulation
// window to the incomplete-run merge and take it back afterwards.
func (p *pager) setResident(n int) error {
	if n < 1 {
		return fmt.Errorf("xstack: resident window must be >= 1, got %d", n)
	}
	if n > p.resident {
		if p.budget != nil {
			if err := p.budget.Grant(n - p.resident); err != nil {
				return err
			}
		}
		p.resident = n
		return nil
	}
	for len(p.bufs) > n {
		if err := p.evictOldest(); err != nil {
			return err
		}
	}
	if p.budget != nil {
		p.budget.Release(p.resident - n)
	}
	p.resident = n
	return nil
}

// reset collapses the window to a single fresh block 0 without any I/O.
// Used when the stack becomes empty: the old contents are garbage, so
// paging anything back in would be a wasted read.
func (p *pager) reset() {
	for _, f := range p.bufs[1:] {
		p.frames.Release(f)
	}
	p.bufs = p.bufs[:1]
	p.dirty = p.dirty[:1]
	if p.wStart != 0 {
		// The kept frame held some higher stack block; zero it so block 0
		// starts from the same state a fresh frame would have.
		clear(p.bufs[0].Bytes())
		p.wStart = 0
	}
	p.dirty[0] = false
}

// readInto copies stack block b into dst, either from the window (free) or
// from the device (one charged read). dst must be one block long.
func (p *pager) readInto(b int, dst []byte) error {
	if p.isResident(b) {
		copy(dst, p.buf(b))
		return nil
	}
	if p.ids == nil || b >= len(p.ids) || p.ids[b] < 0 {
		return fmt.Errorf("xstack: internal error: reading block %d that was never evicted", b)
	}
	return p.dev.ReadBlock(p.cat, p.ids[b], dst)
}

func (p *pager) close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, f := range p.bufs {
		p.frames.Release(f)
	}
	p.bufs = nil
	p.dirty = nil
	if p.budget != nil {
		p.budget.Release(p.resident)
	}
}
