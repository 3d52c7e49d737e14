package em

import (
	"fmt"
	"sync"
)

// Frame is a pinned, reusable fixed-size buffer handed out by a FramePool:
// the memory behind one granted block of the Budget's M. Every block-sized
// buffer in the system — stream readers and writers, the stacks' resident
// windows, record arenas — is a Frame, so the budget's count of abstract
// blocks and the process's actual buffer footprint move together instead
// of being tracked by two disconnected mechanisms.
//
// A Frame is valid from Acquire until the matching Release; its bytes are
// zeroed on acquisition (the same contract as a fresh make), so no data
// bleeds from one user to the next through the free list.
type Frame struct {
	data []byte
}

// Bytes returns the frame's buffer, always exactly FrameSize bytes long.
func (f Frame) Bytes() []byte { return f.data }

// valid reports whether the frame was produced by an Acquire (the zero
// Frame is not usable).
func (f Frame) valid() bool { return f.data != nil }

// FramePool recycles Frames of one fixed size through a free list. It is
// the single allocation point for block buffers: acquiring a frame either
// pops the free list (no allocation, bytes zeroed) or, when the list is
// empty, allocates one fresh buffer that will be recycled forever after.
//
// The pool tracks how many frames are live (acquired and not yet released)
// and the high-water mark, so tests can assert the complement of the
// Budget invariant: no buffer exists without a grant — live frames never
// exceed granted blocks, and the peaks compare the same way.
//
// All methods are safe for concurrent use; background sort workers acquire
// and release frames from their own goroutines.
type FramePool struct {
	frameSize int

	mu       sync.Mutex
	free     [][]byte
	live     int
	peakLive int
	acquired int64
	recycled int64
}

// NewFramePool returns a pool of frames of frameSize bytes.
func NewFramePool(frameSize int) *FramePool {
	if frameSize <= 0 {
		panic("em: frame size must be positive")
	}
	return &FramePool{frameSize: frameSize}
}

// FrameSize returns the fixed size of the pool's frames in bytes.
func (p *FramePool) FrameSize() int { return p.frameSize }

// Acquire returns a zeroed frame, recycling a released one when available.
// Acquire does no budget accounting: the caller already holds a Budget
// grant covering the block (a component grants its blocks up front and
// materializes them as frames one by one), and releases that grant itself
// when it releases the frame.
func (p *FramePool) Acquire() Frame {
	p.mu.Lock()
	var buf []byte
	if n := len(p.free); n > 0 {
		buf = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.recycled++
	}
	p.live++
	if p.live > p.peakLive {
		p.peakLive = p.live
	}
	p.acquired++
	p.mu.Unlock()

	if buf == nil {
		return Frame{data: make([]byte, p.frameSize)}
	}
	clear(buf)
	return Frame{data: buf}
}

// Release returns a frame to the free list. Releasing the zero Frame or a
// frame of the wrong size is a programming error and panics.
func (p *FramePool) Release(f Frame) {
	if !f.valid() || len(f.data) != p.frameSize {
		panic(fmt.Sprintf("em: release of invalid frame (len=%d, want %d)", len(f.data), p.frameSize))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live == 0 {
		panic("em: frame release with no frames live")
	}
	p.live--
	p.free = append(p.free, f.data)
}

// Live returns the number of frames currently acquired.
func (p *FramePool) Live() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// PeakLive returns the high-water mark of live frames.
func (p *FramePool) PeakLive() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peakLive
}

// Recycled returns how many acquisitions were served from the free list
// rather than by a fresh allocation.
func (p *FramePool) Recycled() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recycled
}

// Acquired returns the total number of acquisitions.
func (p *FramePool) Acquired() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acquired
}
