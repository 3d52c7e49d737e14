// Package em is a miniature stand-in for nexsort/internal/em with the same
// type shapes the analyzers key on: Budget (Grant/MustGrant/Release,
// AcquireFrames/ReleaseFrames), FramePool (Acquire/Release), Stats with
// counter fields behind accessor methods, the positional-I/O Backend
// interface, and the accounting Device. Method bodies are deliberately
// trivial — the analyzers match on names, receivers, and declaring package
// path (".../internal/em"), not behavior.
package em

import "errors"

// ErrBudgetExceeded mirrors the real budget's sentinel error.
var ErrBudgetExceeded = errors.New("em: budget exceeded")

// Frame is one block-sized buffer.
type Frame []byte

// FramePool hands out frames.
type FramePool struct {
	free []Frame
}

func (p *FramePool) Acquire() Frame           { return make(Frame, 4096) }
func (p *FramePool) Release(f Frame)          {}
func (p *FramePool) ReleaseFrames(fs []Frame) {}

// Budget meters main-memory blocks.
type Budget struct {
	used, total int
}

func (b *Budget) Grant(n int) error {
	if b.used+n > b.total {
		return ErrBudgetExceeded
	}
	b.used += n
	return nil
}

func (b *Budget) MustGrant(n int) {
	b.used += n
}

func (b *Budget) Release(n int) {
	b.used -= n
}

func (b *Budget) AcquireFrames(n int) ([]Frame, error) {
	if b.used+n > b.total {
		return nil, ErrBudgetExceeded
	}
	b.used += n
	return make([]Frame, n), nil
}

func (b *Budget) ReleaseFrames(fs []Frame) {
	b.used -= len(fs)
}

// Backend is the positional-I/O substrate beneath the Device.
type Backend interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Close() error
}

// Device is the accounting chokepoint for block traffic.
type Device struct {
	backend Backend
}

func (d *Device) ReadBlock(i int64, f Frame) error  { return nil }
func (d *Device) WriteBlock(i int64, f Frame) error { return nil }

// Stats holds per-direction counters; every touch must go through the
// accessor methods.
type Stats struct {
	ReadsCount  int64
	writesCount int64
}

func (s *Stats) AddReads(n int64)  { s.ReadsCount += n }
func (s *Stats) Reads() int64      { return s.ReadsCount }
func (s *Stats) AddWrites(n int64) { s.writesCount += n }
func (s *Stats) Writes() int64     { return s.writesCount }
