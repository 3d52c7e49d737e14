// Package em is a miniature stand-in for nexsort/internal/em with the same
// type shapes the analyzers key on: Budget (Grant/Release), FramePool
// (Acquire/Release), the positional-I/O Backend interface, and the
// accounting Device. Method bodies are deliberately
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

func (p *FramePool) Acquire() Frame  { return make(Frame, 4096) }
func (p *FramePool) Release(f Frame) {}

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

func (b *Budget) Release(n int) {
	b.used -= n
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
