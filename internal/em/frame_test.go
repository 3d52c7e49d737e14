package em

import (
	"bytes"
	"testing"
)

func TestFramePoolZeroesRecycledFrames(t *testing.T) {
	p := NewFramePool(32)
	f := p.Acquire()
	for i := range f.Bytes() {
		f.Bytes()[i] = 0xAB
	}
	p.Release(f)

	g := p.Acquire()
	if !bytes.Equal(g.Bytes(), make([]byte, 32)) {
		t.Error("recycled frame not zeroed: data bled through the free list")
	}
	if p.Recycled() != 1 {
		t.Errorf("recycled = %d, want 1 (second acquire must reuse the freed buffer)", p.Recycled())
	}
	if p.Acquired() != 2 {
		t.Errorf("acquired = %d, want 2", p.Acquired())
	}
	p.Release(g)
	if p.Live() != 0 || p.PeakLive() != 1 {
		t.Errorf("live=%d peakLive=%d, want 0/1", p.Live(), p.PeakLive())
	}
}

func TestFramePoolReleasePanics(t *testing.T) {
	p := NewFramePool(16)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("zero frame", func() { p.Release(Frame{}) })
	mustPanic("wrong size", func() { p.Release(Frame{data: make([]byte, 8)}) })
	mustPanic("none live", func() { p.Release(Frame{data: make([]byte, 16)}) })
}
