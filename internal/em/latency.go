package em

import "time"

// LatencyBackend wraps a Backend and charges a fixed service time per
// positional operation, on the calling goroutine, before delegating. It
// stands in for the seek-plus-transfer cost the external-memory model
// bills each block transfer with: on modern container storage a block op
// completes in microseconds, which hides any overlap between concurrent
// I/O streams. The partitioned-merge benchmark (nexbench -exp pmerge)
// layers this under the device (via Config.WrapBackend) so the effect of
// merging partitions concurrently is measurable and reproducible.
//
// Sleeping on the calling goroutine is the point: each caller stalls for
// the service time like a blocking disk read would, so concurrent callers
// overlap their waits and a single caller does not. The wrapper adds no
// state, so it is as concurrency-safe as the backend it wraps.
type LatencyBackend struct {
	inner      Backend
	readDelay  time.Duration
	writeDelay time.Duration
}

// NewLatencyBackend wraps inner, delaying every ReadAt by readDelay and
// every WriteAt by writeDelay.
func NewLatencyBackend(inner Backend, readDelay, writeDelay time.Duration) *LatencyBackend {
	return &LatencyBackend{inner: inner, readDelay: readDelay, writeDelay: writeDelay}
}

// ReadAt sleeps the read service time, then reads from the wrapped backend.
func (b *LatencyBackend) ReadAt(p []byte, off int64) (int, error) {
	if b.readDelay > 0 {
		time.Sleep(b.readDelay)
	}
	return b.inner.ReadAt(p, off)
}

// WriteAt sleeps the write service time, then writes to the wrapped backend.
func (b *LatencyBackend) WriteAt(p []byte, off int64) (int, error) {
	if b.writeDelay > 0 {
		time.Sleep(b.writeDelay)
	}
	return b.inner.WriteAt(p, off)
}

// Close closes the wrapped backend.
func (b *LatencyBackend) Close() error { return b.inner.Close() }
