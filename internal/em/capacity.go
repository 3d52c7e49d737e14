package em

import "sync"

// CapacityBackend wraps a Backend with a byte quota: writes that would
// extend past the limit fail with *ExhaustedError (ClassExhausted,
// matched by errors.Is(err, ErrScratchExhausted)) without touching the
// device, while reads always pass through — data already on the device
// stays readable, which is what lets a sorter finish merging runs it has
// already spilled even when it can spill nothing more.
//
// It models the bounded scratch partition a multi-tenant deployment
// assigns each job: NewEnv installs one under the hardening layers when
// Config.ScratchQuotaBlocks is set, and the cancel-anywhere chaos harness
// drives Exhaust directly to make the device fill up at an exact
// operation count.
type CapacityBackend struct {
	inner Backend
	limit int64 // bytes; <= 0 means unlimited until Exhaust

	mu        sync.Mutex
	exhausted bool
}

// NewCapacityBackend wraps inner with a quota of limitBytes ( <= 0 means
// no static limit; the backend then only fails after Exhaust).
func NewCapacityBackend(inner Backend, limitBytes int64) *CapacityBackend {
	return &CapacityBackend{inner: inner, limit: limitBytes}
}

// Exhaust makes every subsequent write fail as out-of-space regardless of
// the configured limit, simulating a device that filled up externally
// (another tenant, a shrinking thin-provisioned volume). Reads are
// unaffected.
func (b *CapacityBackend) Exhaust() {
	b.mu.Lock()
	b.exhausted = true
	b.mu.Unlock()
}

// ReadAt implements io.ReaderAt; reads always pass through.
func (b *CapacityBackend) ReadAt(p []byte, off int64) (int, error) {
	return b.inner.ReadAt(p, off)
}

// WriteAt implements io.WriterAt, refusing writes beyond the quota.
func (b *CapacityBackend) WriteAt(p []byte, off int64) (int, error) {
	end := off + int64(len(p))
	b.mu.Lock()
	full := b.exhausted || (b.limit > 0 && end > b.limit)
	b.mu.Unlock()
	if full {
		return 0, &ExhaustedError{Limit: b.limit, Requested: end}
	}
	return b.inner.WriteAt(p, off)
}

// Close closes the wrapped backend.
func (b *CapacityBackend) Close() error { return b.inner.Close() }
