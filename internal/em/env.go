package em

import (
	"context"
	"fmt"
	"runtime"
)

// Config describes an external-memory environment: the block size B (in
// bytes) and the main-memory budget M (in blocks). These are the two knobs
// the paper's experiments sweep (64 KB blocks; 3-32 MB of memory).
type Config struct {
	// BlockSize is the block size in bytes. The paper uses 64 KiB; tests
	// and scaled-down experiments use smaller blocks so that interesting
	// N/B and M/B ratios are reachable with small inputs.
	BlockSize int
	// MemBlocks is M, the number of main-memory blocks available.
	MemBlocks int
	// ScratchDir, if non-empty, places the scratch device file there and
	// selects the file backend. If empty, an in-memory backend is used.
	ScratchDir string
	// InMemory forces the in-memory backend even if ScratchDir is set.
	InMemory bool

	// Parallelism bounds how many goroutines NEXSORT may use: the main
	// scanning goroutine plus Parallelism-1 pooled workers that sort and
	// spill the default layout's in-place subtree sorts in the background.
	// The paper's layout, merge sort and extsort.Sorter run on one
	// goroutine. 0 means GOMAXPROCS; 1 forces fully sequential execution.
	// Parallelism changes only wall-clock time: output bytes and
	// per-category block-transfer counts are identical at every setting
	// (see the concurrency model in DESIGN.md).
	Parallelism int

	// ScratchQuotaBlocks, when positive, caps the scratch device at that
	// many blocks: a CapacityBackend under the hardening layers refuses
	// writes past the quota with the typed ErrScratchExhausted, and the
	// Device's NearFull signal (7/8 of the quota) lets the sorters degrade
	// gracefully — extsort streams its final merge instead of
	// materializing one more run — before the hard limit hits. 0 means
	// unlimited, the paper's model.
	ScratchQuotaBlocks int64

	// VerifyChecksums stores a CRC-32C trailer with every spill block and
	// verifies it on read, turning torn writes and bit rot into typed
	// ErrCorruptBlock errors instead of silent corruption. Costs 8 bytes
	// of scratch space per block and one CRC pass per transfer; the
	// block-transfer counters are unchanged.
	VerifyChecksums bool
	// Retry re-attempts backend operations that fail with a transient
	// error (and, optionally, corrupt reads) under a bounded backoff.
	// The zero policy disables retrying.
	Retry RetryPolicy
	// WrapBackend, when non-nil, wraps the raw backend before the
	// hardening layers are applied. The chaos harness injects its fault
	// backend here, underneath checksum verification and retry, exactly
	// where a faulty device would sit.
	WrapBackend func(Backend) Backend
}

// Validate reports whether the configuration satisfies the minimum-memory
// assumptions of Section 3.1: NEXSORT needs at least two blocks for the path
// stack, one for the data stack, one for the output-location stack, and at
// least one block to sort with, so M >= 5 is the floor enforced here.
func (c Config) Validate() error {
	if c.BlockSize < 64 {
		return fmt.Errorf("em: block size %d too small (min 64 bytes)", c.BlockSize)
	}
	if c.MemBlocks < 5 {
		return fmt.Errorf("em: memory budget %d blocks too small (min 5)", c.MemBlocks)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("em: negative parallelism %d", c.Parallelism)
	}
	if c.ScratchQuotaBlocks < 0 {
		return fmt.Errorf("em: negative scratch quota %d blocks", c.ScratchQuotaBlocks)
	}
	return nil
}

// parallelism resolves the Parallelism knob: 0 defaults to GOMAXPROCS.
func (c Config) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Env bundles the device, statistics and memory budget an algorithm run
// uses. Construct with NewEnv and Close when the run is finished.
type Env struct {
	Dev    *Device
	Stats  *Stats
	Budget *Budget
	Conf   Config

	// pool admits NEXSORT's background subtree sorts (Conf.Parallelism - 1
	// slots; the scanning goroutine is the remaining unit). Nil on
	// hand-built Envs, which therefore run sequentially.
	pool *Pool
}

// Pool returns the background-worker pool (nil admits nothing, meaning
// sequential execution).
func (e *Env) Pool() *Pool { return e.pool }

// NewEnv builds an environment from cfg. The spill backend is assembled
// bottom-up: the raw store (file or memory), the scratch quota (if any),
// the optional WrapBackend test hook (fault injection), then checksum
// verification and transient-fault retry — so retries re-drive
// verification, and it sees exactly what the (possibly faulty) device
// returned. The environment has no lifecycle: it can never be
// canceled. Use NewEnvContext to bound a run by a context.
func NewEnv(cfg Config) (*Env, error) {
	return newEnv(cfg, nil)
}

// NewEnvContext is NewEnv bound to ctx: once ctx is canceled or its
// deadline passes, every block operation on the environment's device is
// refused with the wrapped context error (errors.Is-matchable against
// context.Canceled / context.DeadlineExceeded), retry backoffs wake
// immediately, and the sorters unwind through their usual typed-error
// paths — budget settled, frames recycled, scratch removed by Close.
func NewEnvContext(ctx context.Context, cfg Config) (*Env, error) {
	return newEnv(cfg, NewLifecycle(ctx))
}

func newEnv(cfg Config, life *Lifecycle) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stats := NewStats()
	var backend Backend
	if cfg.ScratchDir != "" && !cfg.InMemory {
		b, err := NewFileBackend(scratchPath(cfg.ScratchDir))
		if err != nil {
			return nil, err
		}
		backend = b
	} else {
		backend = NewMemBackend()
	}
	if cfg.ScratchQuotaBlocks > 0 {
		// The quota sits directly on the raw store and is denominated in
		// physical blocks: with checksums on, each logical block costs its
		// trailer too, and that overhead must not eat into the quota's
		// block count.
		phys := int64(cfg.BlockSize)
		if cfg.VerifyChecksums {
			phys += checksumTrailerLen
		}
		backend = NewCapacityBackend(backend, cfg.ScratchQuotaBlocks*phys)
	}
	if cfg.WrapBackend != nil {
		backend = cfg.WrapBackend(backend)
	}
	backend = hardenStack(backend, cfg, stats, life)
	dev := NewDevice(backend, cfg.BlockSize, stats)
	dev.BindLifecycle(life)
	dev.SetCapacityHint(cfg.ScratchQuotaBlocks)
	return &Env{
		Dev:    dev,
		Stats:  stats,
		Budget: NewBudget(cfg.MemBlocks),
		Conf:   cfg,
		pool:   NewPool(cfg.parallelism() - 1),
	}, nil
}

// hardenStack assembles the hardening layers bottom-up and returns the top
// of the stack:
//
//	retry → checksum → backend
//
// Retry stays on top, so a re-attempt re-drives verification.
func hardenStack(backend Backend, cfg Config, stats *Stats, life *Lifecycle) Backend {
	if cfg.VerifyChecksums {
		backend = NewChecksumBackend(backend, cfg.BlockSize, stats)
	}
	if cfg.Retry.Enabled() {
		backend = NewRetryBackendLifecycle(backend, cfg.Retry, stats, life)
	}
	return backend
}

// Close releases the scratch device.
func (e *Env) Close() error { return e.Dev.Close() }

// CostModel converts counted block I/Os into simulated seconds, so the
// harness can plot "sort time" curves with the same shape as the paper's
// figures even though the physical disk underneath is a modern SSD (or
// memory). The defaults approximate the paper's 2003-era disk: a 64 KiB
// block transfer at ~25 MB/s sequential plus ~5 ms average positioning for
// each random access, scaled to the configured block size.
type CostModel struct {
	// SeqPerByte is the per-byte transfer cost in seconds.
	SeqPerByte float64
	// PerIO is the fixed per-block-access cost in seconds (seek+rotate).
	PerIO float64
}

// DefaultCostModel returns a model approximating the paper's testbed.
func DefaultCostModel() CostModel {
	return CostModel{
		SeqPerByte: 1.0 / (25 << 20), // 25 MB/s streaming
		PerIO:      0.005,            // 5 ms positioning
	}
}

// Seconds converts an I/O count at the given block size into simulated
// seconds under the model.
func (m CostModel) Seconds(ios int64, blockSize int) float64 {
	return float64(ios) * (m.PerIO + m.SeqPerByte*float64(blockSize))
}
