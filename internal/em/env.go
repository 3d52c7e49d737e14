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

	// Parallelism bounds how many goroutines the sorters may use: the main
	// scanning goroutine plus Parallelism-1 pooled workers that sort and
	// spill runs/subtrees in the background. 0 means GOMAXPROCS; 1 forces
	// fully sequential execution. Parallelism changes only wall-clock time:
	// output bytes and per-category block-transfer counts are identical at
	// every setting (see the concurrency model in DESIGN.md).
	Parallelism int

	// MergeParallel, when positive, runs the external merge sort's final
	// merge as up to that many independent loser trees over disjoint key
	// ranges, dispatched on the worker pool, each writing its own segment
	// of the output stream (DESIGN.md §17). Setting it also makes run
	// formation emit a fence-key sparse index per run — the first
	// normalized key of every run block, spilled as a tiny side stream
	// (CatFenceIndex) through the same hardened backend stack as the runs
	// — which is what lets the merge partition runs by key range without
	// scanning them. Splitters are chosen so that all records with equal
	// keys land in one partition, which preserves the serial loser tree's
	// run-index tie-break and makes the concatenated output byte-identical
	// to the serial merge. Every run block is still read exactly once and
	// every output block written exactly once, at every partition count;
	// index I/O is charged to its own category, so the run categories and
	// the paper-model counts are unchanged. 0 (the default) keeps the
	// final merge on a single loser tree and emits no index.
	MergeParallel int

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
	// CompressSpill stores every spill block in the compressed spill
	// format (DESIGN.md §14): records are front-coded against their
	// predecessor, the block is flate-compressed, and only the encoded
	// bytes cross the device boundary. The logical block-transfer
	// counters — the paper's model — are unchanged at every layer; the
	// physical byte counters in Stats shrink with the data's redundancy
	// (2-4× on key-path runs). Composes with VerifyChecksums: the
	// checksummed record is what gets compressed, so verification still
	// sees exactly the bytes it wrote. Decode failures surface as typed
	// ErrCorruptBlock errors, like checksum failures.
	CompressSpill bool
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
	if c.MergeParallel < 0 {
		return fmt.Errorf("em: negative merge parallelism %d", c.MergeParallel)
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

	// pool admits background sort workers (Conf.Parallelism - 1 slots; the
	// main goroutine is the remaining unit). Nil on hand-built Envs, which
	// therefore run sequentially.
	pool *Pool

	// spill is the compression layer in the backend stack, nil when
	// Conf.CompressSpill is off; kept so leak checks can see its scratch
	// pool.
	spill *CompressedBackend
}

// SpillCodecFramesLive reports how many scratch frames the spill
// compression layer holds live right now (always 0 with compression off).
// The unwind invariant extends to the codec: after a sort returns — clean,
// canceled, or faulted — this must be zero.
func (e *Env) SpillCodecFramesLive() int {
	if e.spill == nil {
		return 0
	}
	return e.spill.ScratchFramesLive()
}

// Parallelism returns the resolved parallelism level: Conf.Parallelism, or
// GOMAXPROCS when that is zero.
func (e *Env) Parallelism() int { return e.Conf.parallelism() }

// Pool returns the background-worker pool (nil admits nothing, meaning
// sequential execution).
func (e *Env) Pool() *Pool { return e.pool }

// NewEnv builds an environment from cfg. The spill backend is assembled
// bottom-up: the raw store (file or memory), the scratch quota (if any),
// the optional WrapBackend test hook (fault injection), then physical
// byte accounting, spill compression, checksum verification, and
// transient-fault retry — so retries re-drive decompression and
// verification, and both see exactly what the (possibly faulty) device
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
		// trailer too, and with compression its slot header — that
		// overhead must not eat into the quota's block count. Compressed
		// records are shorter than their slot, but the quota meters slots:
		// a block allocated is a block of quota spent.
		phys := int64(cfg.BlockSize)
		if cfg.VerifyChecksums {
			phys += checksumTrailerLen
		}
		if cfg.CompressSpill {
			phys += spillHeaderLen
		}
		backend = NewCapacityBackend(backend, cfg.ScratchQuotaBlocks*phys)
	}
	if cfg.WrapBackend != nil {
		backend = cfg.WrapBackend(backend)
	}
	backend, spill := hardenStack(backend, cfg, stats, life)
	dev := NewDevice(backend, cfg.BlockSize, stats)
	dev.BindLifecycle(life)
	dev.SetCapacityHint(cfg.ScratchQuotaBlocks)
	budget := NewBudget(cfg.MemBlocks)
	// The device's frame pool is the memory behind the budget's blocks:
	// one substrate under every buffer, so grants and buffers can't drift.
	budget.AttachFrames(dev.Frames())
	return &Env{
		Dev:    dev,
		Stats:  stats,
		Budget: budget,
		Conf:   cfg,
		pool:   NewPool(cfg.parallelism() - 1),
		spill:  spill,
	}, nil
}

// hardenStack assembles the hardening layers bottom-up and returns the top
// of the stack plus the compression layer (nil when off):
//
//	retry → checksum → compression → physical counting → backend
//
// Physical counting sits innermost, directly on the (possibly
// fault-injected) device, so the physical ledger sees exactly what crossed
// the boundary. Compression sits below checksums — the checksummed record
// is this layer's unit — so verification round-trips through the codec and
// a corrupted compressed block fails decode (or, if the flate stream
// survives, the CRC above). Retry stays on top: re-attempts re-drive
// decode and verification.
func hardenStack(backend Backend, cfg Config, stats *Stats, life *Lifecycle) (Backend, *CompressedBackend) {
	backend = NewPhysCountBackend(backend, stats)
	var spill *CompressedBackend
	if cfg.CompressSpill {
		unit := cfg.BlockSize
		if cfg.VerifyChecksums {
			unit += checksumTrailerLen
		}
		spill = NewCompressedBackend(backend, unit, stats)
		backend = spill
	}
	if cfg.VerifyChecksums {
		backend = NewChecksumBackend(backend, cfg.BlockSize, stats)
	}
	if cfg.Retry.Enabled() {
		backend = NewRetryBackendLifecycle(backend, cfg.Retry, stats, life)
	}
	return backend, spill
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
