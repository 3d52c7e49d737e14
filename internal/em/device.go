package em

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Device is block-addressed scratch storage with per-category I/O
// accounting. Sorted runs and paged-out stack blocks live here. Blocks are
// identified by a dense int64 ID handed out by AllocBlock; the Device never
// reuses IDs, which keeps run pointers stable for the whole sort.
//
// Locking: the mutex guards allocation and the closed flag; the transfer
// itself runs outside the lock, so concurrent workers overlap their block
// I/O. That is safe because every backend in the tree is itself
// concurrency-safe (FileBackend uses positional pread/pwrite; MemBackend,
// ChecksumBackend and the fault injectors carry their own locks; the retry
// layer is stateless), and because blocks are never shared between
// in-flight writers — each stream/stack owns the block IDs it allocated.
type Device struct {
	blockSize int
	stats     *Stats
	frames    *FramePool

	// life bounds the run: every ReadBlock/WriteBlock checks it before
	// transferring, making the Device the single enforcement point that
	// gives cancellation its ≤ K-block-operations promptness bound — all
	// spill traffic (runstore, xstack paging, extsort runs, core's
	// workers) flows through here. Set once by BindLifecycle before the
	// device is shared; nil never cancels. capacity is the scratch quota
	// hint in blocks (0 unlimited), set alongside it; both are immutable
	// after construction, so reads need no lock.
	life     *Lifecycle
	capacity int64

	mu        sync.Mutex
	backend   Backend
	nextBlock int64
	closed    bool
}

// NewDevice returns a Device with the given block size over backend,
// charging I/Os to stats.
func NewDevice(backend Backend, blockSize int, stats *Stats) *Device {
	if blockSize <= 0 {
		panic("em: block size must be positive")
	}
	if stats == nil {
		stats = NewStats()
	}
	return &Device{blockSize: blockSize, stats: stats, frames: NewFramePool(blockSize), backend: backend}
}

// scratchPath returns a fresh scratch-file path in dir. The name carries
// the PID alongside the process-local counter so that two processes
// sharing a scratch directory can never collide; NewFileBackend's
// exclusive create backstops even that (PID reuse, containers sharing a
// PID namespace view of one volume).
func scratchPath(dir string) string {
	return filepath.Join(dir, fmt.Sprintf("nexsort-scratch-%d-%d.bin", os.Getpid(), nextScratchID()))
}

var (
	scratchMu sync.Mutex
	scratchID int64
)

func nextScratchID() int64 {
	scratchMu.Lock()
	defer scratchMu.Unlock()
	scratchID++
	return scratchID
}

// BindLifecycle attaches the run's lifecycle: once it ends, every further
// block operation is refused with the wrapped context error. Call before
// the device is shared between goroutines (NewEnvContext does); a nil
// lifecycle means the device never cancels.
func (d *Device) BindLifecycle(l *Lifecycle) { d.life = l }

// SetCapacityHint records the scratch quota in blocks that a
// CapacityBackend (or the deployment) enforces underneath, enabling
// NearFull. 0 means unlimited. Call before the device is shared.
func (d *Device) SetCapacityHint(blocks int64) { d.capacity = blocks }

// Interrupted returns the run's typed cancellation error once the bound
// lifecycle has ended, nil before that. Components with long CPU-only
// stretches between block operations (in-memory sorts, the counting
// reader/writer at the user-I/O boundary) poll this to keep cancellation
// prompt even when no spill traffic is flowing.
func (d *Device) Interrupted() error { return d.life.Interrupted() }

// NearFull reports whether scratch allocation has reached 7/8 of the
// capacity hint — the graceful-degradation signal: extsort reacts by
// streaming its final merge (maximum fan-in, no materialized output run)
// instead of spending the scratch it may not have. Always false without a
// capacity hint.
func (d *Device) NearFull() bool {
	if d.capacity <= 0 {
		return false
	}
	return d.Allocated() >= d.capacity-d.capacity/8
}

// BlockSize returns the device block size in bytes.
func (d *Device) BlockSize() int { return d.blockSize }

// Stats returns the Stats this device charges I/Os to.
func (d *Device) Stats() *Stats { return d.stats }

// Frames returns the device's block-sized frame pool: the single source of
// block buffers for every component operating on this device.
func (d *Device) Frames() *FramePool { return d.frames }

// AllocBlock reserves a fresh block and returns its ID. Allocation is pure
// bookkeeping and costs no I/O; the block is materialized on first write.
func (d *Device) AllocBlock() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextBlock
	d.nextBlock++
	return id
}

// Allocated reports how many blocks have been allocated so far. It bounds
// the scratch-space footprint of a run.
func (d *Device) Allocated() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nextBlock
}

// ReadBlock fills p (which must be exactly one block long) with the contents
// of the given block, charging one read to category c.
func (d *Device) ReadBlock(c Category, id int64, p []byte) error {
	if len(p) != d.blockSize {
		return fmt.Errorf("em: ReadBlock buffer is %d bytes, want %d", len(p), d.blockSize)
	}
	if err := d.life.Interrupted(); err != nil {
		d.stats.AddCanceled(c, 1)
		return fmt.Errorf("em: read block %d refused: %w", id, err)
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if id < 0 || id >= d.nextBlock {
		d.mu.Unlock()
		return fmt.Errorf("em: ReadBlock of unallocated block %d", id)
	}
	backend := d.backend
	d.mu.Unlock()

	if _, err := readAtCat(backend, p, id*int64(d.blockSize), c); err != nil {
		return fmt.Errorf("em: read block %d: %w", id, err)
	}
	d.stats.AddReads(c, 1)
	return nil
}

// WriteBlock stores p (exactly one block) into the given block, charging one
// write to category c.
func (d *Device) WriteBlock(c Category, id int64, p []byte) error {
	if len(p) != d.blockSize {
		return fmt.Errorf("em: WriteBlock buffer is %d bytes, want %d", len(p), d.blockSize)
	}
	if err := d.life.Interrupted(); err != nil {
		d.stats.AddCanceled(c, 1)
		return fmt.Errorf("em: write block %d refused: %w", id, err)
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if id < 0 || id >= d.nextBlock {
		d.mu.Unlock()
		return fmt.Errorf("em: WriteBlock of unallocated block %d", id)
	}
	backend := d.backend
	d.mu.Unlock()

	if _, err := writeAtCat(backend, p, id*int64(d.blockSize), c); err != nil {
		if IsExhausted(err) {
			d.stats.AddExhausted(c, 1)
		}
		return fmt.Errorf("em: write block %d: %w", id, err)
	}
	d.stats.AddWrites(c, 1)
	return nil
}

// Close releases the backend. Further operations return ErrClosed.
func (d *Device) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	backend := d.backend
	d.mu.Unlock()
	return backend.Close()
}
