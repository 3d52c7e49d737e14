package em

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// Checksummed block format. Each logical device block of blockSize bytes is
// stored as a physical record of blockSize+checksumTrailerLen bytes:
//
//	payload (blockSize) | crc32c(payload, generation) (4) | magic "NXSC" (4)
//
// The trailer is written in the same WriteAt as the payload, so a torn
// write leaves the magic missing (or the CRC stale) and the block fails
// verification on its next read instead of reading back as plausible
// garbage. The CRC also covers the block's write generation — how many
// writes were issued to it — which the layer keeps in memory. A rewrite
// that lands none of its new bytes, as when a torn write keeps only a
// prefix the old and new contents share, leaves the previous record
// intact, trailer and all; the generation makes that lost write fail
// verification instead of serving the previous contents. A block that was never written reads back as all zeros from the
// sparse backend below; an all-zero record (zero payload, zero trailer) is
// therefore the "unwritten" state and decodes to a zero block, preserving
// the Backend contract.
const (
	// checksumTrailerLen is the per-block storage overhead in bytes.
	checksumTrailerLen = 8
	// checksumMagic marks a block as having been written through the
	// checksum layer ("NXSC": NexSort Checksum).
	checksumMagic = 0x4e585343
)

// castagnoli is the CRC-32C table (the polynomial used by iSCSI, ext4 and
// most storage checksums; hardware-accelerated by hash/crc32).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumBackend wraps a Backend with per-block CRC-32C verification. It
// is block-granular: offsets must be block-aligned and every read or write
// must cover exactly one logical block, which is the only access pattern a
// Device generates. Verification failures surface as *CorruptBlockError
// (matched by errors.Is(err, ErrCorruptBlock)) and are counted per
// category in stats.
type ChecksumBackend struct {
	inner     Backend
	blockSize int
	stats     *Stats

	// scratch recycles physical-record buffers (blockSize+trailer). The
	// records are wider than a logical block, so this layer keeps its own
	// FramePool rather than borrowing the device's; like the backend's
	// extent tables, the handful of concurrently live records sit below
	// the block abstraction and outside the budget's M (DESIGN.md §7).
	scratch *FramePool

	// written counts the writes attempted on each logical block: the
	// generation its newest record must carry. Scratch devices live and
	// die with the process, so this in-memory table is authoritative; it
	// lets a read distinguish "never written, zeros are correct" from "a
	// write was issued here but nothing (or only a zero prefix) landed" —
	// the torn write that would otherwise read back as plausible zeros —
	// and a record from the current write from one left by an earlier.
	mu      sync.Mutex
	written map[int64]uint32
}

// NewChecksumBackend layers checksum verification over inner for logical
// blocks of blockSize bytes, charging checksum failures to stats (nil
// disables failure accounting, not verification).
func NewChecksumBackend(inner Backend, blockSize int, stats *Stats) *ChecksumBackend {
	if blockSize <= 0 {
		panic("em: checksum backend needs a positive block size")
	}
	return &ChecksumBackend{
		inner:     inner,
		blockSize: blockSize,
		stats:     stats,
		scratch:   NewFramePool(blockSize + checksumTrailerLen),
		written:   make(map[int64]uint32),
	}
}

// physOff maps a logical block-aligned offset to the physical offset of
// its checksummed record.
func (b *ChecksumBackend) physOff(off int64) int64 {
	return (off / int64(b.blockSize)) * int64(b.blockSize+checksumTrailerLen)
}

func (b *ChecksumBackend) checkAligned(p []byte, off int64) error {
	if len(p) != b.blockSize || off%int64(b.blockSize) != 0 {
		return fmt.Errorf("em: checksum backend requires single-block aligned access (len=%d off=%d blockSize=%d)",
			len(p), off, b.blockSize)
	}
	return nil
}

// ReadAt implements io.ReaderAt with verification, charging failures to
// the scratch category.
func (b *ChecksumBackend) ReadAt(p []byte, off int64) (int, error) {
	return b.ReadAtCat(p, off, CatScratch)
}

// WriteAt implements io.WriterAt, checksumming under the scratch category.
func (b *ChecksumBackend) WriteAt(p []byte, off int64) (int, error) {
	return b.WriteAtCat(p, off, CatScratch)
}

// ReadAtCat reads and verifies one logical block, charging any checksum
// failure to category c.
func (b *ChecksumBackend) ReadAtCat(p []byte, off int64, c Category) (int, error) {
	if err := b.checkAligned(p, off); err != nil {
		return 0, err
	}
	frame := b.scratch.Acquire()
	defer b.scratch.Release(frame)
	buf := frame.Bytes()

	if _, err := readAtCat(b.inner, buf, b.physOff(off), c); err != nil {
		return 0, err
	}
	payload := buf[:b.blockSize]
	crc := binary.LittleEndian.Uint32(buf[b.blockSize:])
	magic := binary.LittleEndian.Uint32(buf[b.blockSize+4:])

	block := off / int64(b.blockSize)
	gen := b.generation(block)
	switch {
	case magic == checksumMagic:
		if got := blockCRC(payload, gen); got != crc {
			b.countFailure(c)
			return 0, &CorruptBlockError{Block: block,
				Reason: fmt.Sprintf("crc32c mismatch: stored %08x, computed %08x", crc, got)}
		}
		copy(p, payload)
		return len(p), nil
	case magic == 0 && crc == 0 && allZero(payload):
		if gen > 0 {
			// A write was issued here but no checksummed record landed:
			// a torn write whose surviving prefix happens to be zeros.
			b.countFailure(c)
			return 0, &CorruptBlockError{Block: block,
				Reason: "torn write: block was written but reads back as zeros"}
		}
		// Never written through this layer: the sparse-zero state.
		for i := range p {
			p[i] = 0
		}
		return len(p), nil
	default:
		// Payload bytes present but the trailer is missing or mangled:
		// the signature of a torn write.
		b.countFailure(c)
		return 0, &CorruptBlockError{Block: block,
			Reason: fmt.Sprintf("torn write: payload present but trailer magic is %08x", magic)}
	}
}

// WriteAtCat writes one logical block with its checksum trailer in a
// single backend write.
func (b *ChecksumBackend) WriteAtCat(p []byte, off int64, c Category) (int, error) {
	if err := b.checkAligned(p, off); err != nil {
		return 0, err
	}
	frame := b.scratch.Acquire()
	defer b.scratch.Release(frame)
	buf := frame.Bytes()

	copy(buf, p)
	gen := b.markWritten(off / int64(b.blockSize))
	binary.LittleEndian.PutUint32(buf[b.blockSize:], blockCRC(p, gen))
	binary.LittleEndian.PutUint32(buf[b.blockSize+4:], checksumMagic)
	if _, err := writeAtCat(b.inner, buf, b.physOff(off), c); err != nil {
		return 0, err
	}
	return len(p), nil
}

// markWritten records a write attempt on block and returns its generation.
func (b *ChecksumBackend) markWritten(block int64) uint32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.written[block]++
	return b.written[block]
}

// generation returns the number of writes attempted on block, 0 if none.
func (b *ChecksumBackend) generation(block int64) uint32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.written[block]
}

// blockCRC is the trailer's CRC-32C over the payload and the generation.
func blockCRC(payload []byte, gen uint32) uint32 {
	var g [4]byte
	binary.LittleEndian.PutUint32(g[:], gen)
	return crc32.Update(crc32.Checksum(payload, castagnoli), castagnoli, g[:])
}

// Close closes the wrapped backend.
func (b *ChecksumBackend) Close() error { return b.inner.Close() }

func (b *ChecksumBackend) countFailure(c Category) {
	if b.stats != nil {
		b.stats.AddChecksumFailures(c, 1)
	}
}

func allZero(p []byte) bool {
	for _, v := range p {
		if v != 0 {
			return false
		}
	}
	return true
}
