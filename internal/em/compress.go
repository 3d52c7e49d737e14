package em

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"nexsort/internal/sortkey"
)

// Compressed spill-block format. Each logical record of unit bytes handed
// to this layer is stored as a variable-length physical record inside a
// fixed slot of unit+spillHeaderLen bytes:
//
//	header (16) | encoded payload (compLen ≤ unit)
//
//	header: magic "NXSZ" (4, LE) | version (1) | codec (1) | reserved (2)
//	      | uncompressed length (4, LE) | compLen (4, LE)
//
// Only header+compLen bytes are transferred per slot — that gap between
// the slot stride and the bytes actually moved is the physical-byte win
// the Stats ledger's physical side measures. The encoder is deterministic:
// the same payload always yields the same record, so re-writes and retried
// writes are idempotent and the parallel-differential invariant extends to
// the physical byte counts.
//
// Codecs, tried in order and falling back when a step does not pay:
//
//	codecFront  — front-code the payload (below), then flate (BestSpeed)
//	codecFlate  — flate over the raw payload (front coding didn't shrink it)
//	codecStored — raw payload (flate output would not fit under unit bytes)
//
// Front coding segments the payload with the same uvarint-length framing
// the sorters' spill streams use (length prefix, then that many body
// bytes), then emits each segment as
//
//	uvarint(shared prefix with previous segment) | uvarint(suffix len) | suffix
//
// The segmentation does not have to be right about true record boundaries
// to be correct — it is a deterministic scan of the bytes, inverted
// exactly by frontDecode — so blocks that start mid-record (records
// straddle block boundaries) merely front-code less well, and the flate
// pass behind it still captures the cross-record redundancy. Where the
// scan does land on record boundaries, sorted runs of normalized keys
// (bytes.Compare order, PR 5) put near-identical neighbors side by side
// and the shared prefixes collapse. A parse that goes nowhere (bad
// varint, zero or oversized length, or a record running past the block)
// closes the block with one literal tail segment.
const (
	// spillHeaderLen is the per-slot header size in bytes.
	spillHeaderLen = 16
	// spillMagic marks a record written through the compression layer
	// ("NXSZ": NexSort Zip).
	spillMagic = 0x4e58535a
	// spillVersion is the on-scratch format version; decoders reject
	// anything else.
	spillVersion = 1

	codecStored = 0
	codecFlate  = 1
	codecFront  = 2

	// maxSpillSeg caps a parsed segment length; anything larger is treated
	// as an unparseable tail (matches the sorters' maxRecordLen).
	maxSpillSeg = 1 << 30
)

// putSpillHeader writes the 16-byte header for a record of compLen encoded
// payload bytes representing uncLen uncompressed bytes.
func putSpillHeader(dst []byte, codec byte, uncLen, compLen int) {
	binary.LittleEndian.PutUint32(dst[0:], spillMagic)
	dst[4] = spillVersion
	dst[5] = codec
	dst[6], dst[7] = 0, 0 // reserved
	binary.LittleEndian.PutUint32(dst[8:], uint32(uncLen))
	binary.LittleEndian.PutUint32(dst[12:], uint32(compLen))
}

// frontCode front-codes payload into dst, returning the encoded length.
// It reports false — and the caller falls back to raw flate — as soon as
// the encoding stops being strictly smaller than the payload, which also
// bounds the scratch it needs: dst only ever holds len(payload)-1 bytes.
func frontCode(dst, payload []byte) (int, bool) {
	budget := len(payload) - 1
	if budget > len(dst) {
		budget = len(dst)
	}
	out := 0
	var prev []byte
	pos := 0
	for pos < len(payload) {
		end := len(payload) // unparseable: one literal tail segment
		if n, w := binary.Uvarint(payload[pos:]); w > 0 && n > 0 && n <= maxSpillSeg && pos+w+int(n) <= len(payload) {
			end = pos + w + int(n)
		}
		seg := payload[pos:end]
		pos = end
		shared := sortkey.CommonPrefix(prev, seg)
		suffix := seg[shared:]
		if out+2*binary.MaxVarintLen32+len(suffix) > budget {
			return 0, false
		}
		out += binary.PutUvarint(dst[out:], uint64(shared))
		out += binary.PutUvarint(dst[out:], uint64(len(suffix)))
		out += copy(dst[out:], suffix)
		prev = seg
	}
	return out, true
}

// frontDecode reverses frontCode, reconstructing exactly len(out) bytes.
// Every bound is checked: arbitrary enc bytes yield an error, never a
// panic or out-of-range reconstruction.
func frontDecode(out, enc []byte) error {
	pos := 0
	prevStart, prevLen := 0, 0
	i := 0
	for i < len(enc) {
		shared64, w := binary.Uvarint(enc[i:])
		if w <= 0 {
			return fmt.Errorf("front coding: bad shared-prefix varint at byte %d", i)
		}
		i += w
		suf64, w := binary.Uvarint(enc[i:])
		if w <= 0 {
			return fmt.Errorf("front coding: bad suffix-length varint at byte %d", i)
		}
		i += w
		if shared64 > uint64(prevLen) {
			return fmt.Errorf("front coding: shared prefix %d exceeds previous segment length %d", shared64, prevLen)
		}
		if suf64 > uint64(len(enc)-i) {
			return fmt.Errorf("front coding: suffix length %d overruns input", suf64)
		}
		shared, suf := int(shared64), int(suf64)
		if pos+shared+suf > len(out) {
			return fmt.Errorf("front coding: decoded data overflows the %d-byte block", len(out))
		}
		copy(out[pos:], out[prevStart:prevStart+shared])
		copy(out[pos+shared:], enc[i:i+suf])
		i += suf
		prevStart, prevLen = pos, shared+suf
		pos += shared + suf
	}
	if pos != len(out) {
		return fmt.Errorf("front coding: decoded %d bytes, want %d", pos, len(out))
	}
	return nil
}

// capWriter is a fixed-capacity sink; a write past the end fails, which is
// how the encoder learns that flate output would not beat the stored form.
type capWriter struct {
	buf []byte
	n   int
}

var errSpillOverflow = fmt.Errorf("em: compressed output exceeds the block")

func (w *capWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > len(w.buf) {
		return 0, errSpillOverflow
	}
	copy(w.buf[w.n:], p)
	w.n += len(p)
	return len(p), nil
}

// spillDeflater bundles a reusable flate writer with its capped sink so
// the steady-state encode path allocates nothing.
type spillDeflater struct {
	cw capWriter
	zw *flate.Writer
}

var spillDeflaters = sync.Pool{New: func() any {
	d := &spillDeflater{}
	zw, err := flate.NewWriter(&d.cw, flate.BestSpeed)
	if err != nil {
		panic(err) // only reachable with an invalid level constant
	}
	d.zw = zw
	return d
}}

// deflateInto compresses src into dst, reporting false when the compressed
// form does not fit (the caller stores the payload raw instead).
func deflateInto(dst, src []byte) (int, bool) {
	d := spillDeflaters.Get().(*spillDeflater)
	defer spillDeflaters.Put(d)
	d.cw.buf, d.cw.n = dst, 0
	d.zw.Reset(&d.cw)
	_, werr := d.zw.Write(src)
	cerr := d.zw.Close()
	n, ok := d.cw.n, werr == nil && cerr == nil
	d.cw.buf = nil
	return n, ok
}

// spillInflater bundles a reusable flate reader with its source.
type spillInflater struct {
	br bytes.Reader
	fr io.ReadCloser
}

var spillInflaters = sync.Pool{New: func() any {
	i := &spillInflater{}
	i.fr = flate.NewReader(&i.br)
	return i
}}

// inflateInto decompresses src into dst, returning the decompressed length.
// A stream that would overflow dst is an error, not a truncation.
func inflateInto(dst, src []byte) (int, error) {
	i := spillInflaters.Get().(*spillInflater)
	defer spillInflaters.Put(i)
	i.br.Reset(src)
	if err := i.fr.(flate.Resetter).Reset(&i.br, nil); err != nil {
		return 0, err
	}
	n := 0
	for n < len(dst) {
		m, err := i.fr.Read(dst[n:])
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
	var one [1]byte
	for {
		m, err := i.fr.Read(one[:])
		if m > 0 {
			return n, fmt.Errorf("inflated data overflows the %d-byte block", len(dst))
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// encodeSpillBlock encodes payload into dst (len ≥ spillHeaderLen +
// len(payload)), using fc (len ≥ len(payload)) as front-coding scratch,
// and returns the physical record — a prefix of dst. The encoding is a
// pure function of payload.
func encodeSpillBlock(dst, fc, payload []byte) []byte {
	unit := len(payload)
	if unit == 0 {
		putSpillHeader(dst, codecStored, 0, 0)
		return dst[:spillHeaderLen]
	}
	codec := byte(codecFlate)
	src := payload
	if n, ok := frontCode(fc, payload); ok {
		codec, src = codecFront, fc[:n]
	}
	body := dst[spillHeaderLen:]
	n, ok := deflateInto(body[:unit-1], src)
	if !ok {
		codec, n = codecStored, copy(body[:unit], payload)
	}
	putSpillHeader(dst, codec, unit, n)
	return dst[:spillHeaderLen+n]
}

// decodeSpillBlock decodes the physical record rec into out (whose length
// is the layer's unit), using fc (len ≥ len(out)) as scratch for the
// front-coded intermediate. Any malformed input — wrong magic or version,
// inconsistent lengths, a broken flate stream, out-of-bounds front coding
// — returns an error; arbitrary bytes never panic.
func decodeSpillBlock(out, fc, rec []byte) error {
	if len(rec) < spillHeaderLen {
		return fmt.Errorf("record is %d bytes, shorter than the %d-byte header", len(rec), spillHeaderLen)
	}
	magic := binary.LittleEndian.Uint32(rec[0:])
	version := rec[4]
	codec := rec[5]
	reserved := binary.LittleEndian.Uint16(rec[6:])
	uncLen := binary.LittleEndian.Uint32(rec[8:])
	compLen := binary.LittleEndian.Uint32(rec[12:])
	switch {
	case magic != spillMagic:
		return fmt.Errorf("bad magic %08x, want %08x", magic, uint32(spillMagic))
	case version != spillVersion:
		return fmt.Errorf("unsupported spill format version %d (decoder speaks version %d)", version, spillVersion)
	case reserved != 0:
		return fmt.Errorf("nonzero reserved header field %04x", reserved)
	case uint64(uncLen) != uint64(len(out)):
		return fmt.Errorf("uncompressed length %d, want the %d-byte unit", uncLen, len(out))
	case uint64(compLen) != uint64(len(rec)-spillHeaderLen):
		return fmt.Errorf("header says %d payload bytes, record carries %d", compLen, len(rec)-spillHeaderLen)
	}
	body := rec[spillHeaderLen:]
	switch codec {
	case codecStored:
		if int(compLen) != len(out) {
			return fmt.Errorf("stored codec with %d payload bytes for a %d-byte unit", compLen, len(out))
		}
		copy(out, body)
		return nil
	case codecFlate:
		n, err := inflateInto(out, body)
		if err != nil {
			return fmt.Errorf("flate: %v", err)
		}
		if n != len(out) {
			return fmt.Errorf("flate stream inflated to %d bytes, want %d", n, len(out))
		}
		return nil
	case codecFront:
		n, err := inflateInto(fc[:len(out)], body)
		if err != nil {
			return fmt.Errorf("flate: %v", err)
		}
		return frontDecode(out, fc[:n])
	default:
		return fmt.Errorf("unknown codec %d", codec)
	}
}

// CompressedBackend wraps a Backend with the compressed spill format. Like
// ChecksumBackend it is record-granular: offsets must be unit-aligned and
// every access covers exactly one unit — the access pattern of the layer
// above (a Device directly, or a ChecksumBackend, whose physical records
// are this layer's unit). It stores each unit in a fixed slot of
// unit+spillHeaderLen bytes but transfers only the encoded bytes, so the
// logical I/O counts charged above it are untouched while the physical
// bytes counted below it shrink. Decode failures surface as
// *CorruptBlockError — the retry layer's RetryCorruptReads re-reads them,
// and chaos trials classify them — and are tallied with the checksum
// failures in stats: both counters mean "a spill verification layer
// rejected what the device returned".
type CompressedBackend struct {
	inner Backend
	unit  int
	stats *Stats

	// scratch recycles encode/decode buffers (unit+spillHeaderLen bytes:
	// a full physical record, also ample for the front-coded form, which
	// is by construction smaller than the payload). Like the checksum
	// layer's record buffers these live below the block abstraction and
	// outside the budget's M (DESIGN.md §7); the unwind invariant
	// FramesLive==0 is asserted over this pool too.
	scratch *FramePool

	// lens records the encoded payload length of every record ever
	// written through this layer. Scratch devices live and die with the
	// process, so the map is authoritative: reads use it to transfer
	// exactly the bytes that were stored, and — like the checksum layer's
	// written set — its presence distinguishes "never written, zeros are
	// correct" from a write whose record was then lost (torn to zeros).
	mu   sync.Mutex
	lens map[int64]int
}

// NewCompressedBackend layers the compressed spill format over inner for
// logical records of unit bytes, charging decode failures to stats (nil
// disables failure accounting, not verification).
func NewCompressedBackend(inner Backend, unit int, stats *Stats) *CompressedBackend {
	if unit <= 0 {
		panic("em: compressed backend needs a positive unit size")
	}
	return &CompressedBackend{
		inner:   inner,
		unit:    unit,
		stats:   stats,
		scratch: NewFramePool(unit + spillHeaderLen),
		lens:    make(map[int64]int),
	}
}

// slotOff maps a unit-aligned logical offset to the physical offset of its
// slot.
func (b *CompressedBackend) slotOff(off int64) int64 {
	return (off / int64(b.unit)) * int64(b.unit+spillHeaderLen)
}

func (b *CompressedBackend) checkAligned(p []byte, off int64) error {
	if len(p) != b.unit || off%int64(b.unit) != 0 {
		return fmt.Errorf("em: compressed backend requires single-unit aligned access (len=%d off=%d unit=%d)",
			len(p), off, b.unit)
	}
	return nil
}

// ReadAt implements io.ReaderAt under the scratch category.
func (b *CompressedBackend) ReadAt(p []byte, off int64) (int, error) {
	return b.ReadAtCat(p, off, CatScratch)
}

// WriteAt implements io.WriterAt under the scratch category.
func (b *CompressedBackend) WriteAt(p []byte, off int64) (int, error) {
	return b.WriteAtCat(p, off, CatScratch)
}

// ReadAtCat reads and decodes one unit, charging any decode failure to
// category c.
func (b *CompressedBackend) ReadAtCat(p []byte, off int64, c Category) (int, error) {
	if err := b.checkAligned(p, off); err != nil {
		return 0, err
	}
	idx := off / int64(b.unit)
	plen, written := b.storedLen(idx)
	if !written {
		// Never written through this layer: the sparse-zero state, served
		// without touching the device (there is nothing stored to read).
		for i := range p {
			p[i] = 0
		}
		return len(p), nil
	}
	recFrame := b.scratch.Acquire()
	defer b.scratch.Release(recFrame)
	fcFrame := b.scratch.Acquire()
	defer b.scratch.Release(fcFrame)

	rec := recFrame.Bytes()[:spillHeaderLen+plen]
	if _, err := readAtCat(b.inner, rec, b.slotOff(off), c); err != nil {
		return 0, err
	}
	if err := decodeSpillBlock(p, fcFrame.Bytes()[:b.unit], rec); err != nil {
		b.countFailure(c)
		return 0, &CorruptBlockError{Block: idx,
			Reason: fmt.Sprintf("compressed spill block: %v", err)}
	}
	return len(p), nil
}

// WriteAtCat encodes and writes one unit. The slot position depends only
// on the offset and the record only on the payload, so rewrites and
// retried writes land identically.
func (b *CompressedBackend) WriteAtCat(p []byte, off int64, c Category) (int, error) {
	if err := b.checkAligned(p, off); err != nil {
		return 0, err
	}
	recFrame := b.scratch.Acquire()
	defer b.scratch.Release(recFrame)
	fcFrame := b.scratch.Acquire()
	defer b.scratch.Release(fcFrame)

	rec := encodeSpillBlock(recFrame.Bytes(), fcFrame.Bytes()[:b.unit], p)
	b.setStoredLen(off/int64(b.unit), len(rec)-spillHeaderLen)
	if _, err := writeAtCat(b.inner, rec, b.slotOff(off), c); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (b *CompressedBackend) setStoredLen(idx int64, n int) {
	b.mu.Lock()
	b.lens[idx] = n
	b.mu.Unlock()
}

func (b *CompressedBackend) storedLen(idx int64) (int, bool) {
	b.mu.Lock()
	n, ok := b.lens[idx]
	b.mu.Unlock()
	return n, ok
}

// ScratchFramesLive reports how many codec scratch frames are pinned right
// now; any nonzero value after an unwind is a leak.
func (b *CompressedBackend) ScratchFramesLive() int { return b.scratch.Live() }

// Close closes the wrapped backend.
func (b *CompressedBackend) Close() error { return b.inner.Close() }

func (b *CompressedBackend) countFailure(c Category) {
	if b.stats != nil {
		b.stats.AddChecksumFailures(c, 1)
	}
}
