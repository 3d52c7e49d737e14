package em

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Stream is an append-only byte sequence stored in device blocks, the
// equivalent of a TPIE stream. Sorted runs and external-merge-sort runs are
// Streams. A Stream may be written once (through a single StreamWriter) and
// then read any number of times, from any byte offset.
//
// The per-stream extent table (the list of block IDs making up the stream)
// is kept in memory. This mirrors TPIE, where each stream is an OS file and
// the extent metadata lives in the filesystem rather than in the
// application's M blocks; it is bookkeeping of size O(N/B) words, not data.
type Stream struct {
	dev *Device
	cat Category

	mu     sync.Mutex
	blocks []int64
	size   int64 // bytes appended and flushed or pending in the writer
	sealed bool  // true once the writer has been closed

	// seg is the segmented-write state (PreallocateSegmented), nil on
	// ordinary append-only streams.
	seg *segStream
}

// NewStream creates an empty stream on dev whose I/Os are charged to
// category cat.
func NewStream(dev *Device, cat Category) *Stream {
	return &Stream{dev: dev, cat: cat}
}

// Category returns the accounting category the stream charges.
func (s *Stream) Category() Category { return s.cat }

// Size returns the number of bytes in the stream. While a writer is open the
// value includes only flushed whole blocks; after Close it is exact.
func (s *Stream) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Blocks returns the number of device blocks occupied by the stream.
func (s *Stream) Blocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

func (s *Stream) blockID(i int) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.blocks) {
		return 0, fmt.Errorf("em: stream block index %d out of range [0,%d)", i, len(s.blocks))
	}
	return s.blocks[i], nil
}

// StreamWriter appends bytes to a Stream through a single block-sized
// buffer. Construct with Stream.NewWriter; the buffer is granted from the
// supplied Budget and released on Close.
type StreamWriter struct {
	s      *Stream
	budget *Budget
	frame  Frame
	buf    []byte
	used   int
	closed bool
}

// NewWriter opens the stream for appending. One block of main memory is
// granted from budget for the write buffer (pass nil to skip budgeting, for
// tests). A stream accepts exactly one writer over its lifetime.
func (s *Stream) NewWriter(budget *Budget) (*StreamWriter, error) {
	s.mu.Lock()
	if s.sealed || len(s.blocks) > 0 {
		s.mu.Unlock()
		return nil, fmt.Errorf("em: stream already written")
	}
	s.mu.Unlock()
	if budget != nil {
		if err := budget.Grant(1); err != nil {
			return nil, err
		}
	}
	frame := s.dev.Frames().Acquire()
	return &StreamWriter{s: s, budget: budget, frame: frame, buf: frame.Bytes()}, nil
}

// flushBlock writes the writer's (full) buffer to a freshly allocated
// device block and appends the block to the extent table.
func (w *StreamWriter) flushBlock() error {
	s := w.s
	id := s.dev.AllocBlock()
	if err := s.dev.WriteBlock(s.cat, id, w.buf); err != nil {
		return err
	}
	s.mu.Lock()
	s.blocks = append(s.blocks, id)
	s.mu.Unlock()
	return nil
}

// Write appends p to the stream, flushing whole blocks to the device as the
// buffer fills. It implements io.Writer.
func (w *StreamWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("em: write to closed StreamWriter")
	}
	total := 0
	for len(p) > 0 {
		n := copy(w.buf[w.used:], p)
		w.used += n
		p = p[n:]
		total += n
		if w.used == len(w.buf) {
			if err := w.flushBlock(); err != nil {
				return total, err
			}
			w.s.mu.Lock()
			w.s.size += int64(w.s.dev.BlockSize())
			w.s.mu.Unlock()
			w.used = 0
		}
	}
	return total, nil
}

// Close flushes any partial final block (zero-padded on disk, excluded
// from Size), seals the stream for reading, and releases the buffer grant.
// A stream whose final flush failed is not sealed.
func (w *StreamWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	defer func() {
		w.s.dev.Frames().Release(w.frame)
		w.buf = nil
		if w.budget != nil {
			w.budget.Release(1)
		}
	}()
	if w.used > 0 {
		for i := w.used; i < len(w.buf); i++ {
			w.buf[i] = 0
		}
		used := w.used
		w.used = 0
		if err := w.flushBlock(); err != nil {
			return err
		}
		w.s.mu.Lock()
		w.s.size += int64(used)
		w.s.mu.Unlock()
	}
	w.s.mu.Lock()
	w.s.sealed = true
	w.s.mu.Unlock()
	return nil
}

// StreamReader reads a sealed Stream sequentially from a byte offset,
// holding one block of the stream in memory at a time. Re-opening a reader
// mid-stream re-reads the containing block, which is exactly the 1+p(b)
// block-access pattern accounted for in Lemma 4.12.
type StreamReader struct {
	s      *Stream
	cat    Category
	budget *Budget
	frame  Frame
	buf    []byte
	cur    int // index of the block currently in buf, -1 if none
	pos    int64
	limit  int64 // first byte past the readable range (stream size, or the range end)
	closed bool
}

// NewReader opens the stream for reading starting at byte offset off,
// charging reads to the stream's own category. One block of main memory is
// granted from budget (nil to skip budgeting).
func (s *Stream) NewReader(budget *Budget, off int64) (*StreamReader, error) {
	return s.NewReaderCat(budget, off, s.cat)
}

// NewReaderCat is NewReader with reads charged to an explicit category.
// NEXSORT writes sorted runs during the sorting phase (charged as subtree
// sorting, Lemma 4.9) but reads them back during the output phase (charged
// as run reads, Lemma 4.12), so the read category differs from the write
// category on the same stream.
func (s *Stream) NewReaderCat(budget *Budget, off int64, cat Category) (*StreamReader, error) {
	s.mu.Lock()
	sealed, size := s.sealed, s.size
	s.mu.Unlock()
	if !sealed {
		return nil, fmt.Errorf("em: stream not sealed for reading")
	}
	if off < 0 || off > size {
		return nil, fmt.Errorf("em: read offset %d out of range [0,%d]", off, size)
	}
	if budget != nil {
		if err := budget.Grant(1); err != nil {
			return nil, err
		}
	}
	frame := s.dev.Frames().Acquire()
	return &StreamReader{s: s, cat: cat, budget: budget, frame: frame, buf: frame.Bytes(), cur: -1, pos: off, limit: size}, nil
}

// NewRangeReader opens a reader over the byte range [off, end) of the
// stream, charging reads to the stream's own category. See
// NewRangeReaderCat.
func (s *Stream) NewRangeReader(budget *Budget, off, end int64) (*StreamReader, error) {
	return s.NewRangeReaderCat(budget, off, end, s.cat)
}

// NewRangeReaderCat opens a reader that serves exactly the byte range
// [off, end) of the sealed stream and then reports io.EOF, charging reads
// to category cat. This is the block-addressable re-open the partitioned
// merge uses to start mid-run at a fence boundary: the reader touches only
// the blocks overlapping the range.
func (s *Stream) NewRangeReaderCat(budget *Budget, off, end int64, cat Category) (*StreamReader, error) {
	s.mu.Lock()
	size := s.size
	s.mu.Unlock()
	if end < off || end > size {
		return nil, fmt.Errorf("em: read range [%d,%d) out of range [0,%d]", off, end, size)
	}
	r, err := s.NewReaderCat(budget, off, cat)
	if err != nil {
		return nil, err
	}
	r.limit = end
	return r, nil
}

// Offset returns the byte offset of the next read.
func (r *StreamReader) Offset() int64 { return r.pos }

// Window returns the unread bytes of the block holding the read position,
// entering (and charging) that block first if it is not resident
// (xmltok.WindowReader). It returns io.EOF at the end of the readable range.
func (r *StreamReader) Window() ([]byte, error) {
	if r.closed {
		return nil, fmt.Errorf("em: read from closed StreamReader")
	}
	if r.pos >= r.limit {
		return nil, io.EOF
	}
	bs := int64(len(r.buf))
	blk := int(r.pos / bs)
	if blk != r.cur {
		if err := r.enterBlock(blk); err != nil {
			return nil, err
		}
	}
	return r.buf[r.pos%bs : min64(bs, r.limit-int64(blk)*bs)], nil
}

// Advance consumes the first n bytes of the window.
func (r *StreamReader) Advance(n int) { r.pos += int64(n) }

// Read implements io.Reader, returning io.EOF at the end of the stream.
func (r *StreamReader) Read(p []byte) (int, error) {
	w, err := r.Window()
	if err != nil {
		return 0, err
	}
	n := copy(p, w)
	r.pos += int64(n)
	return n, nil
}

// enterBlock reads blk into the buffer and makes it the resident block.
func (r *StreamReader) enterBlock(blk int) error {
	id, err := r.s.blockID(blk)
	if err != nil {
		return err
	}
	if err := r.s.dev.ReadBlock(r.cat, id, r.buf); err != nil {
		return err
	}
	r.cur = blk
	return nil
}

// ReadByte implements io.ByteReader.
func (r *StreamReader) ReadByte() (byte, error) {
	w, err := r.Window()
	if err != nil {
		return 0, err
	}
	r.pos++
	return w[0], nil
}

// Close recycles the buffer frame and releases its grant.
func (r *StreamReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.s.dev.Frames().Release(r.frame)
	r.buf = nil
	if r.budget != nil {
		r.budget.Release(1)
	}
	return nil
}

// segStream is the shared bookkeeping behind segmented writing
// (PreallocateSegmented): how many SegmentWriters are open, and the
// partial-block fragments they left at segment boundaries for
// FinishSegmented to stitch.
type segStream struct {
	mu    sync.Mutex
	open  int
	short bool // a writer closed before reaching its segment end
	frags map[int][]segFrag
}

// segFrag is one partial coverage of a boundary block: the raw bytes a
// segment contributed at absolute stream offset off.
type segFrag struct {
	off int64
	b   []byte
}

// PreallocateSegmented prepares an empty stream for segmented writing: the
// full extent table for total bytes is allocated up front, so independent
// SegmentWriters can fill disjoint byte ranges concurrently — the
// partitioned merge writes one output segment per partition this way. The
// block count (and therefore the write count: every block is written
// exactly once, interior blocks by their segment's writer and boundary
// blocks by FinishSegmented) is ceil(total/B), identical to an append-only
// writer producing the same bytes. The stream becomes readable only after
// FinishSegmented seals it.
func (s *Stream) PreallocateSegmented(total int64) error {
	if total < 0 {
		return fmt.Errorf("em: negative segmented stream size %d", total)
	}
	// dev is write-once at construction, so block allocation happens outside
	// the critical section; only the stream bookkeeping commits under mu.
	bs := int64(s.dev.BlockSize())
	n := int((total + bs - 1) / bs)
	blocks := make([]int64, n)
	for i := range blocks {
		blocks[i] = s.dev.AllocBlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed || len(s.blocks) > 0 || s.seg != nil {
		return fmt.Errorf("em: stream already written")
	}
	s.blocks = blocks
	s.size = total
	s.seg = &segStream{frags: make(map[int][]segFrag)}
	return nil
}

// SegmentWriter fills the byte range [off, end) of a preallocated stream
// through a single block-sized buffer. Blocks the segment covers entirely
// are written directly (and concurrently with other segments' writers);
// the partial head/tail coverage of blocks shared with a neighboring
// segment is retained as fragments that FinishSegmented assembles and
// writes once. Construct with Stream.NewSegmentWriter.
type SegmentWriter struct {
	s        *Stream
	seg      *segStream
	budget   *Budget
	frame    Frame
	buf      []byte
	off, end int64
	pos      int64
	covStart int64 // start of the not-yet-flushed coverage of the current block
	closed   bool
}

// NewSegmentWriter opens a writer for the byte range [off, end) of a
// stream prepared with PreallocateSegmented. One block of main memory is
// granted from budget for the buffer (nil to skip budgeting). Segment
// ranges must not overlap; each writer must write exactly end-off bytes
// before Close.
func (s *Stream) NewSegmentWriter(budget *Budget, off, end int64) (*SegmentWriter, error) {
	s.mu.Lock()
	seg, size, sealed := s.seg, s.size, s.sealed
	s.mu.Unlock()
	if seg == nil || sealed {
		return nil, fmt.Errorf("em: stream not preallocated for segment writing")
	}
	if off < 0 || off > end || end > size {
		return nil, fmt.Errorf("em: segment range [%d,%d) out of range [0,%d]", off, end, size)
	}
	if budget != nil {
		if err := budget.Grant(1); err != nil {
			return nil, err
		}
	}
	seg.mu.Lock()
	seg.open++
	seg.mu.Unlock()
	frame := s.dev.Frames().Acquire()
	return &SegmentWriter{s: s, seg: seg, budget: budget, frame: frame, buf: frame.Bytes(), off: off, end: end, pos: off, covStart: off}, nil
}

// Write appends p to the segment. It implements io.Writer and fails on any
// write that would run past the segment end.
func (w *SegmentWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("em: write to closed SegmentWriter")
	}
	if int64(len(p)) > w.end-w.pos {
		return 0, fmt.Errorf("em: segment write of %d bytes overflows range [%d,%d) at %d", len(p), w.off, w.end, w.pos)
	}
	bs := int64(len(w.buf))
	total := 0
	for len(p) > 0 {
		blkEnd := (w.pos/bs + 1) * bs
		room := min64(blkEnd, w.end) - w.pos
		inBlk := int(w.pos % bs)
		n := copy(w.buf[inBlk:inBlk+int(room)], p)
		w.pos += int64(n)
		p = p[n:]
		total += n
		if w.pos == blkEnd {
			if err := w.flushCovered(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// flushCovered ships the coverage [covStart, pos) of the block the writer
// just finished: a full block goes straight to the device; a partial one
// (the segment's head or tail sharing a block with a neighbor) is retained
// as a fragment for FinishSegmented.
func (w *SegmentWriter) flushCovered() error {
	bs := int64(len(w.buf))
	blk := (w.pos - 1) / bs
	bStart := blk * bs
	if w.covStart == bStart && w.pos == bStart+bs {
		id, err := w.s.blockID(int(blk))
		if err != nil {
			return err
		}
		if err := w.s.dev.WriteBlock(w.s.cat, id, w.buf); err != nil {
			return err
		}
	} else {
		w.retainFrag()
	}
	w.covStart = w.pos
	return nil
}

// retainFrag copies the pending partial coverage of the current block into
// the stream's fragment table.
func (w *SegmentWriter) retainFrag() {
	bs := int64(len(w.buf))
	blk := int((w.pos - 1) / bs)
	bStart := int64(blk) * bs
	frag := segFrag{off: w.covStart, b: append([]byte(nil), w.buf[w.covStart-bStart:w.pos-bStart]...)}
	seg := w.seg
	seg.mu.Lock()
	seg.frags[blk] = append(seg.frags[blk], frag)
	seg.mu.Unlock()
}

// Close retains any pending partial coverage, releases the buffer frame
// and grant, and reports an error if the segment was not filled exactly to
// its end (which also poisons FinishSegmented, so a short segment can
// never seal into a readable stream).
func (w *SegmentWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.pos > w.covStart {
		w.retainFrag()
	}
	w.s.dev.Frames().Release(w.frame)
	w.buf = nil
	if w.budget != nil {
		w.budget.Release(1)
	}
	seg := w.seg
	seg.mu.Lock()
	seg.open--
	if w.pos != w.end {
		seg.short = true
	}
	seg.mu.Unlock()
	if w.pos != w.end {
		return fmt.Errorf("em: segment writer closed at %d of range [%d,%d)", w.pos, w.off, w.end)
	}
	return nil
}

// FinishSegmented assembles the boundary blocks shared between segments —
// each from its segments' retained fragments, verified to cover the block
// exactly, written exactly once — and seals the stream for reading. Every
// SegmentWriter must have been closed, and closed complete.
func (s *Stream) FinishSegmented() error {
	s.mu.Lock()
	seg, size, sealed := s.seg, s.size, s.sealed
	s.mu.Unlock()
	if seg == nil || sealed {
		return fmt.Errorf("em: stream not preallocated for segment writing")
	}
	seg.mu.Lock()
	open, short := seg.open, seg.short
	frags := seg.frags
	seg.mu.Unlock()
	if open != 0 {
		return fmt.Errorf("em: FinishSegmented with %d segment writers still open", open)
	}
	if short {
		return fmt.Errorf("em: FinishSegmented after an incomplete segment")
	}
	// Deterministic order: sort the boundary-block indexes rather than
	// ranging over the map.
	blks := make([]int, 0, len(frags))
	for blk := range frags {
		blks = append(blks, blk)
	}
	sort.Ints(blks)
	bs := int64(s.dev.BlockSize())
	if len(blks) > 0 {
		frame := s.dev.Frames().Acquire()
		defer s.dev.Frames().Release(frame)
		buf := frame.Bytes()
		for _, blk := range blks {
			bStart := int64(blk) * bs
			blkEnd := min64(size, bStart+bs)
			fs := frags[blk]
			sort.Slice(fs, func(i, j int) bool { return fs[i].off < fs[j].off })
			for i := range buf {
				buf[i] = 0
			}
			at := bStart
			for _, f := range fs {
				if f.off != at {
					return fmt.Errorf("em: segment coverage gap [%d,%d) in block %d", at, f.off, blk)
				}
				copy(buf[f.off-bStart:], f.b)
				at = f.off + int64(len(f.b))
			}
			if at != blkEnd {
				return fmt.Errorf("em: segment coverage gap [%d,%d) in block %d", at, blkEnd, blk)
			}
			id, err := s.blockID(blk)
			if err != nil {
				return err
			}
			if err := s.dev.WriteBlock(s.cat, id, buf); err != nil {
				return err
			}
		}
	}
	s.mu.Lock()
	s.sealed = true
	s.mu.Unlock()
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
