package em

import (
	"fmt"
	"io"
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
	size   int64 // the stream's size when the reader was opened
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
	return &StreamReader{s: s, cat: cat, budget: budget, frame: frame, buf: frame.Bytes(), cur: -1, pos: off, size: size}, nil
}

// Offset returns the byte offset of the next read.
func (r *StreamReader) Offset() int64 { return r.pos }

// Window returns the unread bytes of the block holding the read position,
// entering (and charging) that block first if it is not resident
// (xmltok.WindowReader). It returns io.EOF at the end of the stream.
func (r *StreamReader) Window() ([]byte, error) {
	if r.closed {
		return nil, fmt.Errorf("em: read from closed StreamReader")
	}
	if r.pos >= r.size {
		return nil, io.EOF
	}
	bs := int64(len(r.buf))
	blk := int(r.pos / bs)
	if blk != r.cur {
		if err := r.enterBlock(blk); err != nil {
			return nil, err
		}
	}
	return r.buf[r.pos%bs : min(bs, r.size-int64(blk)*bs)], nil
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
