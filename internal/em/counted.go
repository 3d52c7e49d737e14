package em

import (
	"fmt"
	"io"
)

// CountingReader wraps an io.Reader (typically the input XML file) and
// charges one block read to a Stats category per blockSize bytes consumed,
// so the initial scan of the input shows up in the I/O accounting just as it
// does in the paper's model. Buffering is a single frame from the device's
// pool, consistent with a sequential one-block-at-a-time scan; Close
// recycles it, so a reader's buffer participates in the frame accounting
// like every other block buffer.
type CountingReader struct {
	r     io.Reader
	dev   *Device
	stats *Stats
	cat   Category

	frame      Frame
	buf        []byte
	start, end int   // unconsumed window of buf
	err        error // sticky error from the underlying reader

	residual int // bytes consumed since the last charged block
	total    int64
	closed   bool
}

// NewCountingReader wraps r, buffering through one frame of dev and
// charging reads to dev's stats under cat at block granularity. Call Close
// when the scan is done to recycle the frame.
func NewCountingReader(r io.Reader, dev *Device, cat Category) *CountingReader {
	frame := dev.Frames().Acquire()
	return &CountingReader{
		r:     r,
		dev:   dev,
		stats: dev.Stats(),
		cat:   cat,
		frame: frame,
		buf:   frame.Bytes(),
	}
}

func (c *CountingReader) charge(n int) {
	c.total += int64(n)
	c.residual += n
	for c.residual >= len(c.buf) {
		c.stats.AddReads(c.cat, 1)
		c.residual -= len(c.buf)
	}
}

// fill refreshes the buffer window from the underlying reader. On return
// either the window is non-empty or the sticky error is set. The run's
// lifecycle is polled per refill: the input scan is the one long phase
// with no block traffic of its own, so without this check a cancellation
// landing mid-scan would not be observed until the first spill.
func (c *CountingReader) fill() error {
	if c.start < c.end {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	if err := c.dev.Interrupted(); err != nil {
		c.err = err
		return err
	}
	for range [100]struct{}{} {
		n, err := c.r.Read(c.buf)
		if n > 0 {
			c.start, c.end = 0, n
			c.err = err // delivered with the last buffered bytes
			return nil
		}
		if err != nil {
			c.err = err
			return err
		}
	}
	c.err = io.ErrNoProgress
	return c.err
}

// Window returns the unconsumed bytes of the buffer, refilling it from the
// underlying reader when it is empty (xmltok.WindowReader). The bytes are
// charged when Advance consumes them.
func (c *CountingReader) Window() ([]byte, error) {
	if c.closed {
		return nil, fmt.Errorf("em: read from closed CountingReader")
	}
	if err := c.fill(); err != nil {
		return nil, err
	}
	return c.buf[c.start:c.end], nil
}

// Advance consumes and charges the first n bytes of the window.
func (c *CountingReader) Advance(n int) {
	c.start += n
	c.charge(n)
}

// Read implements io.Reader.
func (c *CountingReader) Read(p []byte) (int, error) {
	if len(p) == 0 && !c.closed {
		return 0, nil
	}
	w, err := c.Window()
	if err != nil {
		return 0, err
	}
	n := copy(p, w)
	c.Advance(n)
	return n, nil
}

// ReadByte implements io.ByteReader.
func (c *CountingReader) ReadByte() (byte, error) {
	w, err := c.Window()
	if err != nil {
		return 0, err
	}
	c.Advance(1)
	return w[0], nil
}

// Finish charges the final partial block, if any. Call once at end of scan.
func (c *CountingReader) Finish() {
	if c.residual > 0 {
		c.stats.AddReads(c.cat, 1)
		c.residual = 0
	}
}

// BytesRead returns the total bytes consumed so far.
func (c *CountingReader) BytesRead() int64 { return c.total }

// Close recycles the buffer frame. Idempotent; further reads fail.
func (c *CountingReader) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.dev.Frames().Release(c.frame)
	c.buf = nil
	c.start, c.end = 0, 0
	return nil
}

// CountingWriter wraps an io.Writer (typically the output document file) and
// charges one block write per blockSize bytes produced, buffering through
// one frame of the device's pool. Call Flush when the document is complete
// and Close to recycle the frame.
type CountingWriter struct {
	w     io.Writer
	dev   *Device
	stats *Stats
	cat   Category

	frame Frame
	buf   []byte
	used  int

	residual int
	total    int64
	closed   bool
}

// NewCountingWriter wraps w, buffering through one frame of dev and
// charging writes to dev's stats under cat at block granularity.
func NewCountingWriter(w io.Writer, dev *Device, cat Category) *CountingWriter {
	frame := dev.Frames().Acquire()
	return &CountingWriter{
		w:     w,
		dev:   dev,
		stats: dev.Stats(),
		cat:   cat,
		frame: frame,
		buf:   frame.Bytes(),
	}
}

func (c *CountingWriter) charge(n int) {
	c.total += int64(n)
	c.residual += n
	for c.residual >= len(c.buf) {
		c.stats.AddWrites(c.cat, 1)
		c.residual -= len(c.buf)
	}
}

// flushBuf drains the buffered bytes to the underlying writer, polling
// the run's lifecycle first — the output phase writes here block by
// block, so cancellation cuts the document off at a block boundary.
func (c *CountingWriter) flushBuf() error {
	if c.used == 0 {
		return nil
	}
	if err := c.dev.Interrupted(); err != nil {
		return err
	}
	n, err := c.w.Write(c.buf[:c.used])
	if err == nil && n < c.used {
		err = io.ErrShortWrite
	}
	c.used = 0
	return err
}

// Write implements io.Writer.
func (c *CountingWriter) Write(p []byte) (int, error) {
	if c.closed {
		return 0, fmt.Errorf("em: write to closed CountingWriter")
	}
	total := 0
	for len(p) > 0 {
		if c.used == 0 && len(p) >= len(c.buf) {
			// A full block (or more) with nothing buffered: hand the
			// leading whole blocks straight to the writer, no copy.
			whole := len(p) - len(p)%len(c.buf)
			n, err := c.w.Write(p[:whole])
			c.charge(n)
			total += n
			if err != nil {
				return total, err
			}
			p = p[whole:]
			continue
		}
		n := copy(c.buf[c.used:], p)
		c.used += n
		c.charge(n)
		total += n
		p = p[n:]
		if c.used == len(c.buf) {
			if err := c.flushBuf(); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// Flush drains buffered bytes to the underlying writer and charges the final
// partial block, if any. Call once when the document is complete.
func (c *CountingWriter) Flush() error {
	if c.closed {
		return fmt.Errorf("em: flush of closed CountingWriter")
	}
	if c.residual > 0 {
		c.stats.AddWrites(c.cat, 1)
		c.residual = 0
	}
	return c.flushBuf()
}

// BytesWritten returns the total bytes produced so far.
func (c *CountingWriter) BytesWritten() int64 { return c.total }

// Close recycles the buffer frame without flushing (call Flush first on the
// success path; on error paths the partial tail is deliberately dropped).
// Idempotent; further writes fail.
func (c *CountingWriter) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.dev.Frames().Release(c.frame)
	c.buf = nil
	c.used = 0
	return nil
}
