package em

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
)

// Backend is the raw byte store underneath a Device. Implementations must
// support sparse positional access: reading a range that was never written
// returns zero bytes, as a POSIX file would.
type Backend interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
}

// CategoryAwareBackend is the optional extension hardened backends
// implement: the Device passes the I/O's accounting category down so
// wrapper layers (retry, checksum) can charge their retry and
// checksum-failure counters to the same per-category breakdown as the
// block transfers themselves.
type CategoryAwareBackend interface {
	Backend
	ReadAtCat(p []byte, off int64, c Category) (int, error)
	WriteAtCat(p []byte, off int64, c Category) (int, error)
}

// readAtCat dispatches a read through the category-aware path when the
// backend supports it.
func readAtCat(b Backend, p []byte, off int64, c Category) (int, error) {
	if cb, ok := b.(CategoryAwareBackend); ok {
		return cb.ReadAtCat(p, off, c)
	}
	return b.ReadAt(p, off)
}

// writeAtCat dispatches a write through the category-aware path when the
// backend supports it.
func writeAtCat(b Backend, p []byte, off int64, c Category) (int, error) {
	if cb, ok := b.(CategoryAwareBackend); ok {
		return cb.WriteAtCat(p, off, c)
	}
	return b.WriteAt(p, off)
}

// FileBackend is a Backend over an operating-system file. It is the
// production backend: spill data (runs, paged-out stack blocks) really does
// leave main memory.
type FileBackend struct {
	f *os.File
}

// NewFileBackend creates the named file exclusively and returns a backend
// over it. The exclusive create (O_EXCL) makes collisions on a shared
// scratch directory a hard error instead of a silent clobber: scratch
// files are created fresh and removed on Close, so an existing file at the
// path always means another live process (or a crashed one's leftovers) —
// never data this process should overwrite.
func NewFileBackend(path string) (*FileBackend, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("em: open backend file: %w", err)
	}
	return &FileBackend{f: f}, nil
}

// ReadAt implements io.ReaderAt. Reads past the current end of file are
// zero-filled so that freshly allocated blocks read back as zeros. Partial
// reads are retried in place until the buffer fills or a real error
// surfaces; io.ErrUnexpectedEOF (a short read that still hit end of file)
// gets the same zero-fill treatment as a clean io.EOF.
func (b *FileBackend) ReadAt(p []byte, off int64) (int, error) {
	n := 0
	for n < len(p) {
		m, err := b.f.ReadAt(p[n:], off+int64(n))
		n += m
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			clear(p[n:])
			return len(p), nil
		case err != nil:
			return n, err
		case m == 0:
			return n, io.ErrNoProgress
		}
	}
	return n, nil
}

// WriteAt implements io.WriterAt. A filesystem out-of-space failure is
// wrapped as *ExhaustedError so it joins the typed failure model
// (errors.Is(err, ErrScratchExhausted), ClassExhausted) instead of
// surfacing as an anonymous permanent error.
func (b *FileBackend) WriteAt(p []byte, off int64) (int, error) {
	n, err := b.f.WriteAt(p, off)
	if err != nil && errors.Is(err, syscall.ENOSPC) {
		err = &ExhaustedError{Requested: off + int64(len(p)), Err: err}
	}
	return n, err
}

// Close closes and removes the underlying file. Spill data is scratch by
// definition, so nothing of value is lost.
func (b *FileBackend) Close() error {
	name := b.f.Name()
	err := b.f.Close()
	if rmErr := os.Remove(name); err == nil {
		err = rmErr
	}
	return err
}

// MemBackend is an in-memory Backend used by tests and small examples. It
// grows on demand and zero-fills unwritten regions.
type MemBackend struct {
	mu  sync.Mutex
	buf []byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend { return &MemBackend{} }

// ReadAt implements io.ReaderAt with zero-fill past the written extent.
func (b *MemBackend) ReadAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range p {
		p[i] = 0
	}
	if off < int64(len(b.buf)) {
		copy(p, b.buf[off:])
	}
	return len(p), nil
}

// WriteAt implements io.WriterAt, growing the buffer geometrically so that
// sequential block appends stay amortized O(1) per byte.
func (b *MemBackend) WriteAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(b.buf)) {
		if end <= int64(cap(b.buf)) {
			b.buf = b.buf[:end]
		} else {
			newCap := int64(cap(b.buf)) * 2
			if newCap < end {
				newCap = end
			}
			grown := make([]byte, end, newCap)
			copy(grown, b.buf)
			b.buf = grown
		}
	}
	copy(b.buf[off:], p)
	return len(p), nil
}

// Close implements io.Closer.
func (b *MemBackend) Close() error { return nil }

// Len reports the number of bytes ever written (the high-water extent).
func (b *MemBackend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.buf)
}

// FaultBackend wraps a Backend and injects errors for testing error paths.
// Faults fire on the k-th read or write (1-based) after arming, then the
// backend behaves normally again unless re-armed.
type FaultBackend struct {
	Inner Backend

	mu         sync.Mutex
	readsLeft  int64 // fire on read when this hits zero; <0 means disarmed
	writesLeft int64
	readErr    error
	writeErr   error
	reads      int64
	writes     int64
}

// NewFaultBackend wraps inner with fault injection disarmed.
func NewFaultBackend(inner Backend) *FaultBackend {
	return &FaultBackend{Inner: inner, readsLeft: -1, writesLeft: -1}
}

// FailReadAfter arms the backend to return err on the n-th subsequent read.
func (b *FaultBackend) FailReadAfter(n int64, err error) {
	b.mu.Lock()
	b.readsLeft, b.readErr = n, err
	b.mu.Unlock()
}

// FailWriteAfter arms the backend to return err on the n-th subsequent write.
func (b *FaultBackend) FailWriteAfter(n int64, err error) {
	b.mu.Lock()
	b.writesLeft, b.writeErr = n, err
	b.mu.Unlock()
}

// ReadAt implements io.ReaderAt, possibly returning an injected error.
func (b *FaultBackend) ReadAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	b.reads++
	fire := false
	if b.readsLeft > 0 {
		b.readsLeft--
		fire = b.readsLeft == 0
	}
	err := b.readErr
	b.mu.Unlock()
	if fire {
		return 0, err
	}
	return b.Inner.ReadAt(p, off)
}

// WriteAt implements io.WriterAt, possibly returning an injected error.
func (b *FaultBackend) WriteAt(p []byte, off int64) (int, error) {
	b.mu.Lock()
	b.writes++
	fire := false
	if b.writesLeft > 0 {
		b.writesLeft--
		fire = b.writesLeft == 0
	}
	err := b.writeErr
	b.mu.Unlock()
	if fire {
		return 0, err
	}
	return b.Inner.WriteAt(p, off)
}

// Close closes the wrapped backend.
func (b *FaultBackend) Close() error { return b.Inner.Close() }
