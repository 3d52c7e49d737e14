package xmltok

import (
	"bufio"
	"io"
)

// WindowReader is a byte source that serves its input a resident block at
// a time, so that the tokenizer and the binary decoder can scan inside the
// block instead of copying bytes out one call at a time. Both block
// readers that feed a token stream implement it: the input scan's
// em.CountingReader, and em.BlockReader, which reads sorted runs and the
// data stack's ranges. The parser reads any other io.Reader through a
// bufio.Reader's buffer, and the binary decoder any other io.ByteReader as
// one-byte windows.
//
// Window returns the unconsumed bytes of the resident block, refilling the
// block first if none are left. It returns a non-empty slice and a nil
// error, or an empty slice and the error that ended the stream (io.EOF at
// its end). The slice must not be modified, and it is valid only until the
// next call to Window or Advance.
//
// Advance consumes the first n bytes of the current window, 0 <= n <=
// len(window). A source that accounts for the bytes it serves charges them
// here, so a scanner that advances at every token boundary keeps the
// source's position and counters exact at those boundaries.
type WindowReader interface {
	Window() ([]byte, error)
	Advance(n int)
}

// bufWindow serves a bufio.Reader's buffer as the window.
type bufWindow struct{ r *bufio.Reader }

// windowOf returns r as a WindowReader, adapting any other reader through a
// bufio.Reader (r itself when it already is one).
func windowOf(r io.Reader) WindowReader {
	if w, ok := r.(WindowReader); ok {
		return w
	}
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return bufWindow{br}
}

func (b bufWindow) Window() ([]byte, error) {
	if b.r.Buffered() == 0 {
		if _, err := b.r.Peek(1); err != nil {
			return nil, err
		}
	}
	return b.r.Peek(b.r.Buffered())
}

func (b bufWindow) Advance(n int) { b.r.Discard(n) }
