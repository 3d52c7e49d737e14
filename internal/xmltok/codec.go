package xmltok

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary token codec.
//
// NEXSORT never stores textual XML in its working structures: tokens are
// spooled through the data stack and the sorted runs in a compact,
// self-delimiting binary form. The encoding is a tag byte — the Kind in the
// low bits, plus a has-key flag bit — followed by uvarint-prefixed strings:
//
//	start:  kind name nAttrs (attrName attrValue)* [key]
//	end:    kind name [key]
//	text:   kind text
//	runptr: kind runID(uvarint) name [key]
//
// Each string is len(uvarint) bytes; [key] is present when the flag bit is
// set.

// flagHasKey marks a token carrying a computed ordering key.
const flagHasKey = 0x80

// kindMask strips the flag bit off the kind byte. Every other bit belongs
// to the kind, so a kind byte with any of them set beyond the four kinds is
// an unknown kind, rejected by the decoder and the view alike.
const kindMask = 0x7f

// AppendToken appends the binary encoding of t to dst and returns the
// extended slice.
func AppendToken(dst []byte, t Token) []byte {
	kb := byte(t.Kind)
	if t.HasKey {
		kb |= flagHasKey
	}
	dst = append(dst, kb)
	switch t.Kind {
	case KindStart:
		dst = appendString(dst, t.Name)
		dst = binary.AppendUvarint(dst, uint64(len(t.Attrs)))
		for _, a := range t.Attrs {
			dst = appendString(dst, a.Name)
			dst = appendString(dst, a.Value)
		}
	case KindEnd:
		dst = appendString(dst, t.Name)
	case KindText:
		dst = appendString(dst, t.Text)
	case KindRunPtr:
		dst = binary.AppendUvarint(dst, uint64(t.Run))
		dst = appendString(dst, t.Name)
	default:
		panic(fmt.Sprintf("xmltok: encoding unknown kind %d", t.Kind))
	}
	if t.HasKey {
		dst = appendString(dst, t.Key)
	}
	return dst
}

// Decoder decodes binary tokens. It holds the view ReadEncoded returns, a
// buffer in which a token that runs past its reader's window is
// assembled, and a cache that interns tag and attribute names. A Decoder
// is cheap but not safe for concurrent use; long-lived readers keep one
// per stream, so that its buffer and its names serve every token.
type Decoder struct {
	names interner
	view  Encoded // the view ReadEncoded returns
	buf   []byte  // a token that runs past its reader's window, assembled
}

// ReadToken decodes one token from r: ReadEncoded's view, decoded. It
// returns io.EOF cleanly when the stream is exhausted at a token boundary,
// and io.ErrUnexpectedEOF if the stream ends mid-token. The one-shot
// helper for callers without a Decoder is the package-level ReadToken.
func (d *Decoder) ReadToken(r io.ByteReader) (Token, error) {
	e, err := d.ReadEncoded(r)
	if err != nil {
		return Token{}, err
	}
	return d.Decode(e), nil
}

// DecodeToken decodes buf, which must hold exactly one encoded token, in
// place. It never reads past buf, so no field length can size a buffer
// beyond the bytes that are there: a corrupt or truncated token, or bytes
// after it, is an error.
func (d *Decoder) DecodeToken(buf []byte) (Token, error) {
	var e Encoded
	if n, ok := e.Scan(buf); !ok || n != len(buf) {
		if len(buf) == 0 {
			return Token{}, io.ErrUnexpectedEOF
		}
		return Token{}, fmt.Errorf("xmltok: corrupt token of %d bytes", len(buf))
	}
	return d.Decode(&e), nil
}

// ReadEncoded returns a view of the next token of r, io.EOF at a clean end
// of the stream and io.ErrUnexpectedEOF inside a token; an error of r's
// own passes through unchanged. The view is valid until the next call.
//
// r is read a window at a time (WindowReader); any other io.ByteReader is
// read as one-byte windows. A token that lies in the window is scanned
// there. A token that runs past it is assembled in the decoder's buffer
// from the windows that follow and scanned there by the same scan, which,
// while the buffer ends too soon, reports the least length the token
// needs. Each pass takes bytes toward that length, but no more than the
// buffer already holds, so a corrupt count is found after a few bytes
// rather than after all it claims, and a token of many fields is scanned
// a few times rather than once per field. r is advanced past exactly a
// decoded token's bytes, and the buffer holds only bytes that have
// arrived. When the input ends inside a token, the bytes that arrived are
// scanned once more, so every reader gives the same bytes the same
// verdict.
func (d *Decoder) ReadEncoded(r io.ByteReader) (*Encoded, error) {
	w, ok := r.(WindowReader)
	if !ok {
		w = &byteWindow{r: r}
	}
	win, err := w.Window()
	if len(win) == 0 {
		if err == nil {
			err = io.ErrNoProgress
		}
		return nil, err
	}
	n, err := d.view.scan(win, maxStringLen)
	switch err {
	case nil:
		w.Advance(n)
		return &d.view, nil
	case errShort:
	default:
		return nil, tokenError(err, win[0])
	}
	buf := append(d.buf[:0], win...)
	w.Advance(len(win))
	var rerr error // why r ended inside the token
	for err == errShort && rerr == nil {
		for want := min(n, 2*len(buf)); len(buf) < want; {
			win, werr := w.Window()
			if len(win) == 0 {
				rerr = midToken(werr)
				break
			}
			k := min(want-len(buf), len(win))
			buf = append(buf, win[:k]...)
			w.Advance(k)
		}
		// Once r has ended this scan is the last: a field after the one
		// that ran short can be corrupt before the length asked for.
		n, err = d.view.scan(buf, maxStringLen)
	}
	d.buf = buf
	switch err {
	case nil:
		return &d.view, nil
	case errShort:
		return nil, rerr
	}
	return nil, tokenError(err, buf[0])
}

// ReadToken decodes one token from r with a throwaway Decoder. Streaming
// callers should hold a Decoder and call its ReadToken to reuse its buffer
// and its names across tokens.
func ReadToken(r io.ByteReader) (Token, error) {
	var d Decoder
	return d.ReadToken(r)
}

// byteWindow serves an io.ByteReader as one-byte windows.
type byteWindow struct {
	r    io.ByteReader
	b    [1]byte
	held bool // b holds a byte read but not yet advanced past
}

func (w *byteWindow) Window() ([]byte, error) {
	if !w.held {
		b, err := w.r.ReadByte()
		if err != nil {
			return nil, err
		}
		w.b[0], w.held = b, true
	}
	return w.b[:], nil
}

func (w *byteWindow) Advance(n int) {
	if n > 0 {
		w.held = false
	}
}

// errShort is scan's verdict on a buffer that ends before its token does.
// It never leaves the package: a token cut short by the end of its input
// is io.ErrUnexpectedEOF.
var errShort = errors.New("xmltok: token runs past the buffer")

// errCorrupt is the verdict on a token that no bytes after it could make
// whole: a varint that overflows, or an attribute count or a string
// length over the codec's limit.
var errCorrupt = errors.New("xmltok: corrupt token")

// errUnknownKind is the verdict on a kind byte that names no kind.
var errUnknownKind = errors.New("xmltok: unknown token kind")

// tokenError is the error for scan's verdict err on a token whose kind
// byte is kb.
func tokenError(err error, kb byte) error {
	if err == errUnknownKind {
		return fmt.Errorf("xmltok: unknown token kind byte 0x%02x", kb)
	}
	return err
}

// midToken is the error for a reader that ended inside a token with err:
// its end is io.ErrUnexpectedEOF, and its own error passes through.
func midToken(err error) error {
	switch err {
	case io.EOF:
		return io.ErrUnexpectedEOF
	case nil:
		return io.ErrNoProgress
	}
	return err
}

// cursor reads the fields of an encoded token from a byte slice. Once a
// field fails, err is set and i lies past the slice's end, so no later
// field is read: errShort when the field runs past the slice's end,
// errCorrupt when a varint overflows or a count or length is over limit.
// After errShort, i is the least length the token needs: the end of the
// field that ran short, when its length is known, or one byte past the
// slice, plus a byte for each later field that is read.
type cursor struct {
	b     []byte
	i     int
	err   error
	limit uint64
}

func (c *cursor) uvarint() uint64 {
	// Lengths and counts are mostly under 128: one byte.
	if c.i < len(c.b) && c.b[c.i] < 0x80 {
		c.i++
		return uint64(c.b[c.i-1])
	}
	if c.err != nil {
		c.i++
		return 0
	}
	v, n := binary.Uvarint(c.b[c.i:])
	if n <= 0 {
		c.err, c.i = errShort, len(c.b)+1
		if n < 0 {
			c.err = errCorrupt
		}
		return 0
	}
	c.i += n
	return v
}

// span returns the position of the next length-prefixed string.
func (c *cursor) span() span {
	n := c.uvarint()
	if c.err == nil && n <= c.limit && n <= uint64(len(c.b)-c.i) {
		s := span{c.i, c.i + int(n)}
		c.i += int(n)
		return s
	}
	switch {
	case c.err != nil:
	case n > c.limit:
		c.err, c.i = errCorrupt, len(c.b)+1
	default:
		c.err, c.i = errShort, c.i+int(n)
	}
	return span{}
}

// bytes returns the next length-prefixed string, aliasing the slice.
func (c *cursor) bytes() []byte {
	s := c.span()
	return c.b[s.off:s.end]
}

// appendString appends s as a length-prefixed string.
func appendString[S string | []byte](dst []byte, s S) []byte {
	if len(s) < 0x80 {
		dst = append(dst, byte(len(s)))
	} else {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
	}
	return append(dst, s...)
}

func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// maxStringLen bounds decoded string lengths so that corrupt or hostile
// input cannot trigger enormous allocations. The parser holds every name,
// attribute value and text to it (ErrTooLong), so every token it writes
// decodes.
const maxStringLen = 1 << 26 // 64 MiB

// interner hands out one string per distinct tag or attribute name, since
// names repeat throughout a document. It is a direct-mapped cache: a slot
// chosen by the name's length and end bytes holds the last name seen there,
// so it is bounded at internSlots names of at most maxInternedLen bytes,
// and a lookup costs one comparison instead of a hash.
type interner struct {
	slots *[internSlots]string
}

const (
	internSlots    = 256
	maxInternedLen = 64
)

func (in *interner) intern(b []byte) string {
	n := len(b)
	if n == 0 || n > maxInternedLen {
		return string(b)
	}
	if in.slots == nil {
		in.slots = new([internSlots]string)
	}
	slot := &in.slots[(n*37+int(b[0])*7+int(b[n-1]))%internSlots]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}
