package xmltok

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
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

// EncodedSize returns the number of bytes AppendToken would add for t.
func EncodedSize(t Token) int {
	n := 1
	switch t.Kind {
	case KindStart:
		n += stringSize(t.Name) + uvarintSize(uint64(len(t.Attrs)))
		for _, a := range t.Attrs {
			n += stringSize(a.Name) + stringSize(a.Value)
		}
	case KindEnd:
		n += stringSize(t.Name)
	case KindText:
		n += stringSize(t.Text)
	case KindRunPtr:
		n += uvarintSize(uint64(t.Run)) + stringSize(t.Name)
	}
	if t.HasKey {
		n += stringSize(t.Key)
	}
	return n
}

// Decoder decodes binary tokens, reusing one scratch buffer across calls so
// the only per-token allocations are the strings that escape into the Token
// itself; tag and attribute names are interned. A Decoder is cheap (lazily
// grown scratch) but not safe for concurrent use; long-lived readers keep
// one per stream.
type Decoder struct {
	scratch []byte
	names   interner
	view    Encoded // the view ReadEncoded returns
	enc     []byte  // a straddling token, re-encoded for the view
}

// ReadToken decodes one token from r. It returns io.EOF cleanly when the
// stream is exhausted at a token boundary, and io.ErrUnexpectedEOF if the
// stream ends mid-token. The one-shot helper for callers without a Decoder
// is the package-level ReadToken.
//
// When r is a WindowReader and the whole token lies in its window, the
// token is decoded from the window in place and r is advanced past it in
// one step, so r's offset is exact after every token. A token that
// straddles the window's end, or a corrupt one, is read byte by byte.
func (d *Decoder) ReadToken(r io.ByteReader) (Token, error) {
	if w, ok := r.(WindowReader); ok {
		buf, err := w.Window()
		if len(buf) == 0 {
			if err == nil {
				err = io.ErrNoProgress
			}
			return Token{}, err
		}
		var e Encoded
		if n, ok := e.Scan(buf); ok {
			w.Advance(n)
			return d.Decode(&e), nil
		}
	}
	return d.readToken(r)
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

// cursor reads the fields of an encoded token from a byte slice. bad is
// set, and stays set, once a field runs past the slice's end or a string
// is longer than limit.
type cursor struct {
	b     []byte
	i     int
	bad   bool
	limit uint64
}

func (c *cursor) uvarint() uint64 {
	// Lengths and counts are mostly under 128: one byte.
	if c.i < len(c.b) && c.b[c.i] < 0x80 {
		c.i++
		return uint64(c.b[c.i-1])
	}
	v, n := binary.Uvarint(c.b[c.i:])
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.i += n
	return v
}

// span returns the position of the next length-prefixed string.
func (c *cursor) span() span {
	n := c.uvarint()
	if c.bad || n > uint64(len(c.b)-c.i) || n > c.limit {
		c.bad = true
		return span{c.i, c.i}
	}
	s := span{c.i, c.i + int(n)}
	c.i += int(n)
	return s
}

// bytes returns the next length-prefixed string, aliasing the slice.
func (c *cursor) bytes() []byte {
	s := c.span()
	return c.b[s.off:s.end]
}

// readToken is ReadToken's streaming path.
func (d *Decoder) readToken(r io.ByteReader) (Token, error) {
	kb, err := r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Token{}, io.EOF
		}
		return Token{}, err
	}
	t := Token{Kind: Kind(kb & kindMask)}
	switch t.Kind {
	case KindStart:
		if t.Name, err = d.readString(r); err != nil {
			return Token{}, mid(err)
		}
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return Token{}, mid(err)
		}
		if n > maxStringLen {
			return Token{}, fmt.Errorf("xmltok: corrupt stream: %d attributes", n)
		}
		// The attributes grow as they arrive: the count is not checked
		// against the bytes present, so it must not size a buffer.
		for i := uint64(0); i < n; i++ {
			var a Attr
			if a.Name, err = d.readString(r); err != nil {
				return Token{}, mid(err)
			}
			if a.Value, err = d.readString(r); err != nil {
				return Token{}, mid(err)
			}
			t.Attrs = append(t.Attrs, a)
		}
	case KindEnd:
		if t.Name, err = d.readString(r); err != nil {
			return Token{}, mid(err)
		}
	case KindText:
		if t.Text, err = d.readString(r); err != nil {
			return Token{}, mid(err)
		}
	case KindRunPtr:
		run, err := binary.ReadUvarint(r)
		if err != nil {
			return Token{}, mid(err)
		}
		t.Run = int64(run)
		if t.Name, err = d.readString(r); err != nil {
			return Token{}, mid(err)
		}
	default:
		return Token{}, fmt.Errorf("xmltok: unknown token kind byte 0x%02x", kb)
	}
	if kb&flagHasKey != 0 {
		t.HasKey = true
		if t.Key, err = d.readString(r); err != nil {
			return Token{}, mid(err)
		}
	}
	return t, nil
}

// ReadToken decodes one token from r with a throwaway Decoder. Streaming
// callers should hold a Decoder and call its ReadToken to reuse the scratch
// buffer across tokens.
func ReadToken(r io.ByteReader) (Token, error) {
	var d Decoder
	return d.ReadToken(r)
}

// mid converts an EOF inside a token into io.ErrUnexpectedEOF.
func mid(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
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

func stringSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

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

// readString decodes one length-prefixed string into the decoder's scratch
// buffer (reused across calls); only the final string conversion
// allocates. The length is not checked against the bytes present, so the
// scratch grows as they arrive — at most doubling, from stringChunk — and
// a corrupt length fails at the end of the stream having allocated in
// proportion to what was there. Readers that implement io.Reader are
// filled a chunk at a time instead of a byte at a time.
func (d *Decoder) readString(r io.ByteReader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	if n > maxStringLen {
		return "", fmt.Errorf("xmltok: corrupt stream: string length %d", n)
	}
	buf := d.scratch[:0]
	rr, isReader := r.(io.Reader)
	for uint64(len(buf)) < n {
		if len(buf) == cap(buf) {
			grow := min(n-uint64(len(buf)), uint64(max(len(buf), stringChunk)))
			buf = slices.Grow(buf, int(grow))
		}
		chunk := buf[len(buf):min(uint64(cap(buf)), n)]
		if isReader {
			if _, err := io.ReadFull(rr, chunk); err != nil {
				return "", err
			}
		} else {
			for i := range chunk {
				b, err := r.ReadByte()
				if err != nil {
					return "", err
				}
				chunk[i] = b
			}
		}
		buf = buf[:len(buf)+len(chunk)]
	}
	d.scratch = buf[:0]
	return string(buf), nil
}

// stringChunk is the first size readString's scratch grows to.
const stringChunk = 512

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
