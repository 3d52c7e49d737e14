package xmltok

import (
	"encoding/binary"
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
// set. The codec is also where end-tag elimination (Section 3.2, "XML
// compaction techniques") plugs in: the compact package encodes
// level-stamped start tags with this codec and simply never emits end tags.

// flagHasKey marks a token carrying a computed ordering key.
const flagHasKey = 0x80

// flagHasLevel marks a token carrying a nesting level (level-stamped
// streams, the compact package's end-tag elimination).
const flagHasLevel = 0x40

// kindMask strips the flag bits off the kind byte.
const kindMask = 0x3f

// AppendToken appends the binary encoding of t to dst and returns the
// extended slice.
func AppendToken(dst []byte, t Token) []byte {
	kb := byte(t.Kind)
	if t.HasKey {
		kb |= flagHasKey
	}
	if t.Level > 0 {
		kb |= flagHasLevel
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
	if t.Level > 0 {
		dst = binary.AppendUvarint(dst, uint64(t.Level))
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
	if t.Level > 0 {
		n += uvarintSize(uint64(t.Level))
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
		if t, n, ok := d.decode(buf); ok {
			w.Advance(n)
			return t, nil
		}
	}
	return d.readToken(r)
}

// DecodeToken decodes buf, which must hold exactly one encoded token, in
// place. It never reads past buf, so no field length can size a buffer
// beyond the bytes that are there: a corrupt or truncated token, or bytes
// after it, is an error.
func (d *Decoder) DecodeToken(buf []byte) (Token, error) {
	if len(buf) == 0 {
		return Token{}, io.ErrUnexpectedEOF
	}
	t, n, ok := d.decode(buf)
	if !ok || n != len(buf) {
		return Token{}, fmt.Errorf("xmltok: corrupt token of %d bytes", len(buf))
	}
	return t, nil
}

// decode decodes the token at the front of buf and returns its encoded
// length. ok is false when buf does not hold the whole token or the token
// is corrupt; the streaming path then reads it and reports any corruption.
func (d *Decoder) decode(buf []byte) (t Token, n int, ok bool) {
	c := cursor{b: buf, i: 1}
	kb := buf[0]
	t.Kind = Kind(kb & kindMask)
	switch t.Kind {
	case KindStart:
		t.Name = d.names.intern(c.bytes())
		// Every attribute takes at least two bytes, so a count beyond the
		// window is either corrupt or straddles it.
		na := c.uvarint()
		if c.bad || na > uint64(len(buf)) || na > maxStringLen {
			return Token{}, 0, false
		}
		if na > 0 {
			t.Attrs = make([]Attr, na)
			for i := range t.Attrs {
				t.Attrs[i].Name = d.names.intern(c.bytes())
				t.Attrs[i].Value = string(c.bytes())
			}
		}
	case KindEnd:
		t.Name = d.names.intern(c.bytes())
	case KindText:
		t.Text = string(c.bytes())
	case KindRunPtr:
		t.Run = int64(c.uvarint())
		t.Name = d.names.intern(c.bytes())
	default:
		return Token{}, 0, false
	}
	if kb&flagHasKey != 0 {
		t.HasKey = true
		t.Key = string(c.bytes())
	}
	if kb&flagHasLevel != 0 {
		level := c.uvarint()
		if level > maxStringLen {
			return Token{}, 0, false
		}
		t.Level = int(level)
	}
	if c.bad {
		return Token{}, 0, false
	}
	return t, c.i, true
}

// cursor reads the fields of an encoded token from a byte slice. bad is
// set, and stays set, once a field runs past the slice's end.
type cursor struct {
	b   []byte
	i   int
	bad bool
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b[c.i:])
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.i += n
	return v
}

// bytes returns the next length-prefixed string, aliasing the slice.
func (c *cursor) bytes() []byte {
	n := c.uvarint()
	if c.bad || n > uint64(len(c.b)-c.i) || n > maxStringLen {
		c.bad = true
		return nil
	}
	s := c.b[c.i : c.i+int(n)]
	c.i += int(n)
	return s
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
		if n > 0 {
			t.Attrs = make([]Attr, n)
			for i := range t.Attrs {
				if t.Attrs[i].Name, err = d.readString(r); err != nil {
					return Token{}, mid(err)
				}
				if t.Attrs[i].Value, err = d.readString(r); err != nil {
					return Token{}, mid(err)
				}
			}
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
	if kb&flagHasLevel != 0 {
		level, err := binary.ReadUvarint(r)
		if err != nil {
			return Token{}, mid(err)
		}
		if level > maxStringLen {
			return Token{}, fmt.Errorf("xmltok: corrupt stream: level %d", level)
		}
		t.Level = int(level)
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

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
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
// input cannot trigger enormous allocations.
const maxStringLen = 1 << 26 // 64 MiB

// readString decodes one length-prefixed string into the decoder's scratch
// buffer (grown on demand, reused across calls); only the final string
// conversion allocates. Readers that implement io.Reader are filled with
// one ReadFull instead of a byte-at-a-time loop.
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
	if cap(d.scratch) < int(n) {
		d.scratch = make([]byte, n)
	}
	buf := d.scratch[:n]
	if rr, ok := r.(io.Reader); ok {
		if _, err := io.ReadFull(rr, buf); err != nil {
			return "", err
		}
	} else {
		for i := range buf {
			b, err := r.ReadByte()
			if err != nil {
				return "", err
			}
			buf[i] = b
		}
	}
	return string(buf), nil
}
