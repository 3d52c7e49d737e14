package xmltok

import (
	"encoding/binary"
)

// Encoded is a view of one binary token in place: its bytes, and where its
// fields lie in them. From the parser on, the sorters move tokens in this
// form only — the annotator, the subtree sorts, the key-path records and
// the output phase read names, attributes, keys and run IDs out of the
// bytes, and re-encode a token by appending new bytes, instead of decoding
// a Token with new strings.
//
// A view aliases the bytes it was scanned from. It is valid only as long as
// they are, and a caller that keeps anything copies the bytes.
type Encoded struct {
	b      []byte
	kind   Kind
	flags  byte
	str    span // the name of a start tag, end tag or run pointer; the text of a text token
	attrs  span // a start tag's attribute pairs, after their count
	nAttrs int
	run    int64
	fields int  // end of the kind-specific fields, where [key] begins
	key    span // the key's bytes; empty without one
}

// span is a field's byte range within a token.
type span struct{ off, end int }

// Scan records the token at the front of buf as the view and returns its
// encoded length. ok is false when buf does not hold the whole token or the
// token is corrupt: an unknown kind, a varint that overflows, or an
// attribute count or string length over the decoder's limit. The decoder
// reads every token through this scan, so it rejects exactly these. Scan
// allocates nothing.
func (e *Encoded) Scan(buf []byte) (n int, ok bool) {
	n, err := e.scan(buf, maxStringLen)
	return n, err == nil
}

// scan is Scan with the length limit as a parameter — the writer scans
// tokens it has just encoded from a Token, whose strings nothing bounds —
// and a verdict in place of ok. It is nil when buf begins with the whole
// token, and n is its length. It is errShort when buf ends before the
// token does, and n is the least length the token needs (see cursor): the
// scan stops at the first field that runs short, and neither reads nor
// judges a later field. Otherwise it is errUnknownKind or errCorrupt.
func (e *Encoded) scan(buf []byte, limit uint64) (n int, err error) {
	if len(buf) == 0 {
		return 1, errShort
	}
	c := cursor{b: buf, i: 1, limit: limit}
	e.kind = Kind(buf[0] & kindMask)
	e.flags = buf[0] &^ kindMask
	e.nAttrs, e.run = 0, 0
	e.attrs = span{}
	switch e.kind {
	case KindStart:
		e.str = c.span()
		na := c.uvarint()
		if c.err == nil && na > limit {
			return 0, errCorrupt
		}
		e.attrs.off = c.i
		for i := uint64(0); i < na; i++ {
			if c.err != nil {
				// Each pair left takes at least its two length bytes.
				c.i += int(2 * (na - i))
				break
			}
			c.span()
			c.span()
		}
		e.attrs.end = c.i
		e.nAttrs = int(na)
	case KindEnd:
		e.str = c.span()
	case KindText:
		e.str = c.span()
	case KindRunPtr:
		e.run = int64(c.uvarint())
		e.str = c.span()
	default:
		return 0, errUnknownKind
	}
	e.fields = c.i
	e.key = span{c.i, c.i}
	if e.flags&flagHasKey != 0 {
		e.key = c.span()
	}
	if c.err != nil {
		return c.i, c.err
	}
	e.b = buf[:c.i]
	return c.i, nil
}

// set makes e the view of the key-less token in b, whose fields the parser
// has just written: str is its name or text, and a start tag's nAttrs
// attribute pairs lie in attrs.
func (e *Encoded) set(b []byte, kind Kind, str, attrs span, nAttrs int) {
	e.b, e.kind, e.flags = b, kind, 0
	e.str, e.attrs, e.nAttrs, e.run = str, attrs, nAttrs, 0
	e.fields, e.key = len(b), span{len(b), len(b)}
}

// Bytes returns the token's encoding.
func (e *Encoded) Bytes() []byte { return e.b }

// Kind returns the token's kind.
func (e *Encoded) Kind() Kind { return e.kind }

// Name returns the tag name of a start tag, end tag or run pointer.
func (e *Encoded) Name() []byte {
	if e.kind == KindText {
		return nil
	}
	return e.b[e.str.off:e.str.end]
}

// Text returns a text token's character data.
func (e *Encoded) Text() []byte {
	if e.kind != KindText {
		return nil
	}
	return e.b[e.str.off:e.str.end]
}

// Run returns a run pointer's run ID.
func (e *Encoded) Run() int64 { return e.run }

// HasKey reports whether the token carries an ordering key.
func (e *Encoded) HasKey() bool { return e.flags&flagHasKey != 0 }

// Key returns the token's ordering key, empty when it has none.
func (e *Encoded) Key() []byte { return e.b[e.key.off:e.key.end] }

// AppendWithKey appends the token re-keyed: key replaces any key it has.
// For a token AppendToken wrote, the bytes are AppendToken's for the token
// with Key = key and HasKey set.
func (e *Encoded) AppendWithKey(dst, key []byte) []byte {
	return AppendRekeyed(dst, e.b[:e.fields], key)
}

// HeadLen returns the length of the token's bytes before its key: its kind
// byte and its kind-specific fields.
func (e *Encoded) HeadLen() int { return e.fields }

// NameSpan returns where the name of a start tag, end tag or run pointer
// lies in the token's bytes.
func (e *Encoded) NameSpan() (off, end int) { return e.str.off, e.str.end }

// AppendRekeyed is AppendWithKey for a token whose view is gone: head is
// the token's bytes before its key, as HeadLen measures them.
func AppendRekeyed(dst, head, key []byte) []byte {
	dst = append(dst, head[0]&kindMask|flagHasKey)
	return appendString(append(dst, head[1:]...), key)
}

// AppendUnkeyed is AppendRekeyed's key-less sibling: it appends the token
// whose bytes before its key are head, as HeadLen measures them, without a
// key. For a start tag that AppendToken wrote, the bytes are AppendToken's
// for the tag with HasKey cleared.
func AppendUnkeyed(dst, head []byte) []byte {
	return append(append(dst, head[0]&kindMask), head[1:]...)
}

// AppendEndTag appends the key-less end tag named name: the bytes
// AppendToken writes for Token{Kind: KindEnd, Name: name}. An empty name
// gives the nameless end tag, which Writer writes under the name of the
// element it closes.
func AppendEndTag(dst, name []byte) []byte {
	return appendString(append(dst, byte(KindEnd)), name)
}

// AppendBareRunPtr appends the run pointer to run with an empty name and
// no key: the bytes AppendToken writes for Token{Kind: KindRunPtr, Run:
// run}.
func AppendBareRunPtr(dst []byte, run int64) []byte {
	return append(binary.AppendUvarint(append(dst, byte(KindRunPtr)), uint64(run)), 0)
}

// Rekey appends tok re-keyed to dst, as AppendWithKey does, makes e a view
// of the appended token without scanning it, and returns the extended dst,
// which must not share tok's bytes.
func (e *Encoded) Rekey(dst []byte, tok *Encoded, key []byte) []byte {
	start := len(dst)
	dst = tok.AppendWithKey(dst, key)
	*e = *tok
	e.b, e.flags = dst[start:], flagHasKey
	e.key = span{len(e.b) - len(key), len(e.b)}
	return dst
}

// AppendEnd appends the key-less end tag that closes a start tag: the bytes
// AppendToken writes for Token{Kind: KindEnd, Name: name}.
func (e *Encoded) AppendEnd(dst []byte) []byte {
	return AppendEndTag(dst, e.Name())
}

// AppendRunPtr appends the run pointer that replaces a tag's element once
// its subtree is sorted into the run with ID run: the bytes AppendToken
// writes for Token{Kind: KindRunPtr, Run: run, Name: name, Key: key,
// HasKey: true}, with the tag's name and key.
func (e *Encoded) AppendRunPtr(dst []byte, run int64) []byte {
	dst = append(dst, byte(KindRunPtr)|flagHasKey)
	dst = binary.AppendUvarint(dst, uint64(run))
	return appendString(appendString(dst, e.Name()), e.Key())
}

// Attr returns the value of a start tag's first attribute with the given
// name, and whether it has one.
func (e *Encoded) Attr(name string) ([]byte, bool) {
	c := e.attrCursor()
	for range e.nAttrs {
		n, v := c.bytes(), c.bytes()
		if string(n) == name {
			return v, true
		}
	}
	return nil, false
}

// AppendAttr appends a start tag with one more attribute, name="value",
// after its others; its key, if any, is kept.
func (e *Encoded) AppendAttr(dst, name, value []byte) []byte {
	dst = append(dst, e.b[:e.str.end]...)
	dst = binary.AppendUvarint(dst, uint64(e.nAttrs+1))
	dst = append(dst, e.b[e.attrs.off:e.attrs.end]...)
	dst = appendString(appendString(dst, name), value)
	return append(dst, e.b[e.fields:]...)
}

// AppendRenamed appends the token with its name replaced by name and, for a
// start tag, each attribute's name a replaced by attrName(a), which may
// fail. Attribute values and the key are copied as they are, and a run
// pointer's run ID is written as AppendToken writes it; a text token is
// copied whole.
func (e *Encoded) AppendRenamed(dst, name []byte, attrName func([]byte) ([]byte, error)) ([]byte, error) {
	if e.kind == KindText {
		return append(dst, e.b...), nil
	}
	dst = append(dst, e.b[0])
	if e.kind == KindRunPtr {
		dst = binary.AppendUvarint(dst, uint64(e.run))
	}
	dst = appendString(dst, name)
	if e.kind == KindStart {
		dst = append(dst, e.b[e.str.end:e.attrs.off]...)
		c := e.attrCursor()
		for range e.nAttrs {
			a, err := attrName(c.bytes())
			if err != nil {
				return dst, err
			}
			dst = appendString(appendString(dst, a), c.bytes())
		}
	}
	return append(dst, e.b[e.fields:]...), nil
}

// attrCursor reads a start tag's attribute pairs.
func (e *Encoded) attrCursor() cursor {
	return cursor{b: e.b[:e.attrs.end], i: e.attrs.off, limit: ^uint64(0)}
}

// Decode materializes a view as a Token, interning names.
func (d *Decoder) Decode(e *Encoded) Token {
	t := Token{Kind: e.kind}
	switch e.kind {
	case KindStart:
		t.Name = d.names.intern(e.Name())
		if e.nAttrs > 0 {
			c := e.attrCursor()
			t.Attrs = make([]Attr, e.nAttrs)
			for i := range t.Attrs {
				t.Attrs[i].Name = d.names.intern(c.bytes())
				t.Attrs[i].Value = string(c.bytes())
			}
		}
	case KindEnd:
		t.Name = d.names.intern(e.Name())
	case KindText:
		t.Text = string(e.Text())
	case KindRunPtr:
		t.Run = e.run
		t.Name = d.names.intern(e.Name())
	}
	if e.HasKey() {
		t.HasKey = true
		t.Key = string(e.Key())
	}
	return t
}
