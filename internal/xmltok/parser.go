package xmltok

import (
	"bytes"
	"encoding/binary"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParserOptions configures a Parser.
type ParserOptions struct {
	// SkipWhitespaceText drops text tokens consisting entirely of XML
	// whitespace (space, tab, CR, LF). Data-centric pipelines — including
	// every sorter here — enable it so that pretty-printing never
	// influences sort behaviour.
	SkipWhitespaceText bool
}

// DefaultParserOptions skips whitespace-only text.
func DefaultParserOptions() ParserOptions {
	return ParserOptions{SkipWhitespaceText: true}
}

// Parser is a streaming, event-based XML reader. Create one with NewParser
// and call NextEncoded (or Next) until it returns io.EOF, which it does
// only after the root element has closed: input that ends before a root
// element begins is malformed ("no root element"), so no caller needs a
// check of its own for an empty document.
//
// The parser writes each token's binary encoding — the bytes AppendToken
// writes for it — straight from its source's window (see WindowReader)
// into one reusable buffer, and returns a view of it. A token that lies
// wholly in the window is found with bytes.IndexByte and copied once;
// entity references and a token that straddles a window boundary take a
// byte-at-a-time path into the same buffer. Nothing is allocated per token
// once the buffers have grown to the document's largest token.
type Parser struct {
	src WindowReader
	// buf is the source's current window and pos the bytes of it the
	// parser has consumed. The parser keeps the window across tokens and
	// advances the source once per window: when it is used up, once the
	// root has closed, and at the end of the input or an error. Nothing
	// reads the source while the parser is inside the root, so no one sees
	// the position in between.
	buf     []byte
	pos     int
	opts    ParserOptions
	depth   int
	started bool // a root element has been seen
	done    bool // the root element has been closed
	// enc holds the current token's encoding, which view describes.
	// After a self-closing tag it also holds the end tag the next call
	// returns, from offset pendingEnd; pendingEnd is 0 when there is none.
	enc        []byte
	view       Encoded
	pendingEnd int
	// openNames holds the names of the open elements back to back, and
	// openStarts where each begins.
	openNames  []byte
	openStarts []int
	// scratch holds the tail of a comment or processing instruction that
	// runs past the window.
	scratch []byte
	// dec decodes views into Tokens for Next.
	dec Decoder
}

// NewParser reads a document from r with the given options. A reader that
// is not a WindowReader is read through a bufio.Reader (r itself when it is
// one).
func NewParser(r io.Reader, opts ParserOptions) *Parser {
	return &Parser{src: windowOf(r), opts: opts}
}

// Depth returns the number of currently open elements. Immediately after a
// KindStart it includes that element; immediately after a KindEnd it no
// longer does.
func (p *Parser) Depth() int { return p.depth }

// truncated maps a read failure inside a token: io.EOF (or a nil error
// when the caller saw an unexpected byte) means the document itself is cut
// short or malformed, so the diagnostic message applies. Any other error
// is the reader failing — a device fault, a canceled run — and must
// propagate unchanged so typed errors keep their errors.Is identity.
func truncated(err error, format string, args ...any) error {
	if err != nil && err != io.EOF {
		return err
	}
	return malformed(format, args...)
}

// readByte consumes one byte, moving to the source's next window when the
// current one is used up.
func (p *Parser) readByte() (byte, error) {
	if p.pos < len(p.buf) {
		b := p.buf[p.pos]
		p.pos++
		return b, nil
	}
	return p.nextWindow()
}

// unread gives back the byte the last readByte returned. It is always in
// the current window: a new window starts with the byte that loaded it.
func (p *Parser) unread() { p.pos-- }

// nextWindow advances the source past the exhausted window, loads the next
// one and consumes its first byte.
func (p *Parser) nextWindow() (byte, error) {
	if p.pos > 0 {
		p.src.Advance(p.pos)
	}
	buf, err := p.src.Window()
	p.buf, p.pos = buf, 0
	if len(buf) == 0 {
		if err == nil {
			err = io.ErrNoProgress
		}
		return 0, err
	}
	p.pos = 1
	return buf[0], nil
}

// commit advances the source past everything the parser has consumed, so
// that a caller reading the source's position after the last token (a
// counting reader's BytesRead) sees every byte the parser consumed.
func (p *Parser) commit() {
	if p.pos > 0 {
		p.src.Advance(p.pos)
	}
	p.buf, p.pos = nil, 0
}

// NextEncoded returns a view of the next token's encoding, or io.EOF when
// the document is exhausted. The view and its bytes belong to the parser
// and are valid only until the next call; a caller that keeps anything
// copies it.
func (p *Parser) NextEncoded() (*Encoded, error) {
	if end := p.pendingEnd; end > 0 {
		p.pendingEnd = 0
		p.view.scan(p.enc[end:], maxStringLen)
		p.closeElement(p.view.Name())
	} else {
		p.enc = p.enc[:0]
		if err := p.next(); err != nil {
			p.commit()
			return nil, err
		}
	}
	if p.done {
		// The root has closed, and a caller may stop reading here (the
		// in-memory sort's tree builder does).
		p.commit()
	}
	return &p.view, nil
}

// Next returns the next token, or io.EOF when the document is exhausted.
// It is NextEncoded's view decoded, with names interned.
func (p *Parser) Next() (Token, error) {
	e, err := p.NextEncoded()
	if err != nil {
		return Token{}, err
	}
	return p.dec.Decode(e), nil
}

// next encodes the next token into enc, which is empty on entry and stays
// empty for a construct that yields no token, and sets view to it.
func (p *Parser) next() error {
	for {
		b, err := p.readByte()
		if err == io.EOF {
			if !p.started {
				return malformed("no root element")
			}
			if !p.done {
				return malformed("unexpected end of input with %d open elements", p.depth)
			}
			return io.EOF
		}
		if err != nil {
			return err
		}
		var skip bool
		if b == '<' {
			skip, err = p.parseMarkup()
		} else if p.depth == 0 {
			// Text outside the root must be whitespace.
			if !isXMLSpace(b) {
				return malformed("character data outside the root element")
			}
			skip = true
		} else {
			p.unread()
			skip, err = p.parseText()
		}
		if err != nil || !skip {
			return err
		}
	}
}

// beginString reserves a one-byte length prefix in enc for a string whose
// length is not known yet, and returns the offset its bytes start at.
func (p *Parser) beginString() int {
	p.enc = append(p.enc, 0)
	return len(p.enc)
}

// endString completes the string begun at off, which runs to the end of
// enc: it writes the length prefix, moving the bytes up when the length
// needs more than the one byte reserved, and returns the string's span.
func (p *Parser) endString(off int) span {
	n := len(p.enc) - off
	if n < 0x80 {
		p.enc[off-1] = byte(n)
		return span{off, off + n}
	}
	extra := uvarintSize(uint64(n)) - 1
	p.enc = append(p.enc, make([]byte, extra)...)
	copy(p.enc[off+extra:], p.enc[off:off+n])
	binary.PutUvarint(p.enc[off-1:], uint64(n))
	return span{off + extra, off + extra + n}
}

// overLimit reports whether a string begun at off has grown past
// maxStringLen.
func (p *Parser) overLimit(off int) bool { return len(p.enc)-off > maxStringLen }

// parseText encodes character data up to (not including) the next '<'.
// skip=true means the text is whitespace-only and SkipWhitespaceText drops
// it.
func (p *Parser) parseText() (skip bool, err error) {
	rest := p.buf[p.pos:]
	if j := bytes.IndexByte(rest, '<'); j >= 0 {
		if run := rest[:j]; bytes.IndexByte(run, '&') < 0 {
			p.pos += j
			if len(run) > maxStringLen {
				return false, tooLong("text")
			}
			if p.opts.SkipWhitespaceText && isSpaceOnly(run) {
				return true, nil
			}
			p.enc = appendString(append(p.enc, byte(KindText)), run)
			p.view.set(p.enc, KindText, span{len(p.enc) - len(run), len(p.enc)}, span{}, 0)
			return false, nil
		}
	}
	// The text holds an entity or runs past the window.
	p.enc = append(p.enc, byte(KindText))
	off := p.beginString()
	for {
		if p.pos == len(p.buf) {
			if _, err := p.readByte(); err == io.EOF {
				break
			} else if err != nil {
				return false, err
			}
			p.unread()
		}
		rest := p.buf[p.pos:]
		k := 0
		for k < len(rest) && rest[k] != '<' && rest[k] != '&' {
			k++
		}
		p.enc = append(p.enc, rest[:k]...)
		p.pos += k
		if p.overLimit(off) {
			return false, tooLong("text")
		}
		if k == len(rest) {
			continue
		}
		if rest[k] == '<' {
			break
		}
		p.pos++ // the '&'
		if p.enc, err = p.appendEntity(p.enc); err != nil {
			return false, err
		}
	}
	if p.overLimit(off) {
		return false, tooLong("text")
	}
	if p.opts.SkipWhitespaceText && isSpaceOnly(p.enc[off:]) {
		p.enc = p.enc[:0]
		return true, nil
	}
	text := p.endString(off)
	p.view.set(p.enc, KindText, text, span{}, 0)
	return false, nil
}

// parseMarkup handles everything after a '<'. skip=true means the construct
// produces no token (comment, PI, doctype) — unless it is a CDATA section,
// which yields a text token.
func (p *Parser) parseMarkup() (skip bool, err error) {
	b, err := p.readByte()
	if err != nil {
		return false, truncated(err, "truncated markup")
	}
	switch {
	case b == '?':
		return true, p.readUntil("?>", false)
	case b == '!':
		return p.parseBang()
	case b == '/':
		return false, p.parseEndTag()
	default:
		p.unread()
		return false, p.parseStartTag()
	}
}

// parseBang handles <!-- comments, <![CDATA[ sections and <!DOCTYPE.
func (p *Parser) parseBang() (skip bool, err error) {
	b, err := p.readByte()
	if err != nil {
		return false, truncated(err, "truncated <! construct")
	}
	switch b {
	case '-':
		if b2, err := p.readByte(); err != nil || b2 != '-' {
			return false, truncated(err, "expected <!--")
		}
		return true, p.readUntil("-->", false)
	case '[':
		// <![CDATA[ ... ]]>
		const open = "CDATA["
		for i := 0; i < len(open); i++ {
			c, err := p.readByte()
			if err != nil || c != open[i] {
				return false, truncated(err, "expected <![CDATA[")
			}
		}
		if p.depth == 0 {
			return false, malformed("CDATA outside the root element")
		}
		p.enc = append(p.enc, byte(KindText))
		off := p.beginString()
		if err := p.readUntil("]]>", true); err != nil {
			return false, err
		}
		if p.opts.SkipWhitespaceText && isSpaceOnly(p.enc[off:]) {
			p.enc = p.enc[:0]
			return true, nil
		}
		text := p.endString(off)
		p.view.set(p.enc, KindText, text, span{}, 0)
		return false, nil
	default:
		// A declaration such as <!DOCTYPE ...>, skipped where encoding/xml
		// ends the same directive: the byte after "<!" is taken as it is,
		// and a '>' inside quotes or closing a nested '<' (as in an
		// internal subset) does not end it; a nested comment is skipped
		// whole.
		var quote byte
		depth := 0
		for {
			b, err := p.readByte()
			if err != nil {
				return false, truncated(err, "truncated <! declaration")
			}
			switch {
			case quote != 0:
				if b == quote {
					quote = 0
				}
			case b == '"' || b == '\'':
				quote = b
			case b == '>':
				if depth == 0 {
					return true, nil
				}
				depth--
			case b == '<':
				const comment = "!--"
				n := 0
				for ; n < len(comment); n++ {
					if b, err = p.readByte(); err != nil {
						return false, truncated(err, "truncated <! declaration")
					}
					if b != comment[n] {
						break
					}
				}
				if n == len(comment) {
					if err := p.readUntil("-->", false); err != nil {
						return false, err
					}
					continue
				}
				// Any other '<' nests; the byte after it is read again.
				depth++
				p.unread()
			}
		}
	}
}

// parseStartTag encodes a start tag. A self-closing tag's end tag is
// encoded after it, for the next call to return.
func (p *Parser) parseStartTag() error {
	if p.done {
		return malformed("second root element")
	}
	p.enc = append(p.enc, byte(KindStart))
	name, err := p.appendName()
	if err != nil {
		return err
	}
	count := len(p.enc)
	p.enc = append(p.enc, 0) // the attribute count, written at the '>'
	n := 0
	for {
		b, err := p.skipSpace()
		if err != nil {
			return truncated(err, "truncated start tag <%s", p.bytes(name))
		}
		switch b {
		case '>':
			attrs := p.endAttrs(count, n)
			p.view.set(p.enc, KindStart, name, attrs, n)
			p.openElement(name)
			return nil
		case '/':
			if b2, err := p.readByte(); err != nil || b2 != '>' {
				return truncated(err, "expected /> in <%s", p.bytes(name))
			}
			attrs := p.endAttrs(count, n)
			p.openElement(name)
			p.pendingEnd = len(p.enc)
			p.enc = appendString(append(p.enc, byte(KindEnd)), p.bytes(name))
			p.view.set(p.enc[:p.pendingEnd], KindStart, name, attrs, n)
			return nil
		default:
			p.unread()
			if err := p.readAttr(); err != nil {
				return err
			}
			if n++; n > maxStringLen {
				return tooLong("attribute count of <%s>", p.bytes(name))
			}
		}
	}
}

// endAttrs writes a start tag's attribute count n into the byte reserved
// at count, moving the attributes up when n needs more than one byte, and
// returns the span of the attribute pairs.
func (p *Parser) endAttrs(count, n int) span {
	if n < 0x80 {
		p.enc[count] = byte(n)
		return span{count + 1, len(p.enc)}
	}
	extra := uvarintSize(uint64(n)) - 1
	p.enc = append(p.enc, make([]byte, extra)...)
	copy(p.enc[count+1+extra:], p.enc[count+1:len(p.enc)-extra])
	binary.PutUvarint(p.enc[count:], uint64(n))
	return span{count + 1 + extra, len(p.enc)}
}

func (p *Parser) parseEndTag() error {
	p.enc = append(p.enc, byte(KindEnd))
	name, err := p.appendName()
	if err != nil {
		return err
	}
	b, err := p.skipSpace()
	if err != nil || b != '>' {
		return truncated(err, "malformed end tag </%s", p.bytes(name))
	}
	if p.depth == 0 {
		return malformed("end tag </%s> with no open element", p.bytes(name))
	}
	p.view.set(p.enc, KindEnd, name, span{}, 0)
	return p.closeElement(p.bytes(name))
}

// bytes returns the bytes of a span of enc.
func (p *Parser) bytes(s span) []byte { return p.enc[s.off:s.end] }

func (p *Parser) openElement(name span) {
	p.depth++
	p.started = true
	p.openStarts = append(p.openStarts, len(p.openNames))
	p.openNames = append(p.openNames, p.bytes(name)...)
}

func (p *Parser) closeElement(name []byte) error {
	top := p.openStarts[len(p.openStarts)-1]
	if want := p.openNames[top:]; !bytes.Equal(want, name) {
		return malformed("end tag </%s> does not match open <%s>", name, want)
	}
	p.openNames = p.openNames[:top]
	p.openStarts = p.openStarts[:len(p.openStarts)-1]
	p.depth--
	if p.depth == 0 {
		p.done = true
	}
	return nil
}

// appendName encodes an XML name (first byte already positioned at its
// start) and returns the span of its bytes in enc.
func (p *Parser) appendName() (span, error) {
	b, err := p.readByte()
	if err != nil || !isNameStart(b) {
		return span{}, truncated(err, "expected a name")
	}
	start, i := p.pos-1, p.pos
	for i < len(p.buf) && isNameByte(p.buf[i]) {
		i++
	}
	p.pos = i
	if i < len(p.buf) {
		name := p.buf[start:i]
		if len(name) > maxStringLen {
			return span{}, tooLong("name")
		}
		p.enc = appendString(p.enc, name)
		return span{len(p.enc) - len(name), len(p.enc)}, nil
	}
	// The name may run on into the next window.
	off := p.beginString()
	p.enc = append(p.enc, p.buf[start:i]...)
	for {
		b, err = p.readByte()
		if err != nil {
			break
		}
		if !isNameByte(b) {
			p.unread()
			break
		}
		p.enc = append(p.enc, b)
		if p.overLimit(off) {
			return span{}, tooLong("name")
		}
	}
	return p.endString(off), nil
}

// readAttr encodes name="value" (either quote style), entity-decoding the
// value.
func (p *Parser) readAttr() error {
	name, err := p.appendName()
	if err != nil {
		return err
	}
	b, err := p.skipSpace()
	if err != nil || b != '=' {
		return truncated(err, "attribute %s missing '='", p.bytes(name))
	}
	quote, err := p.skipSpace()
	if err != nil || (quote != '"' && quote != '\'') {
		return truncated(err, "attribute %s missing quote", p.bytes(name))
	}
	rest := p.buf[p.pos:]
	if j := bytes.IndexByte(rest, quote); j >= 0 {
		if run := rest[:j]; bytes.IndexByte(run, '&') < 0 && bytes.IndexByte(run, '<') < 0 {
			p.pos += j + 1
			if len(run) > maxStringLen {
				return tooLong("value of attribute %s", p.bytes(name))
			}
			p.enc = appendString(p.enc, run)
			return nil
		}
	}
	// The value holds an entity or a stray '<', or runs past the window.
	off := p.beginString()
	for {
		if p.pos == len(p.buf) {
			if _, err := p.readByte(); err != nil {
				return truncated(err, "unterminated value for attribute %s", p.bytes(name))
			}
			p.unread()
		}
		rest := p.buf[p.pos:]
		k := 0
		for k < len(rest) && rest[k] != quote && rest[k] != '&' && rest[k] != '<' {
			k++
		}
		p.enc = append(p.enc, rest[:k]...)
		p.pos += k
		if p.overLimit(off) {
			return tooLong("value of attribute %s", p.bytes(name))
		}
		if k == len(rest) {
			continue
		}
		p.pos++
		switch rest[k] {
		case quote:
			p.endString(off)
			return nil
		case '&':
			if p.enc, err = p.appendEntity(p.enc); err != nil {
				return err
			}
		default:
			return malformed("raw '<' in value of attribute %s", p.bytes(name))
		}
	}
}

// appendEntity decodes an entity reference whose '&' has been consumed and
// appends its replacement text to dst.
func (p *Parser) appendEntity(dst []byte) ([]byte, error) {
	var nameBuf [16]byte
	ent := nameBuf[:0]
	for {
		b, err := p.readByte()
		if err != nil {
			return dst, truncated(err, "unterminated entity reference")
		}
		if b == ';' {
			break
		}
		if len(ent) > 12 {
			return dst, malformed("entity reference too long: &%s...", ent)
		}
		ent = append(ent, b)
	}
	switch string(ent) {
	case "amp":
		return append(dst, '&'), nil
	case "lt":
		return append(dst, '<'), nil
	case "gt":
		return append(dst, '>'), nil
	case "quot":
		return append(dst, '"'), nil
	case "apos":
		return append(dst, '\''), nil
	}
	if len(ent) > 0 && ent[0] == '#' {
		numeric := string(ent[1:])
		base := 10
		if strings.HasPrefix(numeric, "x") || strings.HasPrefix(numeric, "X") {
			numeric, base = numeric[1:], 16
		}
		n, err := strconv.ParseUint(numeric, base, 32)
		if err != nil || !utf8.ValidRune(rune(n)) {
			return dst, malformed("bad character reference &%s;", ent)
		}
		return utf8.AppendRune(dst, rune(n)), nil
	}
	return dst, malformed("unknown entity &%s;", ent)
}

// skipSpace consumes XML whitespace and returns the first non-space byte.
func (p *Parser) skipSpace() (byte, error) {
	for {
		b, err := p.readByte()
		if err != nil {
			return 0, err
		}
		if !isXMLSpace(b) {
			return b, nil
		}
	}
}

// readUntil consumes input through the first occurrence of the marker.
// When keep is set, what came before it is appended to enc as the body of
// a string begun there, which must stay within maxStringLen.
func (p *Parser) readUntil(marker string, keep bool) error {
	rest := p.buf[p.pos:]
	if j := bytes.Index(rest, []byte(marker)); j >= 0 {
		p.pos += j + len(marker)
		if keep {
			if j > maxStringLen {
				return tooLong("CDATA section")
			}
			p.enc = append(p.enc, rest[:j]...)
		}
		return nil
	}
	// The construct runs past the window: scan byte by byte. A kept body
	// grows in enc, which holds the marker's bytes until it completes;
	// otherwise scratch holds just the last len(marker)-1 bytes.
	dst, off := p.scratch[:0], 0
	if keep {
		dst, off = p.enc, len(p.enc)
	}
	for {
		b, err := p.readByte()
		if err != nil {
			return truncated(err, "missing %q terminator", marker)
		}
		dst = append(dst, b)
		if n := len(dst); n-off >= len(marker) && string(dst[n-len(marker):]) == marker {
			dst = dst[:n-len(marker)]
			break
		}
		if keep && len(dst)-off > maxStringLen+len(marker)-1 {
			return tooLong("CDATA section")
		}
		if !keep && len(dst) >= 64 {
			tail := len(marker) - 1
			dst = append(dst[:0], dst[len(dst)-tail:]...)
		}
	}
	if keep {
		p.enc = dst
	} else {
		p.scratch = dst
	}
	return nil
}

func isSpaceOnly(b []byte) bool {
	for _, c := range b {
		if !isXMLSpace(c) {
			return false
		}
	}
	return true
}

func isXMLSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\n'
}

func isNameStart(b byte) bool { return nameBytes[b]&nameStart != 0 }

func isNameByte(b byte) bool { return nameBytes[b] != 0 }

// nameBytes classifies the bytes that may start an XML name (nameStart) or
// continue one (nameMore, or nameStart). Every byte of a multi-byte UTF-8
// sequence counts as a name byte.
var nameBytes = func() (t [256]uint8) {
	for b := 0; b < 256; b++ {
		switch {
		case b == '_' || b == ':' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || b >= 0x80:
			t[b] = nameStart
		case b == '-' || b == '.' || '0' <= b && b <= '9':
			t[b] = nameMore
		}
	}
	return t
}()

const (
	nameStart uint8 = 1 << iota
	nameMore
)
