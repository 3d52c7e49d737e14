package xmltok

import (
	"bytes"
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
	// ValidateNesting checks that every end tag matches the most recent
	// open start tag. It costs an in-memory name stack proportional to
	// document depth; disable it to honour the constant-space SAX
	// assumption of the external-memory model on adversarially deep
	// inputs.
	ValidateNesting bool
}

// DefaultParserOptions skips whitespace-only text and validates nesting.
func DefaultParserOptions() ParserOptions {
	return ParserOptions{SkipWhitespaceText: true, ValidateNesting: true}
}

// Parser is a streaming, event-based XML reader. Create one with NewParser
// and call Next until it returns io.EOF.
//
// The parser scans inside its source's window (see WindowReader): a token
// that lies wholly in the window is found with bytes.IndexByte and copied
// out once, and the window is advanced past it when Next returns. Only a
// token that straddles a window boundary, and entity references, take the
// byte-at-a-time path.
type Parser struct {
	src WindowReader
	// buf is the source's current window and pos the bytes of it the
	// parser has consumed; nil after every Advance.
	buf     []byte
	pos     int
	opts    ParserOptions
	depth   int
	started bool // a root element has been seen
	done    bool // the root element has been closed
	// pendingEnd names the self-closing tag whose end tag the next call
	// returns; empty when there is none.
	pendingEnd string
	openNames  []string // only when ValidateNesting
	// scratch accumulates whatever takes the byte-at-a-time path.
	scratch []byte
	names   interner
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

// commit advances the source past everything the parser has consumed.
func (p *Parser) commit() {
	if p.pos > 0 {
		p.src.Advance(p.pos)
	}
	p.buf, p.pos = nil, 0
}

// Next returns the next token, or io.EOF when the document is exhausted.
func (p *Parser) Next() (Token, error) {
	if name := p.pendingEnd; name != "" {
		p.pendingEnd = ""
		p.closeElement(name)
		return Token{Kind: KindEnd, Name: name}, nil
	}
	var tok Token
	err := p.next(&tok)
	p.commit()
	if err != nil {
		return Token{}, err
	}
	return tok, nil
}

// next scans the next token into tok. The parse functions below fill in a
// *Token rather than return one, because copying the struct through every
// level costs more than scanning a short tag.
func (p *Parser) next(tok *Token) error {
	for {
		b, err := p.readByte()
		if err == io.EOF {
			if p.started && !p.done {
				return malformed("unexpected end of input with %d open elements", p.depth)
			}
			return io.EOF
		}
		if err != nil {
			return err
		}
		var skip bool
		if b == '<' {
			skip, err = p.parseMarkup(tok)
		} else if p.depth == 0 {
			// Text outside the root must be whitespace.
			if !isXMLSpace(b) {
				return malformed("character data outside the root element")
			}
			skip = true
		} else {
			p.unread()
			skip, err = p.parseText(tok)
		}
		if err != nil || !skip {
			return err
		}
	}
}

// parseText reads character data up to (not including) the next '<'.
// skip=true means the text is whitespace-only and SkipWhitespaceText drops
// it.
func (p *Parser) parseText(tok *Token) (skip bool, err error) {
	rest := p.buf[p.pos:]
	if j := bytes.IndexByte(rest, '<'); j >= 0 {
		if run := rest[:j]; bytes.IndexByte(run, '&') < 0 {
			p.pos += j
			if p.opts.SkipWhitespaceText && isSpaceOnly(run) {
				return true, nil
			}
			tok.Kind, tok.Text = KindText, string(run)
			return false, nil
		}
	}
	// The text holds an entity or runs past the window.
	p.scratch = p.scratch[:0]
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
		p.scratch = append(p.scratch, rest[:k]...)
		p.pos += k
		if k == len(rest) {
			continue
		}
		if rest[k] == '<' {
			break
		}
		p.pos++ // the '&'
		if p.scratch, err = p.appendEntity(p.scratch); err != nil {
			return false, err
		}
	}
	if p.opts.SkipWhitespaceText && isSpaceOnly(p.scratch) {
		return true, nil
	}
	tok.Kind, tok.Text = KindText, string(p.scratch)
	return false, nil
}

// parseMarkup handles everything after a '<'. skip=true means the construct
// produces no token (comment, PI, doctype) — unless it is a CDATA section,
// which yields a text token.
func (p *Parser) parseMarkup(tok *Token) (skip bool, err error) {
	b, err := p.readByte()
	if err != nil {
		return false, truncated(err, "truncated markup")
	}
	switch {
	case b == '?':
		_, err := p.readUntil("?>", false)
		return true, err
	case b == '!':
		return p.parseBang(tok)
	case b == '/':
		return false, p.parseEndTag(tok)
	default:
		p.unread()
		return false, p.parseStartTag(tok)
	}
}

// parseBang handles <!-- comments, <![CDATA[ sections and <!DOCTYPE.
func (p *Parser) parseBang(tok *Token) (skip bool, err error) {
	b, err := p.readByte()
	if err != nil {
		return false, truncated(err, "truncated <! construct")
	}
	switch b {
	case '-':
		if b2, err := p.readByte(); err != nil || b2 != '-' {
			return false, truncated(err, "expected <!--")
		}
		_, err := p.readUntil("-->", false)
		return true, err
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
		text, err := p.readUntil("]]>", true)
		if err != nil {
			return false, err
		}
		if p.opts.SkipWhitespaceText && isSpaceOnly(text) {
			return true, nil
		}
		tok.Kind, tok.Text = KindText, string(text)
		return false, nil
	default:
		// <!DOCTYPE ...> possibly with an internal subset in [...].
		inSubset := false
		cur := b
		for {
			if cur == '[' {
				inSubset = true
			} else if cur == ']' {
				inSubset = false
			} else if cur == '>' && !inSubset {
				return true, nil
			}
			cur, err = p.readByte()
			if err != nil {
				return false, truncated(err, "truncated <! declaration")
			}
		}
	}
}

func (p *Parser) parseStartTag(tok *Token) error {
	if p.done {
		return malformed("second root element")
	}
	name, err := p.readName()
	if err != nil {
		return err
	}
	tok.Kind, tok.Name = KindStart, name
	for {
		b, err := p.skipSpace()
		if err != nil {
			return truncated(err, "truncated start tag <%s", name)
		}
		switch b {
		case '>':
			p.openElement(name)
			return nil
		case '/':
			if b2, err := p.readByte(); err != nil || b2 != '>' {
				return truncated(err, "expected /> in <%s", name)
			}
			p.openElement(name)
			p.pendingEnd = name
			return nil
		default:
			p.unread()
			tok.Attrs = append(tok.Attrs, Attr{})
			if err := p.readAttr(&tok.Attrs[len(tok.Attrs)-1]); err != nil {
				return err
			}
		}
	}
}

func (p *Parser) parseEndTag(tok *Token) error {
	name, err := p.readName()
	if err != nil {
		return err
	}
	b, err := p.skipSpace()
	if err != nil || b != '>' {
		return truncated(err, "malformed end tag </%s", name)
	}
	if p.depth == 0 {
		return malformed("end tag </%s> with no open element", name)
	}
	if err := p.closeElement(name); err != nil {
		return err
	}
	tok.Kind, tok.Name = KindEnd, name
	return nil
}

func (p *Parser) openElement(name string) {
	p.depth++
	p.started = true
	if p.opts.ValidateNesting {
		p.openNames = append(p.openNames, name)
	}
}

func (p *Parser) closeElement(name string) error {
	if p.opts.ValidateNesting {
		want := p.openNames[len(p.openNames)-1]
		if want != name {
			return malformed("end tag </%s> does not match open <%s>", name, want)
		}
		p.openNames = p.openNames[:len(p.openNames)-1]
	}
	p.depth--
	if p.depth == 0 {
		p.done = true
	}
	return nil
}

// readName reads an XML name (first byte already positioned at its start).
func (p *Parser) readName() (string, error) {
	b, err := p.readByte()
	if err != nil || !isNameStart(b) {
		return "", truncated(err, "expected a name")
	}
	start, i := p.pos-1, p.pos
	for i < len(p.buf) && isNameByte(p.buf[i]) {
		i++
	}
	p.pos = i
	if i < len(p.buf) {
		return p.names.intern(p.buf[start:i]), nil
	}
	// The name may run on into the next window.
	p.scratch = append(p.scratch[:0], p.buf[start:i]...)
	for {
		b, err = p.readByte()
		if err != nil {
			break
		}
		if !isNameByte(b) {
			p.unread()
			break
		}
		p.scratch = append(p.scratch, b)
	}
	return p.names.intern(p.scratch), nil
}

// readAttr reads name="value" (either quote style) into a, entity-decoding
// the value.
func (p *Parser) readAttr(a *Attr) error {
	name, err := p.readName()
	if err != nil {
		return err
	}
	b, err := p.skipSpace()
	if err != nil || b != '=' {
		return truncated(err, "attribute %s missing '='", name)
	}
	quote, err := p.skipSpace()
	if err != nil || (quote != '"' && quote != '\'') {
		return truncated(err, "attribute %s missing quote", name)
	}
	a.Name = name
	rest := p.buf[p.pos:]
	if j := bytes.IndexByte(rest, quote); j >= 0 {
		if run := rest[:j]; bytes.IndexByte(run, '&') < 0 && bytes.IndexByte(run, '<') < 0 {
			p.pos += j + 1
			a.Value = string(run)
			return nil
		}
	}
	// The value holds an entity or a stray '<', or runs past the window.
	p.scratch = p.scratch[:0]
	for {
		b, err := p.readByte()
		if err != nil {
			return truncated(err, "unterminated value for attribute %s", name)
		}
		if b == quote {
			break
		}
		if b == '&' {
			if p.scratch, err = p.appendEntity(p.scratch); err != nil {
				return err
			}
			continue
		}
		if b == '<' {
			return malformed("raw '<' in value of attribute %s", name)
		}
		p.scratch = append(p.scratch, b)
	}
	a.Value = string(p.scratch)
	return nil
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

// readUntil consumes input through the first occurrence of the marker and,
// when keep is set, returns what came before it; otherwise it returns nil.
// The result aliases the window or the scratch buffer, so it is valid only
// until the next read.
func (p *Parser) readUntil(marker string, keep bool) ([]byte, error) {
	rest := p.buf[p.pos:]
	if j := bytes.Index(rest, []byte(marker)); j >= 0 {
		p.pos += j + len(marker)
		if !keep {
			return nil, nil
		}
		return rest[:j], nil
	}
	// The construct runs past the window: scan byte by byte, holding the
	// last len(marker)-1 bytes when the body is not kept.
	p.scratch = p.scratch[:0]
	for {
		b, err := p.readByte()
		if err != nil {
			return nil, truncated(err, "missing %q terminator", marker)
		}
		p.scratch = append(p.scratch, b)
		if n := len(p.scratch); n >= len(marker) && string(p.scratch[n-len(marker):]) == marker {
			if !keep {
				return nil, nil
			}
			return p.scratch[:n-len(marker)], nil
		}
		if !keep && len(p.scratch) >= 64 {
			tail := len(marker) - 1
			p.scratch = append(p.scratch[:0], p.scratch[len(p.scratch)-tail:]...)
		}
	}
}

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
