package xmltok

import (
	"fmt"
	"io"
)

// Writer serializes a token stream back into a textual XML document. It
// tracks nesting so that optional indentation is correct, and escapes text
// and attribute values so that Parse(Write(tokens)) round-trips. Each token
// is built in one reusable buffer and handed to the underlying writer in a
// single Write.
type Writer struct {
	w      io.Writer
	indent string // per-level indentation; empty means compact output
	depth  int
	// lastWasStart tracks whether the previous token opened an element,
	// so indented output can collapse <a>text</a> onto one line.
	lastKind  Kind
	wroteAny  bool
	textInRow bool
	buf       []byte
	err       error

	// enc and view hold a token WriteToken encodes for WriteEncoded.
	enc  []byte
	view Encoded
}

// NewWriter writes compact XML (no added whitespace) to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, lastKind: KindEnd} }

// NewIndentWriter writes XML indented with the given unit string per level.
func NewIndentWriter(w io.Writer, indent string) *Writer {
	return &Writer{w: w, indent: indent, lastKind: KindEnd}
}

// flush writes the bytes of one token and keeps the buffer for the next.
// Callers return early once w.err is set, so it holds the first failure.
func (w *Writer) flush(b []byte) {
	w.buf = b[:0]
	if len(b) > 0 {
		_, w.err = w.w.Write(b)
	}
}

func (w *Writer) appendNewlineIndent(b []byte, depth int) []byte {
	if w.indent == "" {
		return b
	}
	if w.wroteAny {
		b = append(b, '\n')
	}
	for i := 0; i < depth; i++ {
		b = append(b, w.indent...)
	}
	return b
}

// WriteToken appends one token to the document. Run-pointer tokens are
// rejected — they are internal to the binary codec and must be resolved
// before serialization. The token is encoded into the writer's scratch and
// written by WriteEncoded, so both entry points share one serializer.
func (w *Writer) WriteToken(t Token) error {
	if w.err != nil {
		return w.err
	}
	switch t.Kind {
	case KindStart, KindEnd, KindText:
	default:
		return fmt.Errorf("xmltok: cannot serialize %v token", t.Kind)
	}
	t.HasKey, t.Key = false, ""
	w.enc = AppendToken(w.enc[:0], t)
	w.view.scan(w.enc, ^uint64(0))
	return w.WriteEncoded(&w.view)
}

// WriteEncoded appends one encoded token to the document, taking names,
// attribute values and text straight from its bytes; ordering keys are
// ignored. Run pointers are rejected, as by WriteToken.
func (w *Writer) WriteEncoded(e *Encoded) error {
	if w.err != nil {
		return w.err
	}
	b := w.buf[:0]
	switch e.Kind() {
	case KindStart:
		b = w.appendNewlineIndent(b, w.depth)
		b = append(b, '<')
		b = append(b, e.Name()...)
		c := e.attrCursor()
		for range e.nAttrs {
			b = append(b, ' ')
			b = append(b, c.bytes()...)
			b = append(b, '=', '"')
			b = appendEscaped(b, c.bytes(), true)
			b = append(b, '"')
		}
		b = append(b, '>')
		w.depth++
	case KindEnd:
		w.depth--
		if w.depth < 0 {
			return fmt.Errorf("xmltok: end tag </%s> with no open element", e.Name())
		}
		// Keep </a> on the same line when the element contained only
		// text (or nothing).
		if w.lastKind != KindStart && !w.textInRow {
			b = w.appendNewlineIndent(b, w.depth)
		}
		b = append(b, '<', '/')
		b = append(b, e.Name()...)
		b = append(b, '>')
	case KindText:
		b = appendEscaped(b, e.Text(), false)
	default:
		return fmt.Errorf("xmltok: cannot serialize %v token", e.Kind())
	}
	w.flush(b)
	w.textInRow = e.Kind() == KindText
	w.lastKind = e.Kind()
	w.wroteAny = true
	return w.err
}

// Close verifies the document is balanced and flushes the final newline in
// indented mode. It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.depth != 0 {
		return fmt.Errorf("xmltok: document closed with %d open elements", w.depth)
	}
	if w.indent != "" && w.wroteAny {
		w.flush(append(w.buf[:0], '\n'))
	}
	return w.err
}

// appendEscaped appends s to dst with the markup characters replaced by
// entity references: &, < and > in text; &, < and " in attribute values.
// Runs between them are copied whole.
func appendEscaped(dst []byte, s []byte, attr bool) []byte {
	mask := escText
	if attr {
		mask = escAttr
	}
	last := 0
	for i := 0; i < len(s); i++ {
		if escapes[s[i]]&mask == 0 {
			continue
		}
		dst = append(dst, s[last:i]...)
		switch s[i] {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		}
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// escapes marks the bytes appendEscaped replaces in text and in attribute
// values.
var escapes = [256]uint8{'&': escText | escAttr, '<': escText | escAttr, '>': escText, '"': escAttr}

const (
	escText uint8 = 1 << iota
	escAttr
)
