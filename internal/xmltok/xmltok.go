// Package xmltok is the streaming XML layer beneath every algorithm in this
// repository: an event-based parser in the style of SAX (which the paper's
// Line 2 "loop ... can be implemented using a simple event-based XML parser"
// calls for), a serializer that turns the event stream back into a textual
// document, and a compact binary codec used to spool events through
// external-memory structures (the data stack and sorted runs). Tokens move
// as their encoding from the parser on: the parser writes each token's
// binary encoding straight from its input window and returns an Encoded
// view of it, which the sorters annotate, re-key, index and copy, and which
// the writer serializes, without decoding it into a Token. Token, and the
// parser's Next that decodes a view into one, serve the callers that want
// strings: the structural merge, the in-memory oracle and tests.
//
// The parser handles the XML subset relevant to data-centric documents:
// elements, attributes with single- or double-quoted values, character data,
// CDATA sections, comments, processing instructions, the XML declaration,
// DOCTYPE declarations (skipped, including an internal subset), and the five
// predefined entities plus numeric character references. It is deliberately
// not a validating parser; it checks well-formedness (tag balance).
package xmltok

import (
	"errors"
	"fmt"
)

// Kind discriminates token types.
type Kind byte

// Token kinds. KindRunPtr never occurs in textual XML; it is the
// NEXSORT-internal pseudo-token that replaces a collapsed subtree with a
// pointer to its sorted run (Figure 2 of the paper) when events are spooled
// through the binary codec.
const (
	// KindStart is a start tag, e.g. <region name="NE">. A self-closing
	// tag produces a KindStart immediately followed by a KindEnd.
	KindStart Kind = iota
	// KindEnd is an end tag, e.g. </region>.
	KindEnd
	// KindText is character data (entity references resolved, CDATA
	// included verbatim).
	KindText
	// KindRunPtr is a pointer to a sorted run (binary codec only).
	KindRunPtr
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindStart:
		return "start"
	case KindEnd:
		return "end"
	case KindText:
		return "text"
	case KindRunPtr:
		return "runptr"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// Attr is a single attribute on a start tag.
type Attr struct {
	Name  string
	Value string
}

// Token is one event of the stream.
//
// Key and HasKey exist for the binary codec only: the sorting pipeline
// annotates tokens with the element's computed ordering key (on the start
// tag when the criterion is resolvable from the tag alone, always on the end
// tag, and always on run pointers) so that downstream subtree sorts never
// re-evaluate ordering expressions. The textual parser never sets them and
// the textual writer ignores them.
type Token struct {
	Kind  Kind
	Name  string // tag name for KindStart, KindEnd and KindRunPtr
	Attrs []Attr // KindStart only
	Text  string // KindText only
	Run   int64  // KindRunPtr only: sorted-run identifier

	Key    string // computed ordering key (binary codec only)
	HasKey bool   // whether Key is meaningful
}

// ErrMalformed wraps well-formedness failures found while parsing.
var ErrMalformed = errors.New("xmltok: malformed XML")

func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
}

// ErrTooLong is the parser's error for a name, attribute value, text or
// attribute count over the token codec's limit, which no token can hold.
// It is reported where the string outgrows the limit, before the token is
// returned.
var ErrTooLong = fmt.Errorf("xmltok: over the token codec's limit of %d MiB", maxStringLen>>20)

func tooLong(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrTooLong, fmt.Sprintf(format, args...))
}
