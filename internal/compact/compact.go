// Package compact implements the XML compaction techniques of Section 3.2,
// which the paper's evaluation enables for both NEXSORT and the merge-sort
// baseline: "compression of tag names and elimination of end tags".
//
//   - Name dictionary: every distinct tag and attribute name is replaced
//     by a short numeric alias on its way into the sorter's working
//     structures (data stack, sorted runs) and restored on the way out.
//     XML "contains many repeated occurrences of labels such as tag and
//     attribute names"; the dictionary is the paper's "each unique string
//     can be converted to an integer before sorting and back during
//     output". The vocabulary of a document is DTD-sized, so the table
//     lives in memory.
//
//   - End-tag elimination: "labels inside end tags can be eliminated since
//     they merely repeat the same information in matching start tags".
//     The encoder blanks end-tag names (an end token shrinks to its kind
//     byte plus any ordering key); the decoder restores them from a stack
//     of open tag names, the "structure similar to the path stack" the
//     paper describes for regenerating end tags during output.
//
// Both transforms are stream codecs over xmltok.Token and compose with any
// token pipeline; core.Options.Compact threads them around NEXSORT's data
// stack and runs.
//
// The paper's stronger variant, which drops end tags entirely by keeping
// level numbers with start tags, is not built: in the binary token form an
// elided end tag is 2 bytes, so level numbers would save about one byte per
// element.
package compact

import (
	"fmt"
	"strconv"

	"nexsort/internal/xmltok"
)

// Dictionary maps names to short aliases and back. Aliases are the
// decimal form of dense integer IDs, so a name costs 1-3 bytes in the
// working structures regardless of its length.
type Dictionary struct {
	toAlias map[string]string
	toName  []string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{toAlias: make(map[string]string)}
}

// Alias returns the alias for name, assigning the next ID on first sight.
func (d *Dictionary) Alias(name string) string {
	if a, ok := d.toAlias[name]; ok {
		return a
	}
	a := strconv.Itoa(len(d.toName))
	d.toAlias[name] = a
	d.toName = append(d.toName, name)
	return a
}

// Name resolves an alias back to the original name.
func (d *Dictionary) Name(alias string) (string, error) {
	id, err := strconv.Atoi(alias)
	if err != nil || id < 0 || id >= len(d.toName) {
		return "", fmt.Errorf("compact: unknown name alias %q", alias)
	}
	return d.toName[id], nil
}

// Len returns the number of distinct names seen.
func (d *Dictionary) Len() int { return len(d.toName) }

// Encoder compacts a token stream: names become dictionary aliases and
// end-tag names are elided. Attribute values, text and ordering keys pass
// through unchanged.
type Encoder struct {
	dict *Dictionary
}

// NewEncoder returns an encoder over dict.
func NewEncoder(dict *Dictionary) *Encoder { return &Encoder{dict: dict} }

// Encode compacts one token. The returned token shares the input's value
// strings.
func (e *Encoder) Encode(tok xmltok.Token) xmltok.Token {
	switch tok.Kind {
	case xmltok.KindStart:
		out := tok
		out.Name = e.dict.Alias(tok.Name)
		if len(tok.Attrs) > 0 {
			out.Attrs = make([]xmltok.Attr, len(tok.Attrs))
			for i, a := range tok.Attrs {
				out.Attrs[i] = xmltok.Attr{Name: e.dict.Alias(a.Name), Value: a.Value}
			}
		}
		return out
	case xmltok.KindEnd:
		out := tok
		out.Name = "" // restored from the open-tag stack on decode
		return out
	case xmltok.KindRunPtr:
		out := tok
		if tok.Name != "" {
			out.Name = e.dict.Alias(tok.Name)
		}
		return out
	default:
		return tok
	}
}

// Decoder restores a compacted token stream. It keeps the stack of open
// (original) tag names needed to regenerate end tags.
type Decoder struct {
	dict *Dictionary
	open []string
}

// NewDecoder returns a decoder over dict.
func NewDecoder(dict *Dictionary) *Decoder { return &Decoder{dict: dict} }

// Depth returns the number of currently open elements.
func (d *Decoder) Depth() int { return len(d.open) }

// Decode restores one token.
func (d *Decoder) Decode(tok xmltok.Token) (xmltok.Token, error) {
	switch tok.Kind {
	case xmltok.KindStart:
		out := tok
		name, err := d.dict.Name(tok.Name)
		if err != nil {
			return tok, err
		}
		out.Name = name
		if len(tok.Attrs) > 0 {
			out.Attrs = make([]xmltok.Attr, len(tok.Attrs))
			for i, a := range tok.Attrs {
				an, err := d.dict.Name(a.Name)
				if err != nil {
					return tok, err
				}
				out.Attrs[i] = xmltok.Attr{Name: an, Value: a.Value}
			}
		}
		d.open = append(d.open, name)
		return out, nil
	case xmltok.KindEnd:
		if len(d.open) == 0 {
			return tok, fmt.Errorf("compact: end tag with no open element")
		}
		out := tok
		out.Name = d.open[len(d.open)-1]
		d.open = d.open[:len(d.open)-1]
		return out, nil
	case xmltok.KindRunPtr:
		out := tok
		if tok.Name != "" {
			name, err := d.dict.Name(tok.Name)
			if err != nil {
				return tok, err
			}
			out.Name = name
		}
		return out, nil
	default:
		return tok, nil
	}
}
