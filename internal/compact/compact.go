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
//     byte plus any ordering key), and so does the decoder; xmltok.Writer
//     restores them from its stack of open tag names, the "structure
//     similar to the path stack" the paper describes for regenerating end
//     tags during output. NEXSORT's default layout writes every end tag in
//     its runs nameless, so the one stack serves both.
//
// Both transforms are stream codecs over encoded tokens (xmltok.Encoded
// views) that compose with any encoded-token pipeline: each reads a view
// and appends the transformed token's encoding. core.Options.Compact
// threads them around NEXSORT's data stack and runs, and
// extsort.XMLOptions.Compact around the baseline's key-path records. A
// dictionary lookup indexes its map with the name's bytes, which allocates
// nothing, so a stream of known names is transformed without allocating.
//
// The paper's stronger variant, which drops end tags entirely by keeping
// level numbers with start tags, is not built: in the binary token form an
// elided end tag is 2 bytes, so level numbers would save about one byte per
// element.
package compact

import (
	"bytes"
	"fmt"
	"strconv"

	"nexsort/internal/xmltok"
)

// Dictionary maps names to short aliases and back. Aliases are the
// decimal form of dense integer IDs, so a name costs 1-3 bytes in the
// working structures regardless of its length.
type Dictionary struct {
	toAlias map[string][]byte
	toName  [][]byte
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{toAlias: make(map[string][]byte)}
}

// Alias returns the alias for name, assigning the next ID on first sight.
// The alias belongs to the dictionary.
func (d *Dictionary) Alias(name []byte) []byte {
	if a, ok := d.toAlias[string(name)]; ok {
		return a
	}
	a := strconv.AppendInt(nil, int64(len(d.toName)), 10)
	d.toAlias[string(name)] = a
	d.toName = append(d.toName, bytes.Clone(name))
	return a
}

// Name resolves an alias back to the original name, which belongs to the
// dictionary.
func (d *Dictionary) Name(alias []byte) ([]byte, error) {
	id, err := strconv.Atoi(string(alias))
	if err != nil || id < 0 || id >= len(d.toName) {
		return nil, fmt.Errorf("compact: unknown name alias %q", alias)
	}
	return d.toName[id], nil
}

// Len returns the number of distinct names seen.
func (d *Dictionary) Len() int { return len(d.toName) }

// Encoder compacts a token stream: names become dictionary aliases and
// end-tag names are elided. Attribute values, text and ordering keys pass
// through unchanged.
type Encoder struct {
	dict  *Dictionary
	alias func([]byte) ([]byte, error)
	enc   []byte
	view  xmltok.Encoded
}

// NewEncoder returns an encoder over dict.
func NewEncoder(dict *Dictionary) *Encoder {
	return &Encoder{dict: dict, alias: func(name []byte) ([]byte, error) { return dict.Alias(name), nil }}
}

// Encode compacts one token. The result is tok itself for a text token,
// and otherwise a view of the encoder's that is valid until the next call.
func (e *Encoder) Encode(tok *xmltok.Encoded) (*xmltok.Encoded, error) {
	var name []byte
	switch tok.Kind() {
	case xmltok.KindStart:
		name = e.dict.Alias(tok.Name())
	case xmltok.KindEnd:
		// Elided: xmltok.Writer restores it from its open elements.
	case xmltok.KindRunPtr:
		if len(tok.Name()) > 0 {
			name = e.dict.Alias(tok.Name())
		}
	default:
		return tok, nil
	}
	e.enc, _ = tok.AppendRenamed(e.enc[:0], name, e.alias)
	return scan(&e.view, e.enc)
}

// Decoder restores a compacted token stream for an xmltok.Writer: start
// tags and run pointers get their names back, and end tags come out
// nameless, for the writer to close with its open elements' names.
type Decoder struct {
	dict *Dictionary
	enc  []byte
	view xmltok.Encoded
}

// NewDecoder returns a decoder over dict.
func NewDecoder(dict *Dictionary) *Decoder { return &Decoder{dict: dict} }

// Decode restores one token. The result is tok itself for a text token,
// and otherwise a view of the decoder's that is valid until the next call.
// An end tag's name, elided or an alias, is dropped.
func (d *Decoder) Decode(tok *xmltok.Encoded) (*xmltok.Encoded, error) {
	var name []byte
	var err error
	switch tok.Kind() {
	case xmltok.KindStart:
		if name, err = d.dict.Name(tok.Name()); err != nil {
			return nil, err
		}
	case xmltok.KindEnd:
	case xmltok.KindRunPtr:
		if len(tok.Name()) > 0 {
			if name, err = d.dict.Name(tok.Name()); err != nil {
				return nil, err
			}
		}
	default:
		return tok, nil
	}
	if d.enc, err = tok.AppendRenamed(d.enc[:0], name, d.dict.Name); err != nil {
		return nil, err
	}
	return scan(&d.view, d.enc)
}

// scan points v at the token in b.
func scan(v *xmltok.Encoded, b []byte) (*xmltok.Encoded, error) {
	if _, ok := v.Scan(b); !ok {
		return nil, fmt.Errorf("compact: corrupt token of %d bytes", len(b))
	}
	return v, nil
}
