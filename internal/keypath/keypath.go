// Package keypath implements the key-path representation of an XML document
// (Table 1 of the paper): one record per node, carrying the concatenation
// of the ordering keys of all elements along the path from the root. The
// regular external-merge-sort competitor sorts these records; because key
// paths encode every ancestor, sorting the records by path order preserves
// all parent–child relationships, and the sorted record stream is exactly
// the depth-first traversal of the sorted document.
//
// Each path component is the pair (key, seq): the ancestor's ordering key
// plus its original position among its siblings, the uniqueness device of
// Section 1 ("if not [unique], we can make it unique by appending it with
// the element's location in the input"). Text nodes take the empty key, so
// they sort ahead of keyed element siblings in document order — the same
// total order every other sorter in this repository uses.
//
// The package provides the record codec and comparator, the Extractor that
// turns an annotated token stream into records, and the Builder that turns
// a sorted record stream back into a token stream.
package keypath

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"nexsort/internal/sortkey"
	"nexsort/internal/xmltok"
)

// Component is one step of a key path.
type Component struct {
	// Key is the element's ordering key ("" for text nodes and for
	// elements with no applicable rule).
	Key string
	// Seq is the element's position among its siblings in the original
	// document.
	Seq int64
}

// Compare orders components by (Key, Seq).
func (c Component) Compare(o Component) int {
	if c.Key != o.Key {
		if c.Key < o.Key {
			return -1
		}
		return 1
	}
	switch {
	case c.Seq < o.Seq:
		return -1
	case c.Seq > o.Seq:
		return 1
	default:
		return 0
	}
}

// Record is one node of the key-path representation: the path from the root
// down to and including the node itself, plus the node's own content (a
// start tag with attributes, a text token, or a run pointer — never the
// node's children, which have records of their own).
type Record struct {
	Path []Component
	Tok  xmltok.Token
}

// Compare orders records by path, component-wise, with a strict path prefix
// sorting first — so a parent's record precedes all of its descendants',
// exactly the Table 1 order.
func (r Record) Compare(o Record) int {
	n := len(r.Path)
	if len(o.Path) < n {
		n = len(o.Path)
	}
	for i := 0; i < n; i++ {
		if c := r.Path[i].Compare(o.Path[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(r.Path) < len(o.Path):
		return -1
	case len(r.Path) > len(o.Path):
		return 1
	default:
		return 0
	}
}

// PathString renders the path in the paper's display form: "/" followed by
// the keys of the components below the root, separated by "/". The root's
// own (empty) key is not shown, so the root renders as "/" and a region
// with key NE under it renders as "/NE".
func (r Record) PathString() string {
	if len(r.Path) <= 1 {
		return "/"
	}
	parts := make([]string, 0, len(r.Path)-1)
	for _, c := range r.Path[1:] {
		parts = append(parts, c.Key)
	}
	return "/" + strings.Join(parts, "/")
}

// Record encoding: path length, then per component key (uvarint-prefixed
// string) and seq (uvarint), then the node token via the xmltok codec. The
// path comes first so comparisons can stop before decoding the token.

// AppendRecord appends the binary encoding of rec to dst.
func AppendRecord(dst []byte, rec Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rec.Path)))
	for _, c := range rec.Path {
		dst = appendComponent(dst, c.Key, c.Seq)
	}
	return xmltok.AppendToken(dst, rec.Tok)
}

// appendComponent appends one encoded path component. Its varints are
// minimal, so two components are equal exactly when their bytes are.
func appendComponent[K string | []byte](dst []byte, key K, seq int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return binary.AppendUvarint(dst, uint64(seq))
}

// maxPathLen bounds decoded path lengths and key lengths against corrupt
// input.
const maxPathLen = 1 << 20

// ReadRecord decodes one record from r, returning io.EOF at a clean end.
// It is the decoded reference that the encoded extractor, comparator and
// builder are tested against. The path and each key grow as their bytes
// arrive, so a corrupt count cannot size an allocation.
func ReadRecord(r io.ByteReader) (Record, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return Record{}, err
	}
	if n > maxPathLen {
		return Record{}, fmt.Errorf("keypath: corrupt record: path length %d", n)
	}
	var rec Record
	var key []byte
	for i := uint64(0); i < n; i++ {
		keyLen, err := binary.ReadUvarint(r)
		if err != nil {
			return Record{}, unexpected(err)
		}
		if keyLen > maxPathLen {
			return Record{}, fmt.Errorf("keypath: corrupt record: key length %d", keyLen)
		}
		key = key[:0]
		for j := uint64(0); j < keyLen; j++ {
			b, err := r.ReadByte()
			if err != nil {
				return Record{}, unexpected(err)
			}
			key = append(key, b)
		}
		seq, err := binary.ReadUvarint(r)
		if err != nil {
			return Record{}, unexpected(err)
		}
		if seq > math.MaxInt64 {
			// Rejecting the wrap keeps the decoded order (int64 Seq) in
			// agreement with the encoded comparator (uint64 order).
			return Record{}, fmt.Errorf("keypath: corrupt record: seq %d overflows", seq)
		}
		rec.Path = append(rec.Path, Component{Key: string(key), Seq: int64(seq)})
	}
	tok, err := xmltok.ReadToken(r)
	if err != nil {
		return Record{}, unexpected(err)
	}
	rec.Tok = tok
	return rec, nil
}

// CompareEncoded orders two encoded records without decoding their tokens.
// The order is internal/sortkey's key-path kernel, which the external
// sorter runs on; records that do not decode (truncated or
// overlong fields) get a defined total order — they sort after every valid
// continuation at the point of damage instead of silently aliasing to an
// empty key (see sortkey.CompareKeyPath).
func CompareEncoded(a, b []byte) int {
	return sortkey.CompareKeyPath(a, b)
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ErrKeyNotResolvable is returned by the Extractor when the criterion needs
// a subtree pass to compute a key. The key-path representation requires
// every ancestor's key at the moment a descendant record is emitted, so
// this baseline — like the paper's — supports start-resolvable criteria
// (attributes, tag names) only; path criteria are served by NEXSORT and the
// in-memory sorter.
var ErrKeyNotResolvable = fmt.Errorf("keypath: ordering criterion is not resolvable at start tags")
