package keypath

import (
	"encoding/binary"
	"fmt"
	"math"

	"nexsort/internal/sortkey"
	"nexsort/internal/xmltok"
)

// Extractor turns an annotated token stream (keys present on start tags, as
// the Annotator produces for start-resolvable criteria) into encoded
// key-path records, one per element, text node and run pointer.
//
// The extractor keeps the current root-to-element path and one child
// counter per open element in memory. This mirrors the paper's baseline:
// the key-path generator inherently carries the full current path — the
// very space overhead on tall documents that Section 1 criticizes the
// baseline for, reproduced here faithfully. The path is kept encoded, so a
// record copies its ancestors' bytes once instead of re-encoding each one.
type Extractor struct {
	path     []byte  // encoded components of the open elements
	starts   []int   // offset in path of each open element's component
	childSeq []int64 // next child sequence number per open element; [0] is a virtual super-root
}

// NewExtractor returns an empty extractor.
func NewExtractor() *Extractor {
	return &Extractor{childSeq: []int64{0}}
}

// Depth returns the number of currently open elements.
func (e *Extractor) Depth() int { return len(e.starts) }

// Append consumes one token. For start tags, text and run pointers it
// appends the node's encoded record — the bytes AppendRecord writes for
// it — to dst and returns ok = true; end tags return dst as it is and
// ok = false.
func (e *Extractor) Append(dst []byte, tok xmltok.Token) (out []byte, ok bool, err error) {
	switch tok.Kind {
	case xmltok.KindStart:
		if !tok.HasKey {
			return dst, false, fmt.Errorf("%w: start tag <%s> has no key", ErrKeyNotResolvable, tok.Name)
		}
		e.starts = append(e.starts, len(e.path))
		e.path = appendComponent(e.path, tok.Key, e.nextSeq())
		e.childSeq = append(e.childSeq, 0)
		dst = binary.AppendUvarint(dst, uint64(len(e.starts)))
		dst = append(dst, e.path...)

	case xmltok.KindText, xmltok.KindRunPtr:
		key := tok.Key
		if tok.Kind == xmltok.KindText {
			key = ""
		}
		dst = binary.AppendUvarint(dst, uint64(len(e.starts)+1))
		dst = append(dst, e.path...)
		dst = appendComponent(dst, key, e.nextSeq())

	case xmltok.KindEnd:
		top := len(e.starts) - 1
		if top < 0 {
			return dst, false, fmt.Errorf("keypath: end tag </%s> with no open element", tok.Name)
		}
		e.path = e.path[:e.starts[top]]
		e.starts = e.starts[:top]
		e.childSeq = e.childSeq[:len(e.childSeq)-1]
		return dst, false, nil

	default:
		return dst, false, fmt.Errorf("keypath: unsupported token kind %v", tok.Kind)
	}
	return xmltok.AppendToken(dst, tok), true, nil
}

func (e *Extractor) nextSeq() int64 {
	top := len(e.childSeq) - 1
	seq := e.childSeq[top]
	e.childSeq[top]++
	return seq
}

// Builder reconstructs a token stream from encoded records arriving in
// sorted order: the depth-first traversal of the sorted document. It emits
// start tags as paths extend, and end tags as paths retreat — including the
// final end tags on Finish. Like the extractor, it holds the open path in
// memory, encoded: a record's ancestors are matched against it byte for
// byte and never decoded, and only the node's own token is.
type Builder struct {
	open  []byte   // encoded components of the open chain
	ends  []int    // end offset in open of each open component
	names []string // element name of each open component
	dec   xmltok.Decoder
	emit  func(xmltok.Token) error
}

// NewBuilder creates a builder that sends reconstructed tokens to emit.
func NewBuilder(emit func(xmltok.Token) error) *Builder {
	return &Builder{emit: emit}
}

// Add consumes the next encoded record of a sorted stream.
//
// The record's shared ancestors are the open components that end at or
// before the first byte where its path differs from the open chain; the
// rest are closed. Components are written with minimal varints, so they
// are equal exactly when their bytes are; a non-minimal varint can only
// come from corruption, and it fails here as a parent that is not open.
// Every component is validated as ReadRecord validates it: the shared
// ones were, when they were opened, and the node's own one is now.
func (b *Builder) Add(rec []byte) error {
	n, pos := binary.Uvarint(rec)
	switch {
	case pos <= 0:
		return fmt.Errorf("keypath: corrupt record: path length header")
	case n == 0:
		return fmt.Errorf("keypath: record with empty path")
	case n > maxPathLen:
		return fmt.Errorf("keypath: corrupt record: path length %d", n)
	}
	diff := sortkey.CommonPrefix(rec[pos:], b.open)
	keep := len(b.ends)
	for keep > 0 && b.ends[keep-1] > diff {
		keep--
	}
	keep = int(min(uint64(keep), n-1)) // the node's own component is never shared
	if uint64(keep) != n-1 {
		return fmt.Errorf("keypath: record at depth %d arrived with parent not open (records out of order?)", n)
	}
	own := pos
	if keep > 0 {
		own += b.ends[keep-1]
	}
	end, err := checkComponent(rec, own)
	if err != nil {
		return err
	}
	tok, err := b.dec.DecodeToken(rec[end:])
	if err != nil {
		return fmt.Errorf("keypath: corrupt record: %w", err)
	}
	for len(b.ends) > keep {
		if err := b.closeTop(); err != nil {
			return err
		}
	}
	switch tok.Kind {
	case xmltok.KindStart:
		if err := b.emit(tok); err != nil {
			return err
		}
		b.open = append(b.open, rec[own:end]...)
		b.ends = append(b.ends, len(b.open))
		b.names = append(b.names, tok.Name)
		return nil
	case xmltok.KindText, xmltok.KindRunPtr:
		return b.emit(tok)
	default:
		return fmt.Errorf("keypath: record holds unsupported token kind %v", tok.Kind)
	}
}

// checkComponent validates the component at pos as ReadRecord does and
// returns the offset just past it.
func checkComponent(rec []byte, pos int) (int, error) {
	keyLen, k := binary.Uvarint(rec[pos:])
	if k <= 0 {
		return 0, fmt.Errorf("keypath: corrupt record: key length")
	}
	pos += k
	if keyLen > maxPathLen || keyLen > uint64(len(rec)-pos) {
		return 0, fmt.Errorf("keypath: corrupt record: key length %d", keyLen)
	}
	pos += int(keyLen)
	seq, k := binary.Uvarint(rec[pos:])
	if k <= 0 {
		return 0, fmt.Errorf("keypath: corrupt record: seq")
	}
	if seq > math.MaxInt64 {
		return 0, fmt.Errorf("keypath: corrupt record: seq %d overflows", seq)
	}
	return pos + k, nil
}

func (b *Builder) closeTop() error {
	top := len(b.ends) - 1
	name := b.names[top]
	b.ends = b.ends[:top]
	b.names = b.names[:top]
	start := 0
	if top > 0 {
		start = b.ends[top-1]
	}
	b.open = b.open[:start]
	return b.emit(xmltok.Token{Kind: xmltok.KindEnd, Name: name})
}

// Finish closes all remaining open elements.
func (b *Builder) Finish() error {
	for len(b.ends) > 0 {
		if err := b.closeTop(); err != nil {
			return err
		}
	}
	return nil
}
