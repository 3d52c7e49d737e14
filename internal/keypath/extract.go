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
// it, with the token's own bytes as the record's token — to dst and
// returns ok = true; end tags return dst as it is and ok = false.
func (e *Extractor) Append(dst []byte, tok *xmltok.Encoded) (out []byte, ok bool, err error) {
	switch tok.Kind() {
	case xmltok.KindStart:
		if !tok.HasKey() {
			return dst, false, fmt.Errorf("%w: start tag <%s> has no key", ErrKeyNotResolvable, tok.Name())
		}
		e.starts = append(e.starts, len(e.path))
		e.path = appendComponent(e.path, tok.Key(), e.nextSeq())
		e.childSeq = append(e.childSeq, 0)
		dst = binary.AppendUvarint(dst, uint64(len(e.starts)))
		dst = append(dst, e.path...)

	case xmltok.KindText, xmltok.KindRunPtr:
		var key []byte
		if tok.Kind() == xmltok.KindRunPtr {
			key = tok.Key()
		}
		dst = binary.AppendUvarint(dst, uint64(len(e.starts)+1))
		dst = append(dst, e.path...)
		dst = appendComponent(dst, key, e.nextSeq())

	case xmltok.KindEnd:
		top := len(e.starts) - 1
		if top < 0 {
			return dst, false, fmt.Errorf("keypath: end tag </%s> with no open element", tok.Name())
		}
		e.path = e.path[:e.starts[top]]
		e.starts = e.starts[:top]
		e.childSeq = e.childSeq[:len(e.childSeq)-1]
		return dst, false, nil

	default:
		return dst, false, fmt.Errorf("keypath: unsupported token kind %v", tok.Kind())
	}
	return append(dst, tok.Bytes()...), true, nil
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
// byte and never decoded. Tokens are emitted as views: start tags, text and
// run pointers are the record's token bytes exactly as stored, and each end
// tag is built from its open start tag's name.
type Builder struct {
	open    []byte         // encoded components of the open chain
	ends    []int          // end offset in open of each open component
	endTags []byte         // the end tag of each open element, encoded
	endOffs []int          // start offset in endTags of each open element's end tag
	tok     xmltok.Encoded // the record's token
	end     xmltok.Encoded // an end tag being emitted
	emit    func(*xmltok.Encoded) error
}

// NewBuilder creates a builder that sends reconstructed tokens to emit.
// Each view is valid only for the call.
func NewBuilder(emit func(*xmltok.Encoded) error) *Builder {
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
// ones were, when they were opened, and the node's own one is now; the
// node's token is scanned as the decoder would check it.
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
	if k, ok := b.tok.Scan(rec[end:]); !ok || k != len(rec)-end {
		return fmt.Errorf("keypath: corrupt record: token of %d bytes", len(rec)-end)
	}
	switch b.tok.Kind() {
	case xmltok.KindStart, xmltok.KindText, xmltok.KindRunPtr:
	default:
		return fmt.Errorf("keypath: record holds unsupported token kind %v", b.tok.Kind())
	}
	for len(b.ends) > keep {
		if err := b.closeTop(); err != nil {
			return err
		}
	}
	if err := b.emit(&b.tok); err != nil {
		return err
	}
	if b.tok.Kind() == xmltok.KindStart {
		b.open = append(b.open, rec[own:end]...)
		b.ends = append(b.ends, len(b.open))
		b.endOffs = append(b.endOffs, len(b.endTags))
		b.endTags = b.tok.AppendEnd(b.endTags)
	}
	return nil
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
	b.ends = b.ends[:top]
	start := 0
	if top > 0 {
		start = b.ends[top-1]
	}
	b.open = b.open[:start]
	off := b.endOffs[top]
	b.endOffs = b.endOffs[:top]
	b.end.Scan(b.endTags[off:])
	err := b.emit(&b.end)
	b.endTags = b.endTags[:off]
	return err
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
