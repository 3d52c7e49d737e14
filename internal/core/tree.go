package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"nexsort/internal/xmltok"
)

// tokenTree is NEXSORT's in-memory subtree sort (Figure 4, Line 11) over
// encoded tokens. It copies a subtree's token bytes once into its buffer
// and indexes them: per node, where its token is, its ordering key, and for
// an element its child list as one contiguous segment of kids. Sorting
// reorders those segments; emission writes the tokens back out in the new
// order. No token is decoded and no string is made.
//
// With keyed set, which the paper's layout sets, the emitted bytes are
// exactly what the reference — xmltree.FromTokens, SortToDepth, EmitTokens,
// then xmltok.AppendToken — writes for the same stream, so the runs, and
// with them the I/O ledger, do not depend on which of the two sorted:
//
//   - an element's key comes from its end tag when that has one, else from
//     its start tag (xmltree.FromFirst); a run pointer keeps its own key;
//     text has the empty key;
//   - child lists are sorted by (key, position), keys in byte order
//     (keys.Compare), down to the depth limit;
//   - each start tag is re-keyed with its element's key and its level
//     dropped, and its end tag is the key-less end tag built from the start
//     tag's name; text is copied, and each run pointer is re-keyed with its
//     own key.
//
// Without it, the default layout's run format, the bytes are the
// reference's with what no reader of a run needs dropped: every start tag
// without its key, every end tag without its name, and every run pointer
// with its run ID alone. The output phase compares nothing in a run, and
// xmltok.Writer restores each end tag's name from its open elements.
//
// The buffer and the index stand where the xmltree's grant stood: the
// budget models them at the subtree's encoded size. A tree is reused across
// sorts, so its buffers are allocated once per size reached.
type tokenTree struct {
	buf   []byte
	nodes []treeNode // nodes[0] is a virtual root holding the top-level nodes
	kids  []int32

	open    []openElem  // elements open while indexing, the virtual root first
	pending []int32     // children of open elements, not yet closed into kids
	sorting []kidPrefix // one child list being sorted
	scratch []byte      // one re-encoded token being emitted
	record  recordSink  // the child record being emitted, held here so it is not allocated per record

	// keyed selects the paper layout's run format for emit.
	keyed bool
}

// treeNode is one indexed node: what index found in its token, as offsets
// into the tree's buffer, so that emission re-encodes it without scanning
// it again.
type treeNode struct {
	off, head, end int32 // the token (an element's start tag) is buf[off:end]; its key begins at head
	name           span32
	key            span32 // an element's key: its end tag's when that has one
	kind           xmltok.Kind
	seq            int32 // position among its siblings, set for top-level nodes
	first          int32 // an element's child list is kids[first : first+n]
	n              int32
}

// span32 is a byte range of the tree's buffer.
type span32 struct{ off, end int32 }

type openElem struct {
	node    int32
	pending int // len(pending) when the element opened
	level   int
}

// kidPrefix is a child being sorted, with its key's first 8 bytes, zero
// padded, as a big-endian integer: ordering those decides most comparisons
// as bytes.Compare on the keys would.
type kidPrefix struct {
	prefix uint64
	node   int32
}

// sortLevels is the deepest level, counting the subtree's root as level 1,
// whose child lists a depth limit relLimit sorts; relLimit 0 means no limit.
func sortLevels(relLimit int) int {
	if relLimit == 0 {
		return math.MaxInt
	}
	return relLimit
}

// load copies size bytes of tokens from r into the buffer. Nodes are
// indexed by int32, which no subtree under 2 GiB can overflow.
func (t *tokenTree) load(r io.Reader, size int64) error {
	if size > math.MaxInt32 {
		return fmt.Errorf("core: in-memory subtree sort of %d bytes", size)
	}
	t.buf = slices.Grow(t.buf[:0], int(size))[:size]
	_, err := io.ReadFull(r, t.buf)
	return err
}

// index scans the buffer as a sequence of complete sibling subtrees, the
// top-level nodes, which sit at level base and become the virtual root's
// children in stream order. The child lists of elements at levels up to
// maxLevel are sorted as they close; the top-level list is left to the
// caller. It checks the stream as xmltree.FromTokens does: each end tag
// matches its start tag by name (a name elided by compaction matches any)
// and every element is closed.
func (t *tokenTree) index(base, maxLevel int) error {
	t.nodes = append(t.nodes[:0], treeNode{kind: xmltok.KindStart})
	t.kids = t.kids[:0]
	t.pending = t.pending[:0]
	t.open = append(t.open[:0], openElem{level: base - 1})
	var v xmltok.Encoded
	for p := 0; p < len(t.buf); {
		n, ok := v.Scan(t.buf[p:])
		if !ok {
			return fmt.Errorf("core: corrupt token at byte %d of a subtree", p)
		}
		nd := treeNode{off: int32(p), head: int32(p + v.HeadLen()), end: int32(p + n), kind: v.Kind()}
		nameOff, nameEnd := v.NameSpan()
		nd.name = span32{int32(p + nameOff), int32(p + nameEnd)}
		nd.key = span32{nd.head, nd.end}
		if v.HasKey() {
			nd.key.off = nd.end - int32(len(v.Key()))
		}
		p += n
		idx := int32(len(t.nodes))
		switch v.Kind() {
		case xmltok.KindStart:
			t.nodes = append(t.nodes, nd)
			t.pending = append(t.pending, idx)
			level := t.open[len(t.open)-1].level + 1
			t.open = append(t.open, openElem{node: idx, pending: len(t.pending), level: level})
		case xmltok.KindText, xmltok.KindRunPtr:
			t.nodes = append(t.nodes, nd)
			t.pending = append(t.pending, idx)
		case xmltok.KindEnd:
			if len(t.open) == 1 {
				return fmt.Errorf("core: end tag </%s> with no open element", v.Name())
			}
			el := t.open[len(t.open)-1]
			elName := t.bytes(t.nodes[el.node].name)
			if name := v.Name(); len(name) > 0 && !bytes.Equal(name, elName) {
				return fmt.Errorf("core: end tag </%s> does not match <%s>", name, elName)
			}
			if v.HasKey() {
				t.nodes[el.node].key = nd.key
			}
			t.close(el)
			if el.level <= maxLevel {
				t.sortKids(el.node)
			}
			t.open = t.open[:len(t.open)-1]
		}
	}
	if len(t.open) != 1 {
		return io.ErrUnexpectedEOF
	}
	t.close(t.open[0])
	return nil
}

// close moves an element's children from pending into one segment of kids.
func (t *tokenTree) close(el openElem) {
	nd := &t.nodes[el.node]
	nd.first = int32(len(t.kids))
	nd.n = int32(len(t.pending) - el.pending)
	t.kids = append(t.kids, t.pending[el.pending:]...)
	t.pending = t.pending[:el.pending]
}

// children returns node i's child list.
func (t *tokenTree) children(i int32) []int32 {
	nd := &t.nodes[i]
	return t.kids[nd.first : nd.first+nd.n]
}

// bytes returns a span of the buffer.
func (t *tokenTree) bytes(s span32) []byte { return t.buf[s.off:s.end:s.end] }

// key returns node i's ordering key.
func (t *tokenTree) key(i int32) []byte { return t.bytes(t.nodes[i].key) }

// sortKids sorts node i's child list by (key, position). Node indices
// follow document order, so ordering equal keys by index gives the order a
// stable sort would, and the comparison is a total order that an unstable
// sort settles in O(n log n).
func (t *tokenTree) sortKids(i int32) {
	kids := t.children(i)
	if len(kids) < 2 {
		return
	}
	s := t.sorting[:0]
	for _, c := range kids {
		var pre [8]byte
		copy(pre[:], t.key(c))
		s = append(s, kidPrefix{prefix: binary.BigEndian.Uint64(pre[:]), node: c})
	}
	slices.SortFunc(s, func(a, b kidPrefix) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		if c := bytes.Compare(t.key(a.node), t.key(b.node)); c != 0 {
			return c
		}
		return cmp.Compare(a.node, b.node)
	})
	for j, k := range s {
		kids[j] = k.node
	}
	t.sorting = s
}

// indexSubtree indexes the buffer as one subtree rooted at level 1 and
// returns its root.
func (t *tokenTree) indexSubtree(maxLevel int) (int32, error) {
	if err := t.index(1, maxLevel); err != nil {
		return 0, err
	}
	top := t.children(0)
	switch {
	case len(top) == 0:
		return 0, io.ErrUnexpectedEOF
	case t.nodes[top[0]].kind != xmltok.KindStart:
		return 0, fmt.Errorf("core: subtree begins with a %v token", t.nodes[top[0]].kind)
	case len(top) > 1:
		return 0, fmt.Errorf("core: tokens after the end of a subtree")
	}
	return top[0], nil
}

// sortSubtree is the in-memory sort of one loaded subtree: it sorts its
// child lists to the depth limit relLimit (0 sorts head to toe) and writes
// the sorted subtree to w.
func (t *tokenTree) sortSubtree(relLimit int, w tokenSink) error {
	root, err := t.indexSubtree(sortLevels(relLimit))
	if err != nil {
		return fmt.Errorf("core: sorting subtree: %w", err)
	}
	return t.emit(root, w)
}

// tokenSink receives emitted tokens: each call one or more whole encoded
// tokens, back to back. The bytes are valid only for the call.
type tokenSink interface {
	Append(toks []byte) error
}

// emit writes node i's subtree to w in its sorted order.
func (t *tokenTree) emit(i int32, w tokenSink) error {
	nd := &t.nodes[i]
	if nd.kind == xmltok.KindText {
		// Text enters the data stack with neither key nor level, so its
		// bytes are already AppendToken's.
		return w.Append(t.buf[nd.off:nd.end])
	}
	head := t.buf[nd.off:nd.head]
	switch {
	case t.keyed:
		t.scratch = xmltok.AppendRekeyed(t.scratch[:0], head, t.bytes(nd.key))
	case nd.kind == xmltok.KindRunPtr:
		run, _ := binary.Uvarint(head[1:])
		t.scratch = xmltok.AppendBareRunPtr(t.scratch[:0], int64(run))
	default:
		t.scratch = xmltok.AppendUnkeyed(t.scratch[:0], head)
	}
	if err := w.Append(t.scratch); err != nil || nd.kind == xmltok.KindRunPtr {
		return err
	}
	for _, c := range t.children(i) {
		if err := t.emit(c, w); err != nil {
			return err
		}
	}
	var name []byte
	if t.keyed {
		name = t.bytes(t.nodes[i].name)
	}
	t.scratch = xmltok.AppendEndTag(t.scratch[:0], name)
	return w.Append(t.scratch)
}

// recordSink appends emitted tokens to a byte slice.
type recordSink struct{ b []byte }

func (r *recordSink) Append(toks []byte) error {
	r.b = append(r.b, toks...)
	return nil
}
