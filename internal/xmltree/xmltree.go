// Package xmltree is the in-memory XML representation used in two roles:
//
//   - as the paper's "internal-memory recursive sort" (Section 1): build a
//     DOM-like tree, recursively sort every element's child list, and emit —
//     the correctness oracle for the external algorithms, the in-memory
//     algorithm, and the reference that NEXSORT's own Line 11 sorter (the
//     encoded-token sorter in internal/core) must match byte for byte;
//
//   - as a test utility: deep equality, canonical serialization, and shape
//     statistics (element count, height, maximum fan-out k) that the
//     analysis formulas need.
//
// Trees may contain RunRef nodes — stand-ins for subtrees already collapsed
// into sorted runs (Figure 2 of the paper). They carry the collapsed
// subtree's ordering key and sort like ordinary children, but serialize to
// run-pointer tokens instead of markup.
package xmltree

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"nexsort/internal/keys"
	"nexsort/internal/xmltok"
)

// NodeKind discriminates tree nodes.
type NodeKind byte

// Node kinds.
const (
	// Elem is an element with a name, attributes and children.
	Elem NodeKind = iota
	// Text is a character-data leaf.
	Text
	// RunRef is a collapsed subtree: a pointer to a sorted run.
	RunRef
)

// Node is one tree node. Exactly one of the kind-specific field groups is
// meaningful.
type Node struct {
	Kind  NodeKind
	Name  string        // Elem, RunRef (collapsed root's tag, for inspection)
	Attrs []xmltok.Attr // Elem
	Text  string        // Text
	Run   int64         // RunRef: sorted-run identifier

	// Key is the node's ordering key. Text nodes always use the empty
	// key, so they sort before keyed element siblings and keep document
	// order among themselves (the position tie-break).
	Key string
	// Seq is the node's position among its siblings in the original
	// document, the uniqueness tie-break of Section 1.
	Seq int64

	Children []*Node // Elem only
}

// TokenSource yields a token stream, io.EOF at the end. Both the textual
// parser and the binary codec readers satisfy it via small adapters.
type TokenSource interface {
	Next() (xmltok.Token, error)
}

// FromTokens builds a tree from a token stream describing one element (and
// its subtree). Keys carried on end tags and run pointers are installed on
// the corresponding nodes; sibling sequence numbers are assigned in stream
// order. The stream may continue after the element closes; FromTokens stops
// at the matching end tag.
func FromTokens(src TokenSource) (*Node, error) {
	tok, err := src.Next()
	if err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return FromFirst(src, tok)
}

// FromFirst builds a tree whose first token has already been read — used
// when a caller iterates sibling subtrees off one stream and needs to look
// at each leading token itself to detect the end of the sibling list.
func FromFirst(src TokenSource, first xmltok.Token) (*Node, error) {
	switch first.Kind {
	case xmltok.KindText:
		return &Node{Kind: Text, Text: first.Text}, nil
	case xmltok.KindRunPtr:
		return &Node{Kind: RunRef, Run: first.Run, Name: first.Name, Key: first.Key}, nil
	case xmltok.KindStart:
		root := &Node{Kind: Elem, Name: first.Name, Attrs: first.Attrs}
		if first.HasKey {
			root.Key = first.Key
		}
		var stack []*Node
		stack = append(stack, root)
		for {
			tok, err := src.Next()
			if err != nil {
				if err == io.EOF {
					return nil, io.ErrUnexpectedEOF
				}
				return nil, err
			}
			top := stack[len(stack)-1]
			switch tok.Kind {
			case xmltok.KindStart:
				n := &Node{Kind: Elem, Name: tok.Name, Attrs: tok.Attrs}
				if tok.HasKey {
					n.Key = tok.Key
				}
				appendChild(top, n)
				stack = append(stack, n)
			case xmltok.KindText:
				appendChild(top, &Node{Kind: Text, Text: tok.Text})
			case xmltok.KindRunPtr:
				appendChild(top, &Node{Kind: RunRef, Run: tok.Run, Name: tok.Name, Key: tok.Key})
			case xmltok.KindEnd:
				if tok.Name != "" && tok.Name != top.Name {
					return nil, fmt.Errorf("xmltree: end tag </%s> does not match <%s>", tok.Name, top.Name)
				}
				if tok.HasKey {
					top.Key = tok.Key
				}
				stack = stack[:len(stack)-1]
				if len(stack) == 0 {
					return root, nil
				}
			}
		}
	default:
		return nil, fmt.Errorf("xmltree: tree cannot start with a %v token", first.Kind)
	}
}

func appendChild(parent, child *Node) {
	child.Seq = int64(len(parent.Children))
	parent.Children = append(parent.Children, child)
}

// Parse builds a tree from textual XML.
func Parse(r io.Reader) (*Node, error) {
	p := xmltok.NewParser(r, xmltok.DefaultParserOptions())
	return FromTokens(parserSource{p})
}

type parserSource struct{ p *xmltok.Parser }

func (s parserSource) Next() (xmltok.Token, error) { return s.p.Next() }

// ParseString builds a tree from a document literal (tests, examples).
func ParseString(doc string) (*Node, error) { return Parse(strings.NewReader(doc)) }

// ComputeKeys evaluates the criterion on every element, top-down, matching
// the streaming Matcher semantics exactly: a path key is the first direct
// text of the first descendant chain matching the path, in document order.
func (n *Node) ComputeKeys(c *keys.Criterion) {
	if n.Kind == Elem {
		src, ok := c.SourceFor(n.Name)
		if !ok {
			n.Key = ""
		} else {
			switch src.Kind {
			case keys.SrcTag:
				n.Key = c.Clip(n.Name)
			case keys.SrcAttr:
				n.Key = ""
				for _, a := range n.Attrs {
					if a.Name == src.Attr {
						n.Key = c.Clip(a.Value)
						break
					}
				}
			case keys.SrcText, keys.SrcPath:
				if text, ok := n.findPathText(src.Path); ok {
					n.Key = c.Clip(text)
				} else {
					n.Key = ""
				}
			}
		}
		for _, ch := range n.Children {
			ch.ComputeKeys(c)
		}
	}
}

// findPathText walks descendant chains matching path (empty path means this
// node itself) and returns the first direct text child of the first fully
// matched chain, in document order.
func (n *Node) findPathText(path []string) (string, bool) {
	if len(path) == 0 {
		for _, ch := range n.Children {
			if ch.Kind == Text {
				return ch.Text, true
			}
		}
		return "", false
	}
	for _, ch := range n.Children {
		if ch.Kind == Elem && ch.Name == path[0] {
			if text, ok := ch.findPathText(path[1:]); ok {
				return text, true
			}
		}
	}
	return "", false
}

// SortRecursive fully sorts the tree: the children of every element are
// reordered by (Key, Seq). This is the paper's head-to-toe sort.
func (n *Node) SortRecursive() { n.SortToDepth(0) }

// SortToDepth performs depth-limited sorting (Section 3.2): with the root
// at level 1, child lists of elements at levels 1..d are sorted; subtrees
// rooted below level d keep their internal order. d <= 0 means unlimited.
func (n *Node) SortToDepth(d int) { n.sortLevel(1, d) }

func (n *Node) sortLevel(level, limit int) {
	if n.Kind != Elem {
		return
	}
	if limit > 0 && level > limit {
		return
	}
	sort.SliceStable(n.Children, func(i, j int) bool {
		a, b := n.Children[i], n.Children[j]
		return keys.Compare(a.Key, a.Seq, b.Key, b.Seq) < 0
	})
	for _, ch := range n.Children {
		ch.sortLevel(level+1, limit)
	}
}

// IsSorted reports whether every element's child list (down to the given
// depth limit; 0 = unlimited) is ordered by (Key, Seq). It is the
// sortedness predicate used by property tests.
func (n *Node) IsSorted(limit int) bool { return n.sortedLevel(1, limit) }

func (n *Node) sortedLevel(level, limit int) bool {
	if n.Kind != Elem || (limit > 0 && level > limit) {
		return true
	}
	for i := 1; i < len(n.Children); i++ {
		a, b := n.Children[i-1], n.Children[i]
		if keys.Compare(a.Key, a.Seq, b.Key, b.Seq) > 0 {
			return false
		}
	}
	for _, ch := range n.Children {
		if !ch.sortedLevel(level+1, limit) {
			return false
		}
	}
	return true
}

// EmitTokens streams the subtree in depth-first order to emit. Elements
// carry their key on the start tag (runs written by subtree sorts keep keys
// available for later merge steps); run references become run-pointer
// tokens.
func (n *Node) EmitTokens(emit func(xmltok.Token) error) error {
	switch n.Kind {
	case Text:
		return emit(xmltok.Token{Kind: xmltok.KindText, Text: n.Text})
	case RunRef:
		return emit(xmltok.Token{Kind: xmltok.KindRunPtr, Run: n.Run, Name: n.Name, Key: n.Key, HasKey: true})
	case Elem:
		start := xmltok.Token{Kind: xmltok.KindStart, Name: n.Name, Attrs: n.Attrs, Key: n.Key, HasKey: true}
		if err := emit(start); err != nil {
			return err
		}
		for _, ch := range n.Children {
			if err := ch.EmitTokens(emit); err != nil {
				return err
			}
		}
		return emit(xmltok.Token{Kind: xmltok.KindEnd, Name: n.Name})
	default:
		return fmt.Errorf("xmltree: unknown node kind %d", n.Kind)
	}
}

// WriteXML serializes the subtree as textual XML through w. Trees holding
// RunRef nodes cannot be serialized textually.
func (n *Node) WriteXML(w *xmltok.Writer) error {
	return n.EmitTokens(func(t xmltok.Token) error {
		t.HasKey, t.Key = false, ""
		return w.WriteToken(t)
	})
}

// XMLString renders the subtree as a compact XML string (tests, examples).
func (n *Node) XMLString() string {
	var sb strings.Builder
	w := xmltok.NewWriter(&sb)
	if err := n.WriteXML(w); err != nil {
		return "<!error: " + err.Error() + ">"
	}
	if err := w.Close(); err != nil {
		return "<!error: " + err.Error() + ">"
	}
	return sb.String()
}

// Equal reports deep structural equality: kind, name, attributes (order
// included), text, run IDs and child lists. Keys and sequence numbers are
// working data, not document content, and are ignored.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Name != b.Name || a.Text != b.Text || a.Run != b.Run {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// CountElements returns the number of element nodes in the subtree (the
// paper's N, under its equal-sized-element accounting).
func (n *Node) CountElements() int {
	if n.Kind != Elem {
		return 0
	}
	total := 1
	for _, ch := range n.Children {
		total += ch.CountElements()
	}
	return total
}

// CountNodes returns the number of nodes of any kind in the subtree.
func (n *Node) CountNodes() int {
	total := 1
	for _, ch := range n.Children {
		total += ch.CountNodes()
	}
	return total
}

// MaxFanout returns k, the maximum number of children of any element.
func (n *Node) MaxFanout() int {
	if n.Kind != Elem {
		return 0
	}
	k := len(n.Children)
	for _, ch := range n.Children {
		if ck := ch.MaxFanout(); ck > k {
			k = ck
		}
	}
	return k
}

// Height returns the number of element levels (a lone root has height 1).
func (n *Node) Height() int {
	if n.Kind != Elem {
		return 0
	}
	deepest := 0
	for _, ch := range n.Children {
		if h := ch.Height(); h > deepest {
			deepest = h
		}
	}
	return deepest + 1
}

// Clone returns a deep copy of the subtree.
func (n *Node) Clone() *Node {
	c := *n
	c.Attrs = append([]xmltok.Attr(nil), n.Attrs...)
	c.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		c.Children[i] = ch.Clone()
	}
	return &c
}
