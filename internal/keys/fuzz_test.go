package keys_test

import (
	"io"
	"strings"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/keys"
	"nexsort/internal/xmltok"
	"nexsort/internal/xmltree"
	"nexsort/internal/xstack"
)

// FuzzAnnotatorKeys checks the streaming annotator against the in-memory
// oracle: for every document the parser accepts, under an attribute, a
// tag, a text and a path criterion, each end tag's key must be the key
// xmltree's ComputeKeys gives its element, and a start tag must carry that
// key exactly when the criterion resolves it there. Each criterion runs
// with matchers held in memory and with them spilling to a paged stack of
// small blocks, which documents deeper than the annotator's window reach.
func FuzzAnnotatorKeys(f *testing.F) {
	f.Add(`<r><a k="2"><b>x</b></a><a k="1"><c><b>y</b></c>t</a></r>`)
	f.Add(`<a><b><c>deep</c></b><b><c><c>x</c></c></b></a>`)
	f.Add(`<r k="&amp;k"><![CDATA[cd]]><b k="` + strings.Repeat("v", 40) + `"/></r>`)
	f.Add(strings.Repeat("<b><c>", 12) + "t" + strings.Repeat("</c></b>", 12))
	criteria := map[string]*keys.Criterion{
		"attribute": {Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("k")}}, KeyCap: 8},
		"tag":       {Rules: []keys.Rule{{Tag: "b", Source: keys.ByTag()}}},
		"text":      {Rules: []keys.Rule{{Tag: "", Source: keys.ByText()}}},
		"path": {Rules: []keys.Rule{
			{Tag: "a", Source: keys.ByPath("b", "c")},
			{Tag: "b", Source: keys.ByPath("c")},
			{Tag: "", Source: keys.ByAttr("k")},
		}, KeyCap: 4},
	}
	f.Fuzz(func(t *testing.T, doc string) {
		// xmltree stops reading at the root's end tag; the parser must
		// accept the whole document, and find a root in it.
		if elems, err := annotate(doc, &keys.Criterion{}, nil); err != nil || len(elems) == 0 {
			return
		}
		tree, err := xmltree.ParseString(doc)
		if err != nil {
			t.Fatalf("the parser accepts the document, xmltree fails: %v", err)
		}
		for name, c := range criteria {
			tree.ComputeKeys(c)
			var want []elementKey
			postorder(tree, c, &want)
			for _, spilled := range []bool{false, true} {
				var spill keys.SpillStack
				if spilled {
					dev := em.NewDevice(em.NewMemBackend(), 128, nil)
					st, err := xstack.NewRecordStack(dev, em.CatPathStack, nil, 2, c.StateSize())
					if err != nil {
						t.Fatal(err)
					}
					spill = st
					defer st.Close()
				}
				got, err := annotate(doc, c, spill)
				if err != nil {
					t.Fatalf("%s, spilled %v: %v", name, spilled, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s, spilled %v: %d elements, the oracle has %d", name, spilled, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s, spilled %v: element %d closed with %+v, the oracle gives %+v", name, spilled, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// elementKey is what the annotator says about one element: its name, its
// key from the end tag, and its start tag's key, if it has one.
type elementKey struct {
	name, key      string
	startKey       string
	startKeyExists bool
}

// postorder lists the elements of n in the order they close, with the keys
// the oracle computed.
func postorder(n *xmltree.Node, c *keys.Criterion, out *[]elementKey) {
	if n.Kind != xmltree.Elem {
		return
	}
	for _, ch := range n.Children {
		postorder(ch, c, out)
	}
	e := elementKey{name: n.Name, key: n.Key}
	if src, ok := c.SourceFor(n.Name); !ok || src.StartResolvable() {
		e.startKey, e.startKeyExists = n.Key, true
	}
	*out = append(*out, e)
}

// annotate runs doc through the parser and an annotator, and lists the
// elements in the order they close.
func annotate(doc string, c *keys.Criterion, spill keys.SpillStack) ([]elementKey, error) {
	p := xmltok.NewParser(strings.NewReader(doc), xmltok.DefaultParserOptions())
	a := keys.NewAnnotator(c, spill)
	var open, closed []elementKey
	for {
		tok, err := p.NextEncoded()
		if err == io.EOF {
			return closed, nil
		}
		if err != nil {
			return nil, err
		}
		if tok, err = a.Annotate(tok); err != nil {
			return nil, err
		}
		switch tok.Kind() {
		case xmltok.KindStart:
			open = append(open, elementKey{name: string(tok.Name()), startKey: string(tok.Key()), startKeyExists: tok.HasKey()})
		case xmltok.KindEnd:
			e := open[len(open)-1]
			open = open[:len(open)-1]
			e.key = string(tok.Key())
			closed = append(closed, e)
		}
	}
}
