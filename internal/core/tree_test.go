package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"nexsort/internal/compact"
	"nexsort/internal/gen"
	"nexsort/internal/keys"
	"nexsort/internal/xmltok"
	"nexsort/internal/xmltree"
)

// treeCase is one generated document with the criterion that keys it.
type treeCase struct {
	name    string
	doc     string
	crit    *keys.Criterion
	compact bool
}

// treeCases generates documents from the three generator families, under
// attribute criteria (keys on start and end tags), a path criterion (keys
// on end tags only) and a one-byte key cap (many equal keys, also in child
// lists long enough that an unstable sort would reorder them), each plain
// and compacted.
func treeCases(t *testing.T, rng *rand.Rand) []treeCase {
	t.Helper()
	write := func(spec interface {
		Write(io.Writer) (gen.Stats, error)
	}) string {
		var sb strings.Builder
		if _, err := spec.Write(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	capped := gen.CappedShape(int64(50+rng.Intn(300)), 2+rng.Intn(5))
	capped.Seed = rng.Int63()
	custom := gen.CustomSpec{Fanouts: []int{1 + rng.Intn(4), 1 + rng.Intn(5), 1 + rng.Intn(3)}, Seed: rng.Int63()}
	wide := gen.CustomSpec{Fanouts: []int{30 + rng.Intn(40), 1 + rng.Intn(3)}, Seed: rng.Int63()}
	site := write(gen.SiteSpec{Items: 1 + rng.Intn(5), MaxBids: 4, Seed: rng.Int63()})
	byKey := keys.ByAttrOrTag(gen.DefaultKeyAttr)
	coarse := keys.ByAttrOrTag(gen.DefaultKeyAttr)
	coarse.KeyCap = 1
	byPath := &keys.Criterion{Rules: []keys.Rule{
		{Tag: "region", Source: keys.ByAttr("name")},
		{Tag: "item", Source: keys.ByPath("name")},
		{Tag: "name", Source: keys.ByText()},
		{Tag: "bid", Source: keys.ByAttr("amount")},
	}}
	var cases []treeCase
	for _, c := range []treeCase{
		{name: "capped", doc: write(capped), crit: byKey},
		{name: "capped-coarse", doc: write(capped), crit: coarse},
		{name: "custom", doc: write(custom), crit: byKey},
		{name: "wide-coarse", doc: write(wide), crit: coarse},
		{name: "site-path", doc: site, crit: byPath},
	} {
		cases = append(cases, c)
		c.name += "-compact"
		c.compact = true
		cases = append(cases, c)
	}
	return cases
}

// subtreeStreams replays NEXSORT's data stack over a document: tokens are
// annotated (and compacted), encoded and pushed, and at each end tag the
// closed element's encoded subtree is captured. With probability 1/4 a
// closed non-root element is then collapsed into a run pointer carrying
// its end tag's key, as a subtree sort leaves it, so later captures hold
// run-pointer children next to elements and text.
func subtreeStreams(t *testing.T, rng *rand.Rand, c treeCase) [][]byte {
	t.Helper()
	p := xmltok.NewParser(strings.NewReader(c.doc), xmltok.DefaultParserOptions())
	annot := keys.NewAnnotator(c.crit, nil)
	var enc *compact.Encoder
	if c.compact {
		enc = compact.NewEncoder(compact.NewDictionary())
	}
	var stack []byte
	var starts []int
	var subtrees [][]byte
	for run := int64(0); ; {
		tok, err := p.NextEncoded()
		if err == io.EOF {
			return subtrees
		}
		if err != nil {
			t.Fatal(err)
		}
		if tok, err = annot.Annotate(tok); err != nil {
			t.Fatal(err)
		}
		if enc != nil {
			if tok, err = enc.Encode(tok); err != nil {
				t.Fatal(err)
			}
		}
		if tok.Kind() == xmltok.KindStart {
			starts = append(starts, len(stack))
		}
		stack = append(stack, tok.Bytes()...)
		if tok.Kind() != xmltok.KindEnd {
			continue
		}
		start := starts[len(starts)-1]
		starts = starts[:len(starts)-1]
		subtrees = append(subtrees, bytes.Clone(stack[start:]))
		if len(starts) > 0 && rng.Intn(4) == 0 {
			stack = tok.AppendRunPtr(stack[:start], run)
			run++
		}
	}
}

// decodeStream decodes an encoded token stream.
func decodeStream(t *testing.T, stream []byte) []xmltok.Token {
	t.Helper()
	var d xmltok.Decoder
	var toks []xmltok.Token
	r := bytes.NewReader(stream)
	for {
		tok, err := d.ReadToken(r)
		if err == io.EOF {
			return toks
		}
		if err != nil {
			t.Fatal(err)
		}
		toks = append(toks, tok)
	}
}

// sliceSource yields decoded tokens to xmltree.
type sliceSource struct{ toks []xmltok.Token }

func (s *sliceSource) Next() (xmltok.Token, error) {
	if len(s.toks) == 0 {
		return xmltok.Token{}, io.EOF
	}
	tok := s.toks[0]
	s.toks = s.toks[1:]
	return tok, nil
}

// referenceBytes encodes a tree as xmltree emits it.
func referenceBytes(t *testing.T, n *xmltree.Node) []byte {
	t.Helper()
	var out []byte
	err := n.EmitTokens(func(tok xmltok.Token) error {
		out = xmltok.AppendToken(out, tok)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTokenTreeMatchesXMLTree is the encoded sorter's property against the
// reference: for every subtree stream of generated documents and every
// depth limit relLimit in {0, 1, 2, 3}, the sorted bytes must equal
// xmltree.FromTokens, SortToDepth(relLimit), EmitTokens and AppendToken.
func TestTokenTreeMatchesXMLTree(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var tree tokenTree
	for trial := 0; trial < 6; trial++ {
		for _, c := range treeCases(t, rng) {
			for _, sub := range subtreeStreams(t, rng, c) {
				toks := decodeStream(t, sub)
				for relLimit := 0; relLimit <= 3; relLimit++ {
					ref, err := xmltree.FromTokens(&sliceSource{toks: toks})
					if err != nil {
						t.Fatal(err)
					}
					ref.SortToDepth(relLimit)
					want := referenceBytes(t, ref)

					var got recordSink
					if err := sortBytes(&tree, sub, relLimit, &got); err != nil {
						t.Fatalf("%s relLimit %d: %v", c.name, relLimit, err)
					}
					if !bytes.Equal(got.b, want) {
						t.Fatalf("%s relLimit %d: sorted bytes differ from the reference\n got %x\nwant %x\n  in %x",
							c.name, relLimit, got.b, want, sub)
					}
				}
			}
		}
	}
}

// TestTokenTreeChildRecords checks degeneration's use of the sorter: the
// children of each element, indexed as a sibling list at level 2 of the
// element's frame, must each give a record that is its (key, seq) header
// followed by the reference's bytes for that child interior-sorted — or,
// below the depth limit, the child with the empty key and its interior
// untouched.
func TestTokenTreeChildRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var tree tokenTree
	var v xmltok.Encoded
	for trial := 0; trial < 4; trial++ {
		for _, c := range treeCases(t, rng) {
			for _, sub := range subtreeStreams(t, rng, c) {
				n, _ := v.Scan(sub)
				toks := decodeStream(t, sub)
				endLen := len(xmltok.AppendToken(nil, toks[len(toks)-1]))
				children := sub[n : len(sub)-endLen]
				for relLimit := -1; relLimit <= 3; relLimit++ {
					noSort := relLimit < 0
					maxLevel := 0
					if !noSort {
						maxLevel = sortLevels(relLimit)
					}
					if err := tree.load(bytes.NewReader(children), int64(len(children))); err != nil {
						t.Fatal(err)
					}
					if err := tree.index(2, maxLevel); err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					src := &sliceSource{toks: toks[1 : len(toks)-1]}
					for i, child := range tree.children(0) {
						first, err := src.Next()
						if err != nil {
							t.Fatal(err)
						}
						ref, err := xmltree.FromFirst(src, first)
						if err != nil {
							t.Fatal(err)
						}
						switch {
						case noSort:
							ref.Key = ""
							tree.nodes[child].key = span32{}
						case relLimit == 0:
							ref.SortRecursive()
						case relLimit > 1:
							ref.SortToDepth(relLimit - 1)
						}
						seq := int64(100 + i)
						want := binary.AppendUvarint(nil, uint64(len(ref.Key)))
						want = append(want, ref.Key...)
						want = binary.AppendUvarint(want, uint64(seq))
						want = append(want, referenceBytes(t, ref)...)
						got, err := appendChildRecord(nil, &tree, child, seq)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s relLimit %d child %d: record differs\n got %x\nwant %x", c.name, relLimit, i, got, want)
						}
					}
					if len(src.toks) != 0 {
						t.Fatalf("%s: %d reference tokens left over", c.name, len(src.toks))
					}
				}
			}
		}
	}
}

// TestTokenTreeRejectsMalformed: the sorter keeps xmltree's structural
// checks. Elided end-tag names (compaction) match any start tag.
func TestTokenTreeRejectsMalformed(t *testing.T) {
	enc := func(toks ...xmltok.Token) []byte {
		var b []byte
		for _, tok := range toks {
			b = xmltok.AppendToken(b, tok)
		}
		return b
	}
	start := func(name string) xmltok.Token { return xmltok.Token{Kind: xmltok.KindStart, Name: name} }
	keyed := func(tok xmltok.Token) xmltok.Token { tok.HasKey = true; return tok }
	end := func(name string) xmltok.Token { return xmltok.Token{Kind: xmltok.KindEnd, Name: name} }
	text := xmltok.Token{Kind: xmltok.KindText, Text: "t"}
	cases := map[string][]byte{
		"mismatched end tag": enc(start("a"), start("b"), end("c"), end("a")),
		"unclosed element":   enc(start("a"), start("b"), end("b")),
		"stray end tag":      enc(start("a"), end("a"), end("a")),
		"text first":         enc(text, start("a"), end("a")),
		"empty":              nil,
		"two roots":          enc(start("a"), end("a"), start("b"), end("b")),
		"corrupt token":      append(enc(start("a")), 0x7f),
	}
	var tree tokenTree
	for name, in := range cases {
		err := sortBytes(&tree, in, 0, &recordSink{})
		if err == nil {
			t.Errorf("%s: accepted %x", name, in)
		}
	}
	elided := enc(start("a"), start("b"), end(""), end(""))
	var out recordSink
	if err := sortBytes(&tree, elided, 0, &out); err != nil {
		t.Errorf("elided end-tag names: %v", err)
	}
	if want := fmt.Sprintf("%x", enc(
		keyed(start("a")), keyed(start("b")), end("b"), end("a"),
	)); fmt.Sprintf("%x", out.b) != want {
		t.Errorf("elided end-tag names: wrote %x, want %s", out.b, want)
	}
}

// sortBytes loads the encoded subtree in into tree and sorts it into w.
func sortBytes(tree *tokenTree, in []byte, relLimit int, w tokenSink) error {
	if err := tree.load(bytes.NewReader(in), int64(len(in))); err != nil {
		return err
	}
	return tree.sortSubtree(relLimit, w)
}
