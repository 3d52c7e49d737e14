// Package merge implements structural merge of XML documents — the
// motivating application of the paper's Example 1.1 ("Merging XML
// documents"), the XML analogue of a sort-merge (outer) join.
//
// Two elements match when they are at the same position in the hierarchy,
// have the same tag name, and the same non-empty ordering key under the
// merge criterion (the same criterion both documents were sorted by). A
// matched pair merges into one element whose attributes are the union of
// both sides' and whose child lists merge recursively. Unmatched elements,
// text nodes, and elements with empty keys copy through unchanged — with
// the left document's entries first on ties, so merge output is itself
// sorted and deterministic.
//
// Documents is the single-pass streaming merge over two sorted inputs (the
// sort-merge strategy). Because sibling lists are sorted by key alone,
// siblings sharing a key form a group; within a group the merger matches
// left and right entries by tag name, buffering just that group — the
// memory cost is one duplicate-key group, not a document. NestedLoop is
// the naive strategy the paper's introduction dismisses — for each
// element, scan the other document for its match — implemented over
// in-memory trees; it requires no sorting and serves as the correctness
// oracle for the streaming version.
package merge

import (
	"bufio"
	"fmt"
	"io"

	"nexsort/internal/keys"
	"nexsort/internal/sortkey"
	"nexsort/internal/xmltok"
)

// Options configures a merge.
type Options struct {
	// PreferRight makes the right document win attribute conflicts on
	// matched elements. The default keeps the left value — with batch
	// updates (the paper's second application), the base document is the
	// left input and updates win by setting PreferRight.
	PreferRight bool
	// Indent pretty-prints the output; empty writes compact XML.
	Indent string
}

// outputBufferBytes sizes the buffer between the token writer and the
// caller's out: the writer emits one Write per token, which on a file
// would be one system call per token.
const outputBufferBytes = 64 << 10

// Report summarizes a merge.
type Report struct {
	// ElementsLeft and ElementsRight count input elements.
	ElementsLeft  int64
	ElementsRight int64
	// Matched counts element pairs merged into one output element.
	Matched int64
	// OutputElements counts elements written.
	OutputElements int64
}

// Documents merges two sorted XML documents in a single pass and writes
// the merged document to out. Both inputs must already be sorted by c
// (e.g. with NEXSORT); c must be start-resolvable, since merge decisions
// are made at start tags. The roots must match — the paper's setting has
// both documents describing the same top-level entity (<company>) — and
// mismatched roots are reported as an error. Roots match by tag name and
// equal (possibly empty) key. Output reaches out through a buffer of
// outputBufferBytes, which is flushed only when the merge succeeds.
func Documents(left, right io.Reader, c *keys.Criterion, out io.Writer, opts Options) (*Report, error) {
	for _, r := range c.Rules {
		if !r.Source.StartResolvable() {
			return nil, fmt.Errorf("merge: criterion rule for %q needs a subtree pass (%s); merge requires start-resolvable criteria", r.Tag, r.Source)
		}
	}
	rep := &Report{}
	ls := newParserStream(left, c, &rep.ElementsLeft)
	rs := newParserStream(right, c, &rep.ElementsRight)
	bw := bufio.NewWriterSize(out, outputBufferBytes)
	var w *xmltok.Writer
	if opts.Indent != "" {
		w = xmltok.NewIndentWriter(bw, opts.Indent)
	} else {
		w = xmltok.NewWriter(bw)
	}

	m := &merger{w: w, opts: opts, rep: rep}
	ltok, err := ls.peek()
	if err != nil {
		return nil, fmt.Errorf("merge: left document: %w", err)
	}
	rtok, err := rs.peek()
	if err != nil {
		return nil, fmt.Errorf("merge: right document: %w", err)
	}
	if ltok.Kind != xmltok.KindStart || rtok.Kind != xmltok.KindStart ||
		ltok.Name != rtok.Name || ltok.Key != rtok.Key {
		return nil, fmt.Errorf("merge: root elements <%s key=%q> and <%s key=%q> do not match",
			ltok.Name, ltok.Key, rtok.Name, rtok.Key)
	}
	if err := m.mergePair(ls, rs); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return rep, nil
}

// tokStream is a token stream with one-token lookahead: either a live
// parser stream or a buffered group member.
type tokStream interface {
	peek() (xmltok.Token, error)
	next() (xmltok.Token, error)
}

type merger struct {
	w    *xmltok.Writer
	opts Options
	rep  *Report
}

// mergePair consumes one matched element from each stream and emits the
// merged element. Both streams are positioned at the start tags.
func (m *merger) mergePair(l, r tokStream) error {
	ltok, err := l.next()
	if err != nil {
		return err
	}
	rtok, err := r.next()
	if err != nil {
		return err
	}
	m.rep.Matched++
	m.rep.OutputElements++
	merged := xmltok.Token{Kind: xmltok.KindStart, Name: ltok.Name, Attrs: unionAttrs(ltok.Attrs, rtok.Attrs, m.opts.PreferRight)}
	if err := m.w.WriteToken(merged); err != nil {
		return err
	}
	if err := m.mergeChildren(l, r); err != nil {
		return err
	}
	// Consume both end tags.
	if _, err := l.next(); err != nil {
		return err
	}
	if _, err := r.next(); err != nil {
		return err
	}
	return m.w.WriteToken(xmltok.Token{Kind: xmltok.KindEnd, Name: ltok.Name})
}

// mergeChildren zips the two sorted child lists. Both streams sit just
// inside a matched element; the loop ends with both positioned at their
// end tags (or stream ends, for buffered groups). Sibling keys are
// verified non-decreasing as they stream by: merging unsorted input would
// silently drop matches, so it is an error instead.
func (m *merger) mergeChildren(l, r tokStream) error {
	var prevL, prevR string
	for {
		ltok, lok, err := peekSibling(l)
		if err != nil {
			return err
		}
		rtok, rok, err := peekSibling(r)
		if err != nil {
			return err
		}
		if lok {
			if k := siblingOrder(ltok); sortkey.CompareKeys(k, prevL) < 0 {
				return fmt.Errorf("merge: left input is not sorted: key %q after %q under the current parent", k, prevL)
			} else {
				prevL = k
			}
		}
		if rok {
			if k := siblingOrder(rtok); sortkey.CompareKeys(k, prevR) < 0 {
				return fmt.Errorf("merge: right input is not sorted: key %q after %q under the current parent", k, prevR)
			} else {
				prevR = k
			}
		}
		switch {
		case !lok && !rok:
			return nil
		case !lok:
			if err := m.copySubtree(r); err != nil {
				return err
			}
		case !rok:
			if err := m.copySubtree(l); err != nil {
				return err
			}
		default:
			// Sibling order is sortkey.CompareKeys — the same single
			// definition of key order the sorters' comparison kernels
			// normalize, so merge decisions and sort decisions can never
			// disagree on which subtree comes first.
			lkey, rkey := siblingOrder(ltok), siblingOrder(rtok)
			switch {
			case sortkey.CompareKeys(lkey, rkey) < 0:
				if err := m.copySubtree(l); err != nil {
					return err
				}
			case sortkey.CompareKeys(rkey, lkey) < 0:
				if err := m.copySubtree(r); err != nil {
					return err
				}
			case lkey == "":
				// Equal empty keys never match; left side first.
				if err := m.copySubtree(l); err != nil {
					return err
				}
			default:
				if err := m.mergeGroup(l, r, lkey); err != nil {
					return err
				}
			}
		}
	}
}

// peekSibling peeks the next token and reports whether it begins another
// sibling (false at the parent's end tag or stream end).
func peekSibling(s tokStream) (xmltok.Token, bool, error) {
	tok, err := s.peek()
	if err == io.EOF {
		return tok, false, nil
	}
	if err != nil {
		return tok, false, err
	}
	return tok, tok.Kind != xmltok.KindEnd, nil
}

// mergeGroup handles a maximal run of siblings sharing one non-empty key
// on both sides. Keys alone determine sorted positions, so entries with
// different tags interleave within the group; matching is by tag, which
// requires buffering the group and pairing entries the way the nested-loop
// semantics do: each left entry takes the first unused same-tag right
// entry, then unmatched right entries follow.
func (m *merger) mergeGroup(l, r tokStream, key string) error {
	lgroup, err := readGroup(l, key)
	if err != nil {
		return err
	}
	rgroup, err := readGroup(r, key)
	if err != nil {
		return err
	}
	used := make([]bool, len(rgroup))
	for _, ltoks := range lgroup {
		matched := -1
		for j, rtoks := range rgroup {
			if !used[j] && rtoks[0].Kind == xmltok.KindStart && rtoks[0].Name == ltoks[0].Name {
				matched = j
				break
			}
		}
		if matched >= 0 {
			used[matched] = true
			if err := m.mergePair(newSliceStream(ltoks), newSliceStream(rgroup[matched])); err != nil {
				return err
			}
		} else if err := m.copySubtree(newSliceStream(ltoks)); err != nil {
			return err
		}
	}
	for j, rtoks := range rgroup {
		if !used[j] {
			if err := m.copySubtree(newSliceStream(rtoks)); err != nil {
				return err
			}
		}
	}
	return nil
}

// readGroup buffers the consecutive siblings whose order key equals key.
// Each entry is a complete token subtree (or a single text token).
func readGroup(s tokStream, key string) ([][]xmltok.Token, error) {
	var group [][]xmltok.Token
	for {
		tok, ok, err := peekSibling(s)
		if err != nil {
			return nil, err
		}
		if !ok || siblingOrder(tok) != key {
			return group, nil
		}
		toks, err := readSubtree(s)
		if err != nil {
			return nil, err
		}
		group = append(group, toks)
	}
}

// readSubtree consumes one complete sibling into a token slice.
func readSubtree(s tokStream) ([]xmltok.Token, error) {
	tok, err := s.next()
	if err != nil {
		return nil, err
	}
	toks := []xmltok.Token{tok}
	if tok.Kind != xmltok.KindStart {
		return toks, nil
	}
	depth := 1
	for depth > 0 {
		tok, err = s.next()
		if err != nil {
			return nil, err
		}
		switch tok.Kind {
		case xmltok.KindStart:
			depth++
		case xmltok.KindEnd:
			depth--
		}
		toks = append(toks, tok)
	}
	return toks, nil
}

// siblingOrder gives the sort key a sibling-level token was ordered by:
// elements carry their criterion key; text sorts with the empty key.
func siblingOrder(tok xmltok.Token) string {
	if tok.Kind == xmltok.KindStart {
		return tok.Key
	}
	return ""
}

// copySubtree copies one complete sibling (element subtree or text node)
// from src to the output.
func (m *merger) copySubtree(src tokStream) error {
	tok, err := src.next()
	if err != nil {
		return err
	}
	if tok.Kind == xmltok.KindText {
		return m.w.WriteToken(tok)
	}
	m.rep.OutputElements++
	if err := m.w.WriteToken(stripKey(tok)); err != nil {
		return err
	}
	depth := 1
	for depth > 0 {
		tok, err = src.next()
		if err != nil {
			return err
		}
		switch tok.Kind {
		case xmltok.KindStart:
			depth++
			m.rep.OutputElements++
		case xmltok.KindEnd:
			depth--
		}
		if err := m.w.WriteToken(stripKey(tok)); err != nil {
			return err
		}
	}
	return nil
}

func stripKey(tok xmltok.Token) xmltok.Token {
	tok.HasKey, tok.Key = false, ""
	return tok
}

// unionAttrs merges attribute lists: all of a's attributes (values
// overridden by b when preferRight), then b's attributes not present in a.
func unionAttrs(a, b []xmltok.Attr, preferRight bool) []xmltok.Attr {
	out := make([]xmltok.Attr, 0, len(a)+len(b))
	out = append(out, a...)
	for _, battr := range b {
		found := false
		for i := range out {
			if out[i].Name == battr.Name {
				found = true
				if preferRight {
					out[i].Value = battr.Value
				}
				break
			}
		}
		if !found {
			out = append(out, battr)
		}
	}
	return out
}

// parserStream is a live annotated token stream with lookahead.
type parserStream struct {
	fetch   func() (xmltok.Token, error)
	peeked  *xmltok.Token
	peekErr error
}

func newParserStream(r io.Reader, c *keys.Criterion, elements *int64) *parserStream {
	p := xmltok.NewParser(r, xmltok.DefaultParserOptions())
	a := keys.NewAnnotator(c, nil)
	var dec xmltok.Decoder
	fetch := func() (xmltok.Token, error) {
		v, err := p.NextEncoded()
		if err != nil {
			return xmltok.Token{}, err
		}
		if v, err = a.Annotate(v); err != nil {
			return xmltok.Token{}, err
		}
		tok := dec.Decode(v)
		if tok.Kind == xmltok.KindStart {
			*elements++
		}
		return tok, nil
	}
	return &parserStream{fetch: fetch}
}

func (s *parserStream) peek() (xmltok.Token, error) {
	if s.peeked == nil && s.peekErr == nil {
		tok, err := s.fetch()
		if err != nil {
			s.peekErr = err
			return xmltok.Token{}, err
		}
		s.peeked = &tok
	}
	if s.peekErr != nil {
		return xmltok.Token{}, s.peekErr
	}
	return *s.peeked, nil
}

func (s *parserStream) next() (xmltok.Token, error) {
	tok, err := s.peek()
	if err != nil {
		return tok, err
	}
	s.peeked = nil
	return tok, nil
}

// sliceStream replays a buffered token subtree.
type sliceStream struct {
	toks []xmltok.Token
	i    int
}

func newSliceStream(toks []xmltok.Token) *sliceStream { return &sliceStream{toks: toks} }

func (s *sliceStream) peek() (xmltok.Token, error) {
	if s.i >= len(s.toks) {
		return xmltok.Token{}, io.EOF
	}
	return s.toks[s.i], nil
}

func (s *sliceStream) next() (xmltok.Token, error) {
	tok, err := s.peek()
	if err == nil {
		s.i++
	}
	return tok, err
}
