package xmltok_test

import (
	"errors"
	"io"
	"strings"
	"testing"

	"nexsort/internal/keys"
	"nexsort/internal/xmltok"
)

// maxScanAllocs bounds the allocations of one whole scan — a parser and an
// annotator made, and every token parsed and annotated — whatever the
// document's size: what is allocated is the two, their buffers and the
// buffers' growth to the largest token and the deepest nesting.
const maxScanAllocs = 100

// TestScanAllocatesNothingPerToken: the sorters' scan, the parser's views
// annotated, allocates a bounded number of times per document, not per
// token. It runs on the ~1 MB throughput document under @sku, and on a
// document nested deep enough under a path criterion that the annotator
// spills matchers.
func TestScanAllocatesNothingPerToken(t *testing.T) {
	var deep strings.Builder
	deep.WriteString("<r>")
	for range 200 {
		for range 40 {
			deep.WriteString(`<d><n>key</n>`)
		}
		for range 40 {
			deep.WriteString(`</d>`)
		}
	}
	deep.WriteString("</r>")
	cases := []struct {
		name string
		doc  string
		crit *keys.Criterion
	}{
		{"bench document, @sku", xmltok.BenchDoc(), keys.ByAttrOrTag("sku")},
		{"deep document, path", deep.String(), &keys.Criterion{Rules: []keys.Rule{{Tag: "d", Source: keys.ByPath("n")}}}},
	}
	for _, c := range cases {
		spill := &sliceStack{size: c.crit.StateSize()}
		var tokens int
		allocs := testing.AllocsPerRun(3, func() {
			tokens = 0
			p := xmltok.NewParser(strings.NewReader(c.doc), xmltok.DefaultParserOptions())
			a := keys.NewAnnotator(c.crit, spill)
			for {
				tok, err := p.NextEncoded()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if _, err := a.Annotate(tok); err != nil {
					t.Fatal(err)
				}
				tokens++
			}
		})
		if allocs > maxScanAllocs {
			t.Errorf("%s: %v allocations for %d tokens, want at most %d", c.name, allocs, tokens, maxScanAllocs)
		}
		if spill.pushes == 0 && c.crit.MaxPathDepth() > 0 {
			t.Errorf("%s: no matcher spilled", c.name)
		}
	}
}

// sliceStack is an in-memory keys.SpillStack of fixed-size records, which
// keeps its storage between runs.
type sliceStack struct {
	size   int
	data   []byte
	pushes int
}

func (s *sliceStack) Push(rec []byte) error {
	s.data = append(s.data, rec...)
	s.pushes++
	return nil
}

func (s *sliceStack) Pop(dst []byte) error {
	if len(s.data) < s.size {
		return errors.New("sliceStack: empty")
	}
	copy(dst, s.data[len(s.data)-s.size:])
	s.data = s.data[:len(s.data)-s.size]
	return nil
}

func (s *sliceStack) Len() int64 { return int64(len(s.data) / s.size) }
