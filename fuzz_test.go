package nexsort_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nexsort"
	"nexsort/internal/merge"
	"nexsort/internal/xmltree"
)

// maxFuzzDoc caps FuzzSortAgrees' documents.
const maxFuzzDoc = 4 << 10

// fuzzCriteria are FuzzSortAgrees' orderings, one per kind of key source.
// Their 8-byte key cap keeps the criterion state under the 64-byte minimum
// block size, so the sorts run at the smallest block em accepts.
var fuzzCriteria = []struct {
	name string
	crit *nexsort.Criterion
}{
	{"attribute", &nexsort.Criterion{Rules: []nexsort.Rule{{Source: nexsort.ByAttr("k")}}, KeyCap: 8}},
	{"tag", &nexsort.Criterion{Rules: []nexsort.Rule{{Source: nexsort.ByTag()}}, KeyCap: 8}},
	{"child-text", &nexsort.Criterion{Rules: []nexsort.Rule{{Source: nexsort.ByText()}}, KeyCap: 8}},
	{"path", &nexsort.Criterion{Rules: []nexsort.Rule{
		{Tag: "a", Source: nexsort.ByPath("b", "c")},
		{Tag: "b", Source: nexsort.ByPath("c")},
		{Source: nexsort.ByAttr("k")},
	}, KeyCap: 8}},
}

// fuzzConfig is the geometry of every sort path: the smallest block size
// that holds the criterion's state, and 24 blocks of memory, which no
// document under the cap exhausts, but which cut a child list at 960 bytes
// in NEXSORT's default layout.
func fuzzConfig(crit *nexsort.Criterion, parallelism int) nexsort.Config {
	return nexsort.Config{
		BlockSize:   max(64, crit.StateSize()),
		MemoryBytes: 24 * int64(max(64, crit.StateSize())),
		InMemory:    true,
		Parallelism: parallelism,
	}
}

// sortPath is one way FuzzSortAgrees sorts a document.
type sortPath struct {
	name        string
	algo        nexsort.Algorithm
	paper       bool
	parallelism int
}

var sortPaths = []sortPath{
	{"nexsort P=1", nexsort.NEXSORT, false, 1},
	{"nexsort P=2", nexsort.NEXSORT, false, 2},
	{"nexsort paper layout", nexsort.NEXSORT, true, 1},
	{"mergesort", nexsort.MergeSort, false, 1},
	{"mergesort paper layout", nexsort.MergeSort, true, 1},
	{"inmemory", nexsort.InMemory, false, 1},
}

// startResolvable reports whether merge sort takes crit: it rejects a key
// that resolves only after the start tag.
func startResolvable(crit *nexsort.Criterion) bool {
	for _, r := range crit.Rules {
		if !r.Source.StartResolvable() {
			return false
		}
	}
	return true
}

// fuzzSeeds seed FuzzSortAgrees' corpus. Between them they reach
// NEXSORT's cuts, its deferred merges and a nested run tree in the default
// layout (TestSortAgreesSeeds), and content after the root, which every
// path rejects.
func fuzzSeeds() []string {
	var flat, deferred, chain strings.Builder
	flat.WriteString("<r>")
	for i := range 150 {
		fmt.Fprintf(&flat, `<a k="%03d"><b><c>%d</c></b>t</a>`, (i*7919)%1000, i%10)
	}
	flat.WriteString("</r>")
	deferred.WriteString(`<r><w k="w">`)
	for i := range 150 {
		fmt.Fprintf(&deferred, `<c k="%03d">%d</c>`, (i*389)%1000, i%7)
	}
	deferred.WriteString(`</w><a k="0">x</a></r>`)
	const depth = 10
	for i := range depth {
		fmt.Fprintf(&chain, `<a k="%d">%s`, depth-i, strings.Repeat("t", 130))
	}
	chain.WriteString(strings.Repeat("</a>", depth))
	return []string{
		`<r><a k="2"/><a k="1"/></r>junk<x/>`,
		`<r><a k="2"><b><c>y</c></b>z</a><a k="1"><b><c>x</c></b></a><!-- c --></r>`,
		flat.String(),
		deferred.String(),
		chain.String(),
	}
}

// FuzzSortAgrees runs one document through every sort path: NEXSORT's
// default layout at P = 1 and 2 and its paper layout, merge sort streamed
// and in the paper's layout (for a start-resolvable criterion only), and
// the in-memory sort. Either all of them succeed, with the same bytes,
// which Check finds sorted, and the same Elements and InputBytes, or all of
// them fail; their errors may differ.
func FuzzSortAgrees(f *testing.F) {
	for _, doc := range fuzzSeeds() {
		for i := range fuzzCriteria {
			f.Add([]byte(doc), uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte, which uint8) {
		if len(doc) > maxFuzzDoc {
			return
		}
		sortAgrees(t, doc, int(which)%len(fuzzCriteria))
	})
}

// sortAgrees is FuzzSortAgrees' property for one document and criterion.
// It returns the default layout's result at P = 1, nil when the document
// fails.
func sortAgrees(t *testing.T, doc []byte, which int) *nexsort.Result {
	c := fuzzCriteria[which]
	var first *nexsort.Result
	var firstName string
	var firstOut []byte
	var failed, succeeded []string
	for _, p := range sortPaths {
		if p.algo == nexsort.MergeSort && !startResolvable(c.crit) {
			continue
		}
		var out bytes.Buffer
		res, err := nexsort.Sort(bytes.NewReader(doc), &out, fuzzConfig(c.crit, p.parallelism),
			nexsort.Options{Criterion: c.crit, Algorithm: p.algo, PaperLayout: p.paper})
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", p.name, err))
			continue
		}
		succeeded = append(succeeded, p.name)
		if first == nil {
			first, firstName, firstOut = res, p.name, out.Bytes()
			rep, err := nexsort.Check(bytes.NewReader(firstOut), c.crit, 0)
			if err != nil || !rep.Sorted {
				t.Fatalf("%s, %s: output fails Check: %v %+v", c.name, p.name, err, rep)
			}
			continue
		}
		if !bytes.Equal(out.Bytes(), firstOut) {
			t.Fatalf("%s: %s writes\n%q\n%s writes\n%q", c.name, p.name, out.Bytes(), firstName, firstOut)
		}
		if res.Elements != first.Elements || res.InputBytes != first.InputBytes {
			t.Fatalf("%s: %s counts %d elements in %d bytes, %s %d in %d", c.name,
				p.name, res.Elements, res.InputBytes, firstName, first.Elements, first.InputBytes)
		}
	}
	if len(failed) > 0 && len(succeeded) > 0 {
		t.Fatalf("%s: %v succeed, but\n%s", c.name, succeeded, strings.Join(failed, "\n"))
	}
	return first
}

// TestSortAgreesSeeds runs FuzzSortAgrees' property over its seeds under
// every criterion, and checks that the seeds reach the default layout's
// routes the fuzzer is there to cover: a cut child list (an incomplete
// run), a deferred merge, whose run holds only its element's two tags, one
// block, where a merge at the end tag would write the merged children, and
// a run tree nested deeper than a block of the output location stack holds.
func TestSortAgreesSeeds(t *testing.T) {
	var cuts, deferred, nested bool
	for _, doc := range fuzzSeeds() {
		for i := range fuzzCriteria {
			res := sortAgrees(t, []byte(doc), i)
			if res == nil {
				continue
			}
			r := res.NEXSORT
			cuts = cuts || r.IncompleteRuns > 0
			deferred = deferred || r.MergedSubtrees > 0 && r.RunBlocks == r.MergedSubtrees
			nested = nested || res.IOs["output-stack"].Writes > 0
		}
	}
	if !cuts || !deferred || !nested {
		t.Errorf("the seeds reach cuts %v, deferred merges %v, a nested run tree %v", cuts, deferred, nested)
	}
}

// mergeSeeds seed FuzzMergeAgrees' corpus: pairs of documents whose roots
// match, with matched, unmatched and duplicate keys at several levels,
// text, unkeyed children, empty keys, keys equal only in their first 8
// bytes (the criteria's cap) and attributes on both sides, some repeated;
// and a pair whose roots do not match.
var mergeSeeds = [][2]string{
	{`<r><a k="1" x="l"><b k="2">t</b><b k="2"/>u</a><a k="3"/><c/></r>`,
		`<r><a k="1" x="r" y="r"><b k="2"><d k="9"/></b><b k="5"/></a><a k="0"/>v<c/></r>`},
	{`<r><a k="2"/><a k="1"><a k="1"/></a></r>`, `<r><a k="1"><a k="1"/><a k="1"/></a><b k="1"/></r>`},
	{`<r k="x"><a k="1"/></r>`, `<r k="y"><a k="1"/></r>`},
	{`<r>text<a k="1">x</a></r>`, `<r><a k="1">y</a>more</r>`},
	{`<r><a k="1" x="1" x="2"/><a k=""/><a/></r>`, `<r><a k="1" x="3" x="4"/><a k=""/><a/></r>`},
	{`<r><a k="abcdefgh1"/><a k="abcdefgh2"><![CDATA[x]]></a></r>`, `<r><a k="abcdefgh3">&amp;</a></r>`},
}

// FuzzMergeAgrees merges two documents, each sorted by NEXSORT under a
// start-resolvable criterion, with Merge, and with merge.NestedLoop over
// the two documents as parsed, sorted afterwards, as TestMergeQuick
// compares them: both succeed and write the same bytes, or both fail. A
// document that does not sort is skipped: FuzzSortAgrees covers it.
func FuzzMergeAgrees(f *testing.F) {
	for _, pair := range mergeSeeds {
		for which := range 4 {
			f.Add([]byte(pair[0]), []byte(pair[1]), uint8(which))
		}
	}
	f.Fuzz(func(t *testing.T, left, right []byte, which uint8) {
		if len(left) > maxFuzzDoc || len(right) > maxFuzzDoc {
			return
		}
		// Merge takes start-resolvable criteria only: the attribute and
		// tag orderings.
		c := fuzzCriteria[which%2]
		opts := nexsort.MergeOptions{PreferRight: which&2 != 0}
		var sorted [2]bytes.Buffer
		var trees [2]*xmltree.Node
		for i, doc := range [][]byte{left, right} {
			if _, err := nexsort.Sort(bytes.NewReader(doc), &sorted[i], fuzzConfig(c.crit, 1),
				nexsort.Options{Criterion: c.crit}); err != nil {
				return
			}
			tree, err := xmltree.Parse(bytes.NewReader(doc))
			if err != nil {
				t.Fatalf("%s: the document sorts, but does not parse: %v", c.name, err)
			}
			trees[i] = tree
		}
		var merged bytes.Buffer
		_, mergeErr := nexsort.Merge(&sorted[0], &sorted[1], c.crit, &merged, opts)
		naive, naiveErr := merge.NestedLoop(trees[0], trees[1], c.crit, opts)
		if (mergeErr == nil) != (naiveErr == nil) {
			t.Fatalf("%s, %+v: Merge %v, NestedLoop %v", c.name, opts, mergeErr, naiveErr)
		}
		if mergeErr != nil {
			return
		}
		naive.SortRecursive()
		if want := naive.XMLString(); merged.String() != want {
			t.Fatalf("%s, %+v: Merge writes\n%s\nNestedLoop, sorted, writes\n%s", c.name, opts, merged.String(), want)
		}
	})
}
