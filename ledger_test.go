package nexsort_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nexsort"
	"nexsort/internal/gen"
)

// rw is one category's pinned block transfers: reads, writes.
type rw [2]int64

// writeNestedDoc writes a document whose graceful degeneration nests at
// 512-byte blocks: a root with leaves, p and m children; each m holds
// leaves and p children; each p holds nothing but leaves. At M = 16 every
// p's children are cut into incomplete runs, so its merge is deferred to
// the output phase; every m is cut too, and its runs lead to those merges,
// so it is merged at its end tag; and the root is merged in the output
// phase, where the merges of the p children it leads to, directly and
// through the m runs, run inside its own.
func writeNestedDoc(w io.Writer) (gen.Stats, error) {
	rng := rand.New(rand.NewSource(9))
	var b strings.Builder
	leaves := func(n int) {
		for range n {
			fmt.Fprintf(&b, `<l key="%08d">%s</l>`, rng.Intn(1e8), strings.Repeat("t", 60+rng.Intn(40)))
		}
	}
	p := func() {
		fmt.Fprintf(&b, `<p key="%08d">`, rng.Intn(1e8))
		leaves(40 + rng.Intn(20))
		b.WriteString(`</p>`)
	}
	b.WriteString(`<r key="root">`)
	for range 3 {
		leaves(20)
		fmt.Fprintf(&b, `<m key="%08d">`, rng.Intn(1e8))
		for range 3 {
			leaves(20)
			p()
		}
		b.WriteString(`</m>`)
		p()
	}
	b.WriteString(`</r>`)
	n, err := io.WriteString(w, b.String())
	return gen.Stats{Bytes: int64(n)}, err
}

// writeWideDoc writes a flat root of 2,000 leaves with one wide child of
// 400 leaves halfway along. At 512-byte blocks and M = 16 the wide child is
// cut into 14 incomplete runs and its merge is deferred; the root is cut
// into 66 and merged in the output phase, where its merge, after one pass,
// holds 6 reader blocks and leaves the wide child's merge 6 of its 12, so
// that merge takes a pass of its own: one over the root's records would
// cost more.
func writeWideDoc(w io.Writer) (gen.Stats, error) {
	rng := rand.New(rand.NewSource(9))
	var b strings.Builder
	leaf := func() {
		fmt.Fprintf(&b, `<l key="%08d">%s</l>`, rng.Intn(1e8), strings.Repeat("t", 60+rng.Intn(40)))
	}
	b.WriteString(`<r key="root">`)
	for i := range 2000 {
		if i == 1000 {
			fmt.Fprintf(&b, `<w key="%08d">`, rng.Intn(1e8))
			for range 400 {
				leaf()
			}
			b.WriteString(`</w>`)
		}
		leaf()
	}
	b.WriteString(`</r>`)
	n, err := io.WriteString(w, b.String())
	return gen.Stats{Bytes: int64(n)}, err
}

// TestPinnedLedger pins the absolute per-category block-transfer ledger —
// the paper's metric — of six small documents under NEXSORT's default
// layout, its paper layout and the merge-sort baseline, which runs both as
// the paper's (PaperLayout: the final merge written and read back) and
// streamed into reconstruction. The geometry (512-byte blocks, M = 16)
// spills in every mode, so the pinned counts cover stack paging, subtree
// sorts, incomplete runs, deferred merges and multi-pass merges. The
// site-path document sorts items by a child's text, which resolves at end
// tags: the paper layout's external subtree sorts then go through the key
// sidecar. Every mode runs at P ∈ {1, 2, 8} against the one ledger, since
// worker dispatch may change no block transfer. A change that moves any of
// these numbers changes the algorithm, not just its speed, and must say so
// block for block.
func TestPinnedLedger(t *testing.T) {
	type mode struct {
		name string
		opts nexsort.Options
		want map[string]rw
		// sorts is NEXSORT's external and merged subtree sorts; zero for
		// merge sort.
		sorts [2]int
	}
	docs := []struct {
		name  string
		crit  string
		write func(io.Writer) (gen.Stats, error)
		modes []mode
	}{
		{
			name:  "flat",
			crit:  "@key",
			write: gen.CustomSpec{Fanouts: []int{2000}, Seed: 9}.Write,
			modes: []mode{
				{"nexsort", nexsort.Options{}, map[string]rw{
					"input": {544, 0}, "subtree-sort": {1281, 1281}, "output": {0, 544}}, [2]int{0, 1}},
				{"paper-layout", nexsort.Options{PaperLayout: true}, map[string]rw{
					"input": {544, 0}, "data-stack": {597, 597}, "subtree-sort": {2625, 3188},
					"run-read": {563, 0}, "output": {0, 544}}, [2]int{1, 0}},
				{"mergesort", nexsort.Options{Algorithm: nexsort.MergeSort, PaperLayout: true}, map[string]rw{
					"input": {544, 0}, "merge-run": {1950, 1950}, "output": {0, 544}}, [2]int{}},
				{"mergesort-streamed", nexsort.Options{Algorithm: nexsort.MergeSort}, map[string]rw{
					"input": {544, 0}, "merge-run": {1309, 1309}, "output": {0, 544}}, [2]int{}},
			},
		},
		{
			name: "capped",
			crit: "@key",
			write: func(w io.Writer) (gen.Stats, error) {
				spec := gen.CappedShape(3000, 6)
				spec.Seed = 9
				return spec.Write(w)
			},
			modes: []mode{
				{"nexsort", nexsort.Options{}, map[string]rw{
					"input": {940, 0}, "subtree-sort": {0, 1008}, "run-read": {1488, 0},
					"output": {0, 940}}, [2]int{0, 0}},
				{"paper-layout", nexsort.Options{PaperLayout: true}, map[string]rw{
					"input": {940, 0}, "data-stack": {1559, 1063}, "subtree-sort": {0, 1010},
					"run-read": {1506, 0}, "output": {0, 940}}, [2]int{0, 0}},
				{"mergesort", nexsort.Options{Algorithm: nexsort.MergeSort, PaperLayout: true}, map[string]rw{
					"input": {940, 0}, "merge-run": {4146, 4146}, "output": {0, 940}}, [2]int{}},
				{"mergesort-streamed", nexsort.Options{Algorithm: nexsort.MergeSort}, map[string]rw{
					"input": {940, 0}, "merge-run": {2787, 2787}, "output": {0, 940}}, [2]int{}},
			},
		},
		{
			name:  "site",
			crit:  "region=@name,item=@id,bid=@amount",
			write: gen.SiteSpec{Items: 60, MaxBids: 10, Seed: 9}.Write,
			modes: []mode{
				{"nexsort", nexsort.Options{}, map[string]rw{
					"input": {207, 0}, "data-stack": {16, 8}, "subtree-sort": {267, 273},
					"run-read": {6, 0}, "output": {0, 207}}, [2]int{0, 6}},
				{"paper-layout", nexsort.Options{PaperLayout: true}, map[string]rw{
					"input": {207, 0}, "data-stack": {284, 278}, "subtree-sort": {1246, 1486},
					"run-read": {246, 0}, "output": {0, 207}}, [2]int{6, 0}},
				{"mergesort", nexsort.Options{Algorithm: nexsort.MergeSort, PaperLayout: true}, map[string]rw{
					"input": {207, 0}, "merge-run": {1251, 1251}, "output": {0, 207}}, [2]int{}},
				{"mergesort-streamed", nexsort.Options{Algorithm: nexsort.MergeSort}, map[string]rw{
					"input": {207, 0}, "merge-run": {841, 841}, "output": {0, 207}}, [2]int{}},
			},
		},
		{
			// Merge sort rejects path criteria, so it has no mode here.
			name:  "site-path",
			crit:  "region=@name,item=name/text(),bid=@amount",
			write: gen.SiteSpec{Items: 60, MaxBids: 10, Seed: 9}.Write,
			modes: []mode{
				{"nexsort", nexsort.Options{}, map[string]rw{
					"input": {207, 0}, "data-stack": {6, 3}, "subtree-sort": {263, 269},
					"run-read": {6, 0}, "output": {0, 207}}, [2]int{0, 6}},
				{"paper-layout", nexsort.Options{PaperLayout: true}, map[string]rw{
					"input": {207, 0}, "data-stack": {546, 270}, "subtree-sort": {1892, 2132},
					"run-read": {246, 0}, "output": {0, 207}}, [2]int{6, 0}},
			},
		},
		{
			name:  "nested",
			crit:  "@key",
			write: writeNestedDoc,
			modes: []mode{
				{"nexsort", nexsort.Options{}, map[string]rw{
					"input": {167, 0}, "data-stack": {52, 43}, "subtree-sort": {221, 273},
					"run-read": {61, 0}, "output": {0, 167}}, [2]int{0, 16}},
				{"paper-layout", nexsort.Options{PaperLayout: true}, map[string]rw{
					"input": {167, 0}, "data-stack": {211, 196}, "subtree-sort": {543, 732},
					"run-read": {204, 0}, "output": {0, 167}}, [2]int{16, 0}},
				{"mergesort", nexsort.Options{Algorithm: nexsort.MergeSort, PaperLayout: true}, map[string]rw{
					"input": {167, 0}, "merge-run": {881, 881}, "output": {0, 167}}, [2]int{}},
				{"mergesort-streamed", nexsort.Options{Algorithm: nexsort.MergeSort}, map[string]rw{
					"input": {167, 0}, "merge-run": {593, 593}, "output": {0, 167}}, [2]int{}},
			},
		},
		{
			name:  "wide",
			crit:  "@key",
			write: writeWideDoc,
			modes: []mode{
				{"nexsort", nexsort.Options{}, map[string]rw{
					"input": {475, 0}, "data-stack": {27, 15}, "subtree-sort": {1208, 1209},
					"run-read": {1, 0}, "output": {0, 475}}, [2]int{0, 2}},
				{"paper-layout", nexsort.Options{PaperLayout: true}, map[string]rw{
					"input": {475, 0}, "data-stack": {560, 559}, "subtree-sort": {2756, 3275},
					"run-read": {520, 0}, "output": {0, 475}}, [2]int{2, 0}},
				{"mergesort", nexsort.Options{Algorithm: nexsort.MergeSort, PaperLayout: true}, map[string]rw{
					"input": {475, 0}, "merge-run": {2164, 2164}, "output": {0, 475}}, [2]int{}},
				{"mergesort-streamed", nexsort.Options{Algorithm: nexsort.MergeSort}, map[string]rw{
					"input": {475, 0}, "merge-run": {1457, 1457}, "output": {0, 475}}, [2]int{}},
			},
		},
	}
	for _, d := range docs {
		var in bytes.Buffer
		if _, err := d.write(&in); err != nil {
			t.Fatal(err)
		}
		crit, err := nexsort.ParseCriterion(d.crit)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range d.modes {
			t.Run(d.name+"/"+m.name, func(t *testing.T) {
				opts := m.opts
				opts.Criterion = crit
				for _, p := range []int{1, 2, 8} {
					cfg := nexsort.Config{BlockSize: 512, MemoryBytes: 16 * 512, InMemory: true, Parallelism: p}
					res, err := nexsort.Sort(bytes.NewReader(in.Bytes()), io.Discard, cfg, opts)
					if err != nil {
						t.Fatalf("P=%d: %v", p, err)
					}
					got := make(map[string]rw, len(res.IOs))
					for cat, c := range res.IOs {
						got[cat] = rw{c.Reads, c.Writes}
					}
					if !reflect.DeepEqual(got, m.want) {
						t.Errorf("P=%d: ledger\n got %v\nwant %v", p, got, m.want)
					}
					var sorts [2]int
					if r := res.NEXSORT; r != nil {
						sorts = [2]int{r.ExternalSorts, r.MergedSubtrees}
					}
					if sorts != m.sorts {
						t.Errorf("P=%d: external and merged subtree sorts %v, want %v", p, sorts, m.sorts)
					}
				}
			})
		}
	}
}

// TestNestedDegenerationAgrees sorts the nested document at the 12-block
// floor, where the root's merge and the deferred merges inside it compete
// for the fewest blocks, with every algorithm and layout, plain and with
// each option that changes what the sorts carry or write. RecordOrder is
// NEXSORT's alone, so only its two layouts are compared there.
func TestNestedDegenerationAgrees(t *testing.T) {
	var in bytes.Buffer
	if _, err := writeNestedDoc(&in); err != nil {
		t.Fatal(err)
	}
	crit, err := nexsort.ParseCriterion("@key")
	if err != nil {
		t.Fatal(err)
	}
	cfg := nexsort.Config{BlockSize: 512, MemoryBytes: 12 * 512, InMemory: true}
	all := []nexsort.Options{
		{},
		{PaperLayout: true},
		{Algorithm: nexsort.MergeSort},
		{Algorithm: nexsort.InMemory},
	}
	variants := []struct {
		name  string
		set   func(*nexsort.Options)
		algos []nexsort.Options
	}{
		{"plain", func(*nexsort.Options) {}, all},
		{"compact", func(o *nexsort.Options) { o.Compact = true }, all},
		{"indent", func(o *nexsort.Options) { o.Indent = "  " }, all},
		{"depth-limit", func(o *nexsort.Options) { o.DepthLimit = 2 }, all},
		{"record-order", func(o *nexsort.Options) { o.RecordOrder = "seq" }, all[:2]},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			var want []byte
			for i, o := range v.algos {
				o.Criterion = crit
				v.set(&o)
				var out bytes.Buffer
				res, err := nexsort.Sort(bytes.NewReader(in.Bytes()), &out, cfg, o)
				if err != nil {
					t.Fatalf("%v paper=%v: %v", o.Algorithm, o.PaperLayout, err)
				}
				if i == 0 {
					want = out.Bytes()
					if res.NEXSORT.MergedSubtrees == 0 {
						t.Errorf("the default layout merged no subtree")
					}
					continue
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Errorf("%v paper=%v: output differs from the default layout's", o.Algorithm, o.PaperLayout)
				}
			}
		})
	}
}
