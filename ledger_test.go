package nexsort_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"nexsort"
	"nexsort/internal/gen"
)

// rw is one category's pinned block transfers: reads, writes.
type rw [2]int64

// TestPinnedLedger pins the absolute per-category block-transfer ledger —
// the paper's metric — of four small documents under NEXSORT's default
// layout, its paper layout and the merge-sort baseline. The geometry
// (512-byte blocks, M = 16) spills in every mode, so the pinned counts
// cover stack paging, subtree sorts, incomplete runs and multi-pass
// merges. The site-path document sorts items by a child's text, which
// resolves at end tags: the paper layout's external subtree sorts then go
// through the key sidecar. Every mode runs at P ∈ {1, 2, 8} against the
// one ledger, since worker dispatch may change no block transfer. A change
// that moves any of these numbers changes the algorithm, not just its
// speed, and must say so block for block.
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
				{"mergesort", nexsort.Options{Algorithm: nexsort.MergeSort}, map[string]rw{
					"input": {544, 0}, "merge-run": {1950, 1950}, "output": {0, 544}}, [2]int{}},
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
				{"mergesort", nexsort.Options{Algorithm: nexsort.MergeSort}, map[string]rw{
					"input": {940, 0}, "merge-run": {4146, 4146}, "output": {0, 940}}, [2]int{}},
			},
		},
		{
			name:  "site",
			crit:  "region=@name,item=@id,bid=@amount",
			write: gen.SiteSpec{Items: 60, MaxBids: 10, Seed: 9}.Write,
			modes: []mode{
				{"nexsort", nexsort.Options{}, map[string]rw{
					"input": {207, 0}, "data-stack": {16, 8}, "subtree-sort": {267, 506},
					"run-read": {239, 0}, "output": {0, 207}}, [2]int{0, 6}},
				{"paper-layout", nexsort.Options{PaperLayout: true}, map[string]rw{
					"input": {207, 0}, "data-stack": {284, 278}, "subtree-sort": {1246, 1486},
					"run-read": {246, 0}, "output": {0, 207}}, [2]int{6, 0}},
				{"mergesort", nexsort.Options{Algorithm: nexsort.MergeSort}, map[string]rw{
					"input": {207, 0}, "merge-run": {1251, 1251}, "output": {0, 207}}, [2]int{}},
			},
		},
		{
			// Merge sort rejects path criteria, so it has no mode here.
			name:  "site-path",
			crit:  "region=@name,item=name/text(),bid=@amount",
			write: gen.SiteSpec{Items: 60, MaxBids: 10, Seed: 9}.Write,
			modes: []mode{
				{"nexsort", nexsort.Options{}, map[string]rw{
					"input": {207, 0}, "data-stack": {6, 3}, "subtree-sort": {263, 502},
					"run-read": {239, 0}, "output": {0, 207}}, [2]int{0, 6}},
				{"paper-layout", nexsort.Options{PaperLayout: true}, map[string]rw{
					"input": {207, 0}, "data-stack": {546, 270}, "subtree-sort": {1892, 2132},
					"run-read": {246, 0}, "output": {0, 207}}, [2]int{6, 0}},
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
