package keypath

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"nexsort/internal/gen"
	"nexsort/internal/keys"
	"nexsort/internal/xmltree"
)

// siteCriterion is the auction-site document's natural order: regions by
// name, items by id, bids by amount; every other element keeps document
// order.
func siteCriterion() *keys.Criterion {
	return &keys.Criterion{Rules: []keys.Rule{
		{Tag: "region", Source: keys.ByAttr("name")},
		{Tag: "item", Source: keys.ByAttr("id")},
		{Tag: "bid", Source: keys.ByAttr("amount")},
	}}
}

// genDoc writes a generated document: the capped hierarchical shape under
// its key attribute when site is false, the auction site otherwise.
func genDoc(tb testing.TB, site bool, size int, seed int64) (string, *keys.Criterion) {
	tb.Helper()
	var buf bytes.Buffer
	var err error
	if site {
		_, err = gen.SiteSpec{Items: size, MaxBids: 6, Seed: seed}.Write(&buf)
	} else {
		spec := gen.CappedShape(int64(size), 2+int(seed%7))
		spec.Seed = seed
		_, err = spec.Write(&buf)
	}
	if err != nil {
		tb.Fatal(err)
	}
	if site {
		return buf.String(), siteCriterion()
	}
	return buf.String(), keys.ByAttrOrTag(gen.DefaultKeyAttr)
}

// TestExtractSortBuildMatchesOracle is the property behind both sorters'
// key-path phase, on random generated documents: extract (each record
// checked against AppendRecord by extractEncoded), sort with the encoded
// comparator, and rebuild must give the in-memory recursive sort's
// document.
func TestExtractSortBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		site := trial%2 == 1
		size := 10 + rng.Intn(400)
		if site {
			size = 1 + rng.Intn(8)
		}
		seed := rng.Int63n(1 << 30)
		doc, crit := genDoc(t, site, size, seed)
		recs := extractEncoded(t, doc, crit)
		slices.SortFunc(recs, CompareEncoded)
		got, err := buildString(recs)
		if err != nil {
			t.Fatalf("site=%v size=%d seed=%d: %v", site, size, seed, err)
		}
		tree, err := xmltree.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		tree.ComputeKeys(crit)
		tree.SortRecursive()
		if want := tree.XMLString(); got != want {
			t.Fatalf("site=%v size=%d seed=%d: rebuilt document differs from the recursive sort\n got %.300s\nwant %.300s",
				site, size, seed, got, want)
		}
	}
}

var compareSink int

// BenchmarkCompareSortedNeighbours compares every sorted key-path record
// of a generated document with its successor. Such pairs share their
// leading components, as the pairs that run formation and merging compare
// mostly do; sortkey's BenchmarkCompareKeyPath compares unrelated records.
func BenchmarkCompareSortedNeighbours(b *testing.B) {
	for _, w := range []struct {
		name string
		site bool
		size int
	}{
		{"site", true, 200},
		{"hier", false, 20000},
	} {
		b.Run(w.name, func(b *testing.B) {
			doc, crit := genDoc(b, w.site, w.size, 9)
			recs := extractEncoded(b, doc, crit)
			slices.SortFunc(recs, CompareEncoded)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % (len(recs) - 1)
				compareSink += CompareEncoded(recs[j], recs[j+1])
			}
		})
	}
}
