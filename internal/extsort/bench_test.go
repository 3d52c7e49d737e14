package extsort

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/gen"
	"nexsort/internal/keypath"
	"nexsort/internal/keys"
	"nexsort/internal/sortkey"
	"nexsort/internal/xmltok"
)

// BenchmarkSorterExternal measures a genuinely external record sort
// (multiple initial runs plus merging).
func BenchmarkSorterExternal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	recs := make([][]byte, 20000)
	var bytesTotal int64
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("%08d-%032x", rng.Intn(1e8), rng.Int63()))
		bytesTotal += int64(len(recs[i]))
	}
	b.SetBytes(bytesTotal)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := em.NewEnv(em.Config{BlockSize: 4096, MemBlocks: 16})
		if err != nil {
			b.Fatal(err)
		}
		s, err := New(env, em.CatMergeRun, func(a, c []byte) int { return bytes.Compare(a, c) }, 14)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := s.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := it.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(recs) {
			b.Fatalf("%d records out", n)
		}
		it.Close()
		s.Close()
		env.Close()
	}
}

// BenchmarkFramePool measures the allocation profile of the extsort record
// path — Add's per-record copy plus run formation and merging — which is
// the hot loop the frame-pool arena exists for. Run with -benchmem.
func BenchmarkFramePool(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	recs := make([][]byte, 50000)
	var bytesTotal int64
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("%08d-%024x", rng.Intn(1e8), rng.Int63()))
		bytesTotal += int64(len(recs[i]))
	}
	b.SetBytes(bytesTotal)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := em.NewEnv(em.Config{BlockSize: 4096, MemBlocks: 32, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		s, err := New(env, em.CatMergeRun, func(a, c []byte) int { return bytes.Compare(a, c) }, 30)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := s.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := it.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(recs) {
			b.Fatalf("%d records out", n)
		}
		it.Close()
		s.Close()
		env.Close()
	}
}

// BenchmarkKeyPathSorterExternal measures the external sort on its product
// workload: keypath-encoded records under the comparison kernel (normalized
// key prefixes + loser-tree merge). This is the configuration SortXML and
// core's subtree sorts run, so its ns/op is the end-to-end figure for the
// sort hot path.
func BenchmarkKeyPathSorterExternal(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	keyPool := []string{"", "NE", "SW", "alpha", "beta", "gamma", "delta"}
	recs := make([][]byte, 20000)
	var bytesTotal int64
	for i := range recs {
		depth := 1 + rng.Intn(6)
		rec := keypath.Record{Path: make([]keypath.Component, depth)}
		for d := range rec.Path {
			rec.Path[d] = keypath.Component{
				Key: keyPool[rng.Intn(len(keyPool))],
				Seq: int64(rng.Intn(40)),
			}
		}
		rec.Tok = xmltok.Token{Kind: xmltok.KindText, Text: fmt.Sprintf("text-%06d", i)}
		recs[i] = keypath.AppendRecord(nil, rec)
		bytesTotal += int64(len(recs[i]))
	}
	b.SetBytes(bytesTotal)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := em.NewEnv(em.Config{BlockSize: 4096, MemBlocks: 16, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewKernel(env, em.CatMergeRun, sortkey.KeyPath(), 14)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := s.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := it.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(recs) {
			b.Fatalf("%d records out", n)
		}
		it.Close()
		s.Close()
		env.Close()
	}
}

// BenchmarkRunFormation times run formation's sort alone on the key-path
// records merge sort makes of the end-to-end benchmark's documents at seed
// 9 (benchmark/workloads.go): the hier, site and flat documents under
// their criteria, cut into batches where SortXML cuts them under each
// workload's block size and memory. walks/op is the kernel walks the sort
// took, the comparisons its LCPs and head words left undecided.
func BenchmarkRunFormation(b *testing.B) {
	docs := []struct {
		name string
		doc  interface {
			Write(io.Writer) (gen.Stats, error)
		}
		crit   *keys.Criterion
		memory int // bytes
	}{
		{"hier", hierDoc(), byKey(), 1 << 20},
		{"site", gen.SiteSpec{Items: 1000, MaxBids: 10, Seed: 9}, &keys.Criterion{Rules: []keys.Rule{
			{Tag: "region", Source: keys.ByAttr("name")},
			{Tag: "item", Source: keys.ByAttr("id")},
			{Tag: "bid", Source: keys.ByAttr("amount")},
		}}, 192 << 10},
		{"flat", gen.CustomSpec{Fanouts: []int{25000}, Seed: 9}, byKey(), 1 << 20},
	}
	const blockSize = 4 << 10
	for _, d := range docs {
		b.Run(d.name, func(b *testing.B) {
			var doc bytes.Buffer
			if _, err := d.doc.Write(&doc); err != nil {
				b.Fatal(err)
			}
			// SortXML reserves two blocks and gives the sorter the rest.
			bufLimit := (d.memory/blockSize - 3) * blockSize
			batches := keyPathBatches(b, doc.Bytes(), d.crit, bufLimit)
			env, err := em.NewEnv(em.Config{BlockSize: blockSize, MemBlocks: 16, Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			s, err := NewKernel(env, em.CatMergeRun, sortkey.KeyPath(), 3)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			walks := 0
			walk := s.k.Walk
			s.k.Walk = func(a, c []byte, la, lc sortkey.LCP) (int, sortkey.LCP, sortkey.LCP) {
				walks++
				return walk(a, c, la, lc)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, batch := range batches {
					s.entries = s.entries[:0]
					for _, rec := range batch {
						s.entries = append(s.entries, entry{Bytes: rec})
					}
					s.sortEntries()
				}
			}
			b.ReportMetric(float64(walks)/float64(b.N), "walks/op")
		})
	}
}

func hierDoc() gen.CustomSpec {
	spec := gen.CappedShape(25000, 6)
	spec.Seed = 9
	return spec
}

func byKey() *keys.Criterion {
	return &keys.Criterion{Rules: []keys.Rule{{Source: keys.ByAttr(gen.DefaultKeyAttr)}}}
}

// keyPathBatches extracts doc's key-path records as SortXML does and cuts
// them into the batches SortXML's sorter sorts: a batch ends with the
// record that brings it to bufLimit bytes.
func keyPathBatches(b *testing.B, doc []byte, c *keys.Criterion, bufLimit int) [][][]byte {
	parser := xmltok.NewParser(bytes.NewReader(doc), xmltok.DefaultParserOptions())
	annot := keys.NewAnnotator(c, nil)
	extract := keypath.NewExtractor()
	var batches [][][]byte
	var batch [][]byte
	size := 0
	for {
		tok, err := parser.NextEncoded()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		if tok, err = annot.Annotate(tok); err != nil {
			b.Fatal(err)
		}
		rec, ok, err := extract.Append(nil, tok)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			continue
		}
		batch = append(batch, rec)
		if size += len(rec); size >= bufLimit {
			batches, batch, size = append(batches, batch), nil, 0
		}
	}
	if len(batch) > 0 {
		batches = append(batches, batch)
	}
	return batches
}
