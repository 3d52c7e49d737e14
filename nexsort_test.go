package nexsort

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/stats"
	"nexsort/internal/xmltok"
)

const apiDoc = `<company>
  <region name="NE"/>
  <region name="AC">
    <branch name="Durham"><employee ID="454"/><employee ID="323"><name>Smith</name></employee></branch>
    <branch name="Atlanta"/>
  </region>
</company>`

func apiCriterion() *Criterion {
	return &Criterion{Rules: []Rule{
		{Tag: "region", Source: ByAttr("name")},
		{Tag: "branch", Source: ByAttr("name")},
		{Tag: "employee", Source: ByAttr("ID")},
	}}
}

const apiSorted = `<company><region name="AC"><branch name="Atlanta"></branch><branch name="Durham"><employee ID="323"><name>Smith</name></employee><employee ID="454"></employee></branch></region><region name="NE"></region></company>`

func TestSortAllAlgorithmsAgree(t *testing.T) {
	cfg := Config{BlockSize: 256, MemoryBytes: 256 * 20, InMemory: true}
	for _, algo := range []Algorithm{NEXSORT, MergeSort, InMemory} {
		var out strings.Builder
		res, err := Sort(strings.NewReader(apiDoc), &out, cfg, Options{Criterion: apiCriterion(), Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if out.String() != apiSorted {
			t.Errorf("%v output:\n got %s\nwant %s", algo, out.String(), apiSorted)
		}
		if res.Elements != 8 {
			t.Errorf("%v: Elements = %d, want 8", algo, res.Elements)
		}
		if res.TotalIOs <= 0 || res.SimulatedSeconds <= 0 {
			t.Errorf("%v: missing accounting: ios=%d sim=%g", algo, res.TotalIOs, res.SimulatedSeconds)
		}
	}
}

// TestResultFields checks every field of Result for each algorithm. A field
// added to Result fails the test until it is checked here too.
func TestResultFields(t *testing.T) {
	checked := []string{"Algorithm", "Elements", "InputBytes", "OutputBytes", "IOs", "TotalIOs",
		"SimulatedSeconds", "WallSeconds", "NEXSORT", "MergeSort"}
	var fields []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Result{})) {
		fields = append(fields, f.Name)
	}
	if !reflect.DeepEqual(fields, checked) {
		t.Fatalf("Result has fields %v, the test checks %v", fields, checked)
	}

	cfg := Config{BlockSize: 256, MemoryBytes: 256 * 20}
	for _, algo := range []Algorithm{NEXSORT, MergeSort, InMemory} {
		var out strings.Builder
		res, err := Sort(strings.NewReader(apiDoc), &out, cfg, Options{Criterion: apiCriterion(), Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Algorithm != algo {
			t.Errorf("%v: Algorithm = %v", algo, res.Algorithm)
		}
		if res.Elements != 8 {
			t.Errorf("%v: Elements = %d, want 8", algo, res.Elements)
		}
		if res.InputBytes != int64(len(apiDoc)) {
			t.Errorf("%v: InputBytes = %d, want %d", algo, res.InputBytes, len(apiDoc))
		}
		if res.OutputBytes != int64(out.Len()) {
			t.Errorf("%v: OutputBytes = %d, want %d", algo, res.OutputBytes, out.Len())
		}
		var sum int64
		for _, c := range res.IOs {
			sum += c.Reads + c.Writes
		}
		if res.TotalIOs <= 0 || sum != res.TotalIOs {
			t.Errorf("%v: TotalIOs = %d, the categories sum to %d", algo, res.TotalIOs, sum)
		}
		if want := em.DefaultCostModel().Seconds(res.TotalIOs, 256); res.SimulatedSeconds != want {
			t.Errorf("%v: SimulatedSeconds = %g, want %g", algo, res.SimulatedSeconds, want)
		}
		if res.WallSeconds <= 0 {
			t.Errorf("%v: WallSeconds = %g", algo, res.WallSeconds)
		}
		if (res.NEXSORT != nil) != (algo == NEXSORT) || (res.MergeSort != nil) != (algo == MergeSort) {
			t.Errorf("%v: detail reports NEXSORT=%v MergeSort=%v", algo, res.NEXSORT != nil, res.MergeSort != nil)
		}
		if res.NEXSORT != nil && (res.NEXSORT.InputBytes != res.InputBytes || res.NEXSORT.OutputBytes != res.OutputBytes) {
			t.Errorf("NEXSORT report sizes %d/%d differ from the result's", res.NEXSORT.InputBytes, res.NEXSORT.OutputBytes)
		}
		if res.MergeSort != nil && (res.MergeSort.InputBytes != res.InputBytes || res.MergeSort.OutputBytes != res.OutputBytes) {
			t.Errorf("MergeSort report sizes %d/%d differ from the result's", res.MergeSort.InputBytes, res.MergeSort.OutputBytes)
		}
	}
}

func TestSortFile(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.xml")
	outPath := filepath.Join(dir, "out.xml")
	if err := os.WriteFile(inPath, []byte(apiDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{BlockSize: 256, MemoryBytes: 256 * 20, ScratchDir: dir}
	res, err := SortFile(inPath, outPath, cfg, Options{Criterion: apiCriterion()})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != apiSorted {
		t.Errorf("file output mismatch: %s", data)
	}
	if res.Algorithm != NEXSORT || res.NEXSORT == nil {
		t.Error("NEXSORT detail report missing")
	}
	// The scratch device file must be gone.
	left, _ := filepath.Glob(filepath.Join(dir, "nexsort-scratch-*"))
	if len(left) != 0 {
		t.Errorf("scratch files left behind: %v", left)
	}
}

func TestDefaultsAndValidation(t *testing.T) {
	if _, err := (Config{BlockSize: 16}).normalize(); err == nil {
		t.Error("tiny block size should fail validation")
	}
	if _, err := (Config{BlockSize: 1 << 20, MemoryBytes: 1 << 20}).normalize(); err == nil {
		t.Error("memory of one block should fail validation")
	}
	cfg, err := DefaultConfig().normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BlockSize != DefaultBlockSize || cfg.MemBlocks != int(DefaultMemoryBytes/DefaultBlockSize) {
		t.Errorf("defaults: %+v", cfg)
	}
	var out strings.Builder
	if _, err := Sort(strings.NewReader("<a/>"), &out, Config{InMemory: true}, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestSortAndMergePipeline(t *testing.T) {
	d2 := `<company>
	  <region name="NW"/>
	  <region name="AC"><branch name="Durham"><employee ID="323"><salary>45000</salary></employee></branch></region>
	</company>`
	crit := apiCriterion()
	cfg := Config{BlockSize: 256, MemoryBytes: 256 * 20, ScratchDir: t.TempDir()}
	var out bytes.Buffer
	lres, rres, mrep, err := SortAndMerge(strings.NewReader(apiDoc), strings.NewReader(d2), crit, &out, cfg, MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lres.Elements != 8 || rres.Elements != 6 {
		t.Errorf("sort results: %d, %d elements", lres.Elements, rres.Elements)
	}
	if mrep.Matched != 4 { // company, region AC, branch Durham, employee 323
		t.Errorf("Matched = %d, want 4", mrep.Matched)
	}
	want := `<company><region name="AC"><branch name="Atlanta"></branch><branch name="Durham"><employee ID="323"><name>Smith</name><salary>45000</salary></employee><employee ID="454"></employee></branch></region><region name="NE"></region><region name="NW"></region></company>`
	if out.String() != want {
		t.Errorf("pipeline output:\n got %s\nwant %s", out.String(), want)
	}
}

func TestApplyUpdatesAPI(t *testing.T) {
	crit := &Criterion{Rules: []Rule{{Tag: "item", Source: ByAttr("sku")}}}
	base := `<inv><item sku="A" qty="1"/></inv>`
	upd := `<inv><item sku="A" qty="9"/><item sku="B" qty="3"/></inv>`
	var out strings.Builder
	if _, err := ApplyUpdates(strings.NewReader(base), strings.NewReader(upd), crit, &out, ""); err != nil {
		t.Fatal(err)
	}
	want := `<inv><item sku="A" qty="9"></item><item sku="B" qty="3"></item></inv>`
	if out.String() != want {
		t.Errorf("got %s, want %s", out.String(), want)
	}
	if _, err := Merge(strings.NewReader(base), strings.NewReader(upd), nil, &out, MergeOptions{}); err == nil {
		t.Error("nil criterion should fail")
	}
}

func TestGenerateAPI(t *testing.T) {
	var buf bytes.Buffer
	st, err := Generate(CustomSpec{Fanouts: []int{4, 3}, Seed: 1}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Elements != 17 {
		t.Errorf("Elements = %d, want 17", st.Elements)
	}
	specs := Table2Spec()
	if len(specs) != 5 || specs[0].Elements() != 3000001 {
		t.Errorf("Table2Spec = %v", specs)
	}
	if got := CappedShape(1000, 10); got.Elements() < 1000 {
		t.Errorf("CappedShape too small: %v", got)
	}
	if got := ScaledShapeSeries(500, 4); len(got) != 3 {
		t.Errorf("ScaledShapeSeries = %v", got)
	}
	// Generated documents sort cleanly end to end.
	var out strings.Builder
	res, err := Sort(strings.NewReader(buf.String()), &out, Config{BlockSize: 256, MemoryBytes: 256 * 16, InMemory: true},
		Options{Criterion: ByAttrOrTag("key")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements != 17 {
		t.Errorf("sorted %d elements", res.Elements)
	}
}

func TestXSortViaAPI(t *testing.T) {
	doc := `<lib><shelf id="2"><book id="9"/><book id="2"/></shelf><shelf id="1"/></lib>`
	cfg := Config{BlockSize: 256, MemoryBytes: 256 * 16, InMemory: true}
	var out strings.Builder
	_, err := Sort(strings.NewReader(doc), &out, cfg, Options{
		Criterion:      ByAttrOrTag("id"),
		Algorithm:      MergeSort,
		SortChildrenOf: []string{"shelf"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `<lib><shelf id="2"><book id="2"></book><book id="9"></book></shelf><shelf id="1"></shelf></lib>`
	if out.String() != want {
		t.Errorf("XSort output: %s", out.String())
	}
	// XSort with the wrong algorithm is rejected.
	if _, err := Sort(strings.NewReader(doc), &out, cfg, Options{
		Criterion: ByAttrOrTag("id"), SortChildrenOf: []string{"shelf"},
	}); err == nil {
		t.Error("XSort with NEXSORT should be rejected")
	}
	// RecordOrder with the wrong algorithm is rejected.
	if _, err := Sort(strings.NewReader(doc), &out, cfg, Options{
		Criterion: ByAttrOrTag("id"), Algorithm: InMemory, RecordOrder: "s",
	}); err == nil {
		t.Error("RecordOrder with InMemory should be rejected")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if NEXSORT.String() != "nexsort" || MergeSort.String() != "mergesort" ||
		InMemory.String() != "inmemory" || Algorithm(9).String() != "algorithm(9)" {
		t.Error("algorithm names")
	}
}

func TestInMemoryIndentAndDepth(t *testing.T) {
	cfg := Config{BlockSize: 256, MemoryBytes: 256 * 16, InMemory: true}
	var out strings.Builder
	_, err := Sort(strings.NewReader(`<r><b k="2"><y k="2"/><x k="1"/></b><a k="1"/></r>`), &out, cfg,
		Options{Criterion: ByAttrOrTag("k"), Algorithm: InMemory, DepthLimit: 1, Indent: " "})
	if err != nil {
		t.Fatal(err)
	}
	want := "<r>\n <a k=\"1\"></a>\n <b k=\"2\">\n  <y k=\"2\"></y>\n  <x k=\"1\"></x>\n </b>\n</r>\n"
	if out.String() != want {
		t.Errorf("got %q\nwant %q", out.String(), want)
	}
}

func TestCheckNilCriterion(t *testing.T) {
	if _, err := Check(strings.NewReader("<a/>"), nil, 0); err == nil {
		t.Error("nil criterion should fail")
	}
}

func TestSortFileGzip(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.xml.gz")
	outPath := filepath.Join(dir, "out.xml.gz")

	f, err := os.Create(inPath)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	gz.Write([]byte(apiDoc))
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg := Config{BlockSize: 256, MemoryBytes: 256 * 20, ScratchDir: dir}
	if _, err := SortFile(inPath, outPath, cfg, Options{Criterion: apiCriterion()}); err != nil {
		t.Fatal(err)
	}

	out, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	gzr, err := gzip.NewReader(out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(gzr)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != apiSorted {
		t.Errorf("gzip round trip: %s", data)
	}
	// A non-gzip file with a .gz name fails cleanly.
	badPath := filepath.Join(dir, "bad.xml.gz")
	os.WriteFile(badPath, []byte("<a/>"), 0o644)
	if _, err := SortFile(badPath, outPath, cfg, Options{Criterion: apiCriterion()}); err == nil {
		t.Error("plain file with .gz suffix should fail")
	}
}

func TestSortContextCancellation(t *testing.T) {
	// A pre-cancelled context stops the sort immediately with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var doc bytes.Buffer
	if _, err := Generate(CustomSpec{Fanouts: []int{50, 20}, Seed: 1}, &doc); err != nil {
		t.Fatal(err)
	}
	cfg := Config{BlockSize: 1024, MemoryBytes: 1024 * 16, InMemory: true}
	_, err := SortContext(ctx, strings.NewReader(doc.String()), io.Discard, cfg,
		Options{Criterion: ByAttrOrTag("key")})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// An un-cancelled context sorts normally and reports scratch usage.
	res, err := SortContext(context.Background(), strings.NewReader(doc.String()), io.Discard, cfg,
		Options{Criterion: ByAttrOrTag("key")})
	if err != nil {
		t.Fatal(err)
	}
	if res.NEXSORT.ScratchBlocks <= 0 {
		t.Errorf("ScratchBlocks = %d", res.NEXSORT.ScratchBlocks)
	}
}

// TestOverlongStringFailsEveryAlgorithm: a text node or attribute value
// longer than the token codec's 64 MiB limit fails every algorithm with
// the parser's xmltok.ErrTooLong, before any output is written. The value
// comes from a generating reader, so the document is never held whole.
func TestOverlongStringFailsEveryAlgorithm(t *testing.T) {
	if testing.Short() {
		t.Skip("parses a 65 MiB value")
	}
	const n = 65 << 20
	docs := map[string]func() io.Reader{
		"text": func() io.Reader {
			return io.MultiReader(strings.NewReader("<r><a>"), io.LimitReader(repeatByte('x'), n), strings.NewReader("</a></r>"))
		},
		"attribute": func() io.Reader {
			return io.MultiReader(strings.NewReader(`<r><a k="`), io.LimitReader(repeatByte('x'), n), strings.NewReader(`"/></r>`))
		},
	}
	cfg := Config{BlockSize: 4096, MemoryBytes: 4096 * 64, InMemory: true}
	runs := []struct {
		name string
		opts Options
	}{
		{"nexsort", Options{}},
		{"nexsort-paper-layout", Options{PaperLayout: true}},
		{"mergesort", Options{Algorithm: MergeSort}},
		{"inmemory", Options{Algorithm: InMemory}},
	}
	for doc, open := range docs {
		for _, run := range runs {
			if doc == "attribute" && run.name != "nexsort" {
				continue // one algorithm shows the attribute path; the parser is shared
			}
			run.opts.Criterion = ByAttrOrTag("k")
			var out countingWriter
			_, err := Sort(open(), &out, cfg, run.opts)
			if !errors.Is(err, xmltok.ErrTooLong) {
				t.Errorf("%s, %s: error %v, want xmltok.ErrTooLong", doc, run.name, err)
			}
			if out.n != 0 {
				t.Errorf("%s, %s: wrote %d bytes before failing", doc, run.name, out.n)
			}
		}
	}
}

// repeatByte is an endless reader of one byte.
type repeatByte byte

func (r repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// countingWriter counts the bytes written to it.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestContentAfterRootAgrees: what follows the root element is judged the
// same by all three algorithms. Character data after the root fails every
// one; a comment and whitespace after it are accepted, and every algorithm
// reads them, so InputBytes is the whole document's length.
func TestContentAfterRootAgrees(t *testing.T) {
	cfg := Config{BlockSize: 256, MemoryBytes: 256 * 20, InMemory: true}
	cases := []struct {
		name, doc, fail string // fail is the error text every algorithm gives, "" for none
	}{
		{"junk", `<r><a key="2"/><a key="1"/></r>junk<x/>`, "character data outside the root element"},
		{"comment", "<r><a key=\"2\"/><a key=\"1\"/></r>\n<!-- trailer -->\n  ", ""},
	}
	for _, tc := range cases {
		var first *Result
		var firstOut string
		for _, algo := range []Algorithm{NEXSORT, MergeSort, InMemory} {
			var out strings.Builder
			res, err := Sort(strings.NewReader(tc.doc), &out, cfg, Options{Criterion: ByAttrOrTag("key"), Algorithm: algo})
			if tc.fail != "" {
				if err == nil || !strings.Contains(err.Error(), tc.fail) {
					t.Errorf("%s, %v: error %v, want %q", tc.name, algo, err, tc.fail)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, %v: %v", tc.name, algo, err)
			}
			if res.InputBytes != int64(len(tc.doc)) {
				t.Errorf("%s, %v: InputBytes = %d, want %d", tc.name, algo, res.InputBytes, len(tc.doc))
			}
			if first == nil {
				first, firstOut = res, out.String()
				continue
			}
			if out.String() != firstOut || res.Elements != first.Elements || res.InputBytes != first.InputBytes {
				t.Errorf("%s, %v: output %q, %d elements, %d input bytes; NEXSORT gave %q, %d, %d",
					tc.name, algo, out.String(), res.Elements, res.InputBytes, firstOut, first.Elements, first.InputBytes)
			}
		}
	}
}

// TestNoRootElementFails: a document without a root element — empty,
// whitespace only, a comment or an XML declaration only — fails with the
// parser's error in every entry point that reads one: each sort
// algorithm, Check, Merge on either side, and stats.Scan.
func TestNoRootElementFails(t *testing.T) {
	cfg := Config{BlockSize: 256, MemoryBytes: 256 * 20, InMemory: true}
	crit := ByAttrOrTag("key")
	const valid = `<r><a key="1"/></r>`
	entries := map[string]func(doc string) error{
		"Check": func(doc string) error {
			_, err := Check(strings.NewReader(doc), crit, 0)
			return err
		},
		"Merge, left": func(doc string) error {
			_, err := Merge(strings.NewReader(doc), strings.NewReader(valid), crit, io.Discard, MergeOptions{})
			return err
		},
		"Merge, right": func(doc string) error {
			_, err := Merge(strings.NewReader(valid), strings.NewReader(doc), crit, io.Discard, MergeOptions{})
			return err
		},
		"stats.Scan": func(doc string) error {
			_, err := stats.Scan(strings.NewReader(doc))
			return err
		},
	}
	for _, algo := range []Algorithm{NEXSORT, MergeSort, InMemory} {
		entries["Sort, "+algo.String()] = func(doc string) error {
			_, err := Sort(strings.NewReader(doc), io.Discard, cfg, Options{Criterion: crit, Algorithm: algo})
			return err
		}
	}
	docs := map[string]string{
		"empty":           "",
		"whitespace":      " \n\t\r\n",
		"comment":         "<!-- no root -->\n",
		"XML declaration": `<?xml version="1.0" encoding="UTF-8"?>`,
	}
	for name, doc := range docs {
		for entry, call := range entries {
			err := call(doc)
			if !errors.Is(err, xmltok.ErrMalformed) || !strings.Contains(err.Error(), "no root element") {
				t.Errorf("%s, %s: %v, want the parser's \"no root element\"", name, entry, err)
			}
		}
	}
}
