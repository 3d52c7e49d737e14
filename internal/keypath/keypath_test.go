package keypath

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"nexsort/internal/keys"
	"nexsort/internal/xmltok"
)

// d1 is document D1 from Figure 1 of the paper, in its original
// (pre-sorting) element order as shown in the figure.
const d1 = `<company>
  <region name="NE">
    <branch name="Durham" dup="skip"/>
  </region>
  <region name="AC">
    <branch name="Durham">
      <employee ID="454"/>
      <employee ID="323"><name>Smith</name><phone>5552345</phone></employee>
    </branch>
    <branch name="Atlanta"/>
  </region>
</company>`

// d1Criterion matches the paper: regions and branches by name, employees by
// ID, everything else by tag name.
func d1Criterion() *keys.Criterion {
	return &keys.Criterion{Rules: []keys.Rule{
		{Tag: "region", Source: keys.ByAttr("name")},
		{Tag: "branch", Source: keys.ByAttr("name")},
		{Tag: "employee", Source: keys.ByAttr("ID")},
		{Tag: "", Source: keys.ByTag()},
	}}
}

// extractEncoded parses and annotates a document and runs it through an
// Extractor, returning every encoded record. It checks each record against
// a reference built from decoded Records: the bytes must be exactly what
// AppendRecord writes for the node's path and token, which pins the format
// the sorters spill.
func extractEncoded(tb testing.TB, doc string, c *keys.Criterion) [][]byte {
	tb.Helper()
	p := xmltok.NewParser(strings.NewReader(doc), xmltok.DefaultParserOptions())
	a := keys.NewAnnotator(c, nil)
	e := NewExtractor()
	var recs [][]byte
	var path []Component
	seqs := []int64{0}
	nextSeq := func() int64 {
		seqs[len(seqs)-1]++
		return seqs[len(seqs)-1] - 1
	}
	var dec xmltok.Decoder
	for {
		v, err := p.NextEncoded()
		if err == io.EOF {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		if v, err = a.Annotate(v); err != nil {
			tb.Fatal(err)
		}
		tok := dec.Decode(v)
		var want []byte
		switch tok.Kind {
		case xmltok.KindStart:
			path = append(path, Component{Key: tok.Key, Seq: nextSeq()})
			seqs = append(seqs, 0)
			want = AppendRecord(nil, Record{Path: path, Tok: tok})
		case xmltok.KindText:
			leaf := append(path[:len(path):len(path)], Component{Key: "", Seq: nextSeq()})
			want = AppendRecord(nil, Record{Path: leaf, Tok: tok})
		case xmltok.KindEnd:
			path, seqs = path[:len(path)-1], seqs[:len(seqs)-1]
		}
		rec, ok, err := e.Append(nil, v)
		if err != nil {
			tb.Fatal(err)
		}
		if ok != (want != nil) || !bytes.Equal(rec, want) {
			tb.Fatalf("extractor wrote %x (ok=%v) for %v, want %x", rec, ok, tok, want)
		}
		if ok {
			recs = append(recs, rec)
		}
	}
	if e.Depth() != 0 {
		tb.Fatalf("extractor left %d elements open", e.Depth())
	}
	return recs
}

// view returns a view of tok's encoding.
func view(tok xmltok.Token) *xmltok.Encoded {
	var e xmltok.Encoded
	e.Scan(xmltok.AppendToken(nil, tok))
	return &e
}

// extractDoc is extractEncoded with every record decoded.
func extractDoc(t *testing.T, doc string, c *keys.Criterion) []Record {
	t.Helper()
	var recs []Record
	for _, enc := range extractEncoded(t, doc, c) {
		rec, err := ReadRecord(bytes.NewReader(enc))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestTable1 reproduces the key-path representation of D1 exactly as the
// paper's Table 1 prints it (the table lists the document subset shown in
// its Figure 1 sketch; ours includes every node of d1, sorted).
func TestTable1(t *testing.T) {
	recs := extractDoc(t, d1, d1Criterion())
	sort.Slice(recs, func(i, j int) bool { return recs[i].Compare(recs[j]) < 0 })
	rows := FormatTable(recs)
	want := []Row{
		{"/", "<company>"},
		{"/AC", `<region name="AC">`},
		{"/AC/Atlanta", `<branch name="Atlanta">`},
		{"/AC/Durham", `<branch name="Durham">`},
		{"/AC/Durham/323", `<employee ID="323">`},
		{"/AC/Durham/323/name", "<name>Smith"},
		{"/AC/Durham/323/phone", "<phone>5552345"},
		{"/AC/Durham/454", `<employee ID="454">`},
		{"/NE", `<region name="NE">`},
		{"/NE/Durham", `<branch name="Durham" dup="skip">`},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d:\n%v", len(rows), len(want), rows)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("row %d: got %+v, want %+v", i, rows[i], want[i])
		}
	}
}

func TestRecordCompare(t *testing.T) {
	a := Record{Path: []Component{{"", 0}, {"AC", 1}}}
	b := Record{Path: []Component{{"", 0}, {"AC", 1}, {"Durham", 0}}}
	c := Record{Path: []Component{{"", 0}, {"NE", 0}}}
	if a.Compare(b) >= 0 {
		t.Error("parent should sort before child")
	}
	if b.Compare(a) <= 0 {
		t.Error("child should sort after parent")
	}
	if a.Compare(c) >= 0 {
		t.Error("AC should sort before NE")
	}
	if a.Compare(a) != 0 {
		t.Error("record should equal itself")
	}
	// Same key, different seq.
	d := Record{Path: []Component{{"", 0}, {"AC", 2}}}
	if a.Compare(d) >= 0 {
		t.Error("lower seq should sort first")
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	recs := extractDoc(t, d1, d1Criterion())
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	reader := bytes.NewReader(buf)
	var got []Record
	for {
		r, err := ReadRecord(reader)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, recs)
	}
}

func TestCompareEncodedMatchesDecoded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Record {
			n := 1 + rng.Intn(4)
			r := Record{Tok: xmltok.Token{Kind: xmltok.KindText, Text: "x"}}
			for i := 0; i < n; i++ {
				r.Path = append(r.Path, Component{
					Key: string(rune('a' + rng.Intn(3))),
					Seq: int64(rng.Intn(3)),
				})
			}
			return r
		}
		a, b := mk(), mk()
		ea := AppendRecord(nil, a)
		eb := AppendRecord(nil, b)
		return sign(CompareEncoded(ea, eb)) == sign(a.Compare(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	default:
		return 0
	}
}

func TestExtractorRequiresStartKeys(t *testing.T) {
	e := NewExtractor()
	_, _, err := e.Append(nil, view(xmltok.Token{Kind: xmltok.KindStart, Name: "a"}))
	if err == nil || !strings.Contains(err.Error(), "no key") {
		t.Errorf("keyless start: %v", err)
	}
	if _, _, err := e.Append(nil, view(xmltok.Token{Kind: xmltok.KindEnd, Name: "x"})); err == nil {
		t.Error("end without open element should fail")
	}
}

// buildString rebuilds a sorted record stream into compact XML, with the
// sort keys stripped as the sorters strip them.
func buildString(recs [][]byte) (string, error) {
	var sb strings.Builder
	w := xmltok.NewWriter(&sb)
	b := NewBuilder(w.WriteEncoded)
	for _, r := range recs {
		if err := b.Add(r); err != nil {
			return "", err
		}
	}
	if err := b.Finish(); err != nil {
		return "", err
	}
	if err := w.Close(); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// TestExtractBuildRoundTrip: extracting records, sorting them, and
// rebuilding must equal tokenizing the recursively sorted document.
func TestExtractBuildRoundTrip(t *testing.T) {
	recs := extractEncoded(t, d1, d1Criterion())
	slices.SortFunc(recs, CompareEncoded)
	got, err := buildString(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := `<company><region name="AC"><branch name="Atlanta"></branch><branch name="Durham"><employee ID="323"><name>Smith</name><phone>5552345</phone></employee><employee ID="454"></employee></branch></region><region name="NE"><branch name="Durham" dup="skip"></branch></region></company>`
	if got != want {
		t.Errorf("rebuilt document:\n got %s\nwant %s", got, want)
	}
}

func TestBuilderOutOfOrder(t *testing.T) {
	start := func(name string) xmltok.Token {
		return xmltok.Token{Kind: xmltok.KindStart, Name: name, HasKey: true}
	}
	root := AppendRecord(nil, Record{Path: []Component{{"", 0}}, Tok: start("root")})
	child := AppendRecord(nil, Record{Path: []Component{{"", 0}, {"x", 0}}, Tok: start("child")})
	grandchild := AppendRecord(nil, Record{Path: []Component{{"", 0}, {"x", 0}, {"y", 0}}, Tok: start("g")})
	noop := func(*xmltok.Encoded) error { return nil }

	// A child record arriving before its parent is open must fail.
	if err := NewBuilder(noop).Add(child); err == nil {
		t.Error("orphan record should fail")
	}
	// So must one whose parent was closed by a sibling in between.
	b := NewBuilder(noop)
	for _, r := range [][]byte{root, child} {
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	sibling := AppendRecord(nil, Record{Path: []Component{{"", 0}, {"z", 1}}, Tok: start("sibling")})
	if err := b.Add(sibling); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(grandchild); err == nil {
		t.Error("record under a closed parent should fail")
	}
	if err := NewBuilder(noop).Add(AppendRecord(nil, Record{Tok: start("e")})); err == nil {
		t.Error("empty path should fail")
	}
	// A non-minimal varint names the same component in other bytes; only
	// corruption writes one, so it must fail rather than be matched.
	nonMinimal := append([]byte{2, 0, 0x80, 0x00, 1, 'x', 0}, xmltok.AppendToken(nil, start("child"))...)
	b = NewBuilder(noop)
	if err := b.Add(root); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(nonMinimal); err == nil {
		t.Error("record whose parent differs only by a non-minimal varint should fail")
	}
}

// TestBuilderRejectsCorruptComponents: every field ReadRecord validates is
// validated by the builder too, for the node's own component.
func TestBuilderRejectsCorruptComponents(t *testing.T) {
	text := xmltok.AppendToken(nil, xmltok.Token{Kind: xmltok.KindText, Text: "t"})
	cases := map[string][]byte{
		"header cut":       {0x80},
		"path too long":    {0xff, 0xff, 0xff, 0x0f},
		"key length cut":   {1, 0x80},
		"key overruns":     {1, 9, 'a'},
		"key too long":     append([]byte{1, 0x81, 0x80, 0x80, 0x01}, text...),
		"seq cut":          {1, 1, 'a', 0x80},
		"seq overflows":    append([]byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0x01}, text...),
		"token missing":    {1, 0, 0},
		"token corrupt":    {1, 0, 0, 0x7f},
		"token has excess": append(append([]byte{1, 0, 0}, text...), 0),
	}
	for name, rec := range cases {
		if err := NewBuilder(func(*xmltok.Encoded) error { return nil }).Add(rec); err == nil {
			t.Errorf("%s: %x accepted", name, rec)
		}
	}
}

// TestCorruptCountsDoNotAllocate: a corrupt path, key or text length must
// fail after allocating in proportion to the bytes present, not to the
// count it claims. Three header bytes once made ReadRecord allocate 24 MiB.
func TestCorruptCountsDoNotAllocate(t *testing.T) {
	header := []byte{0xff, 0xff, 0x3f} // path length just under maxPathLen
	key := []byte{1, 0xff, 0xff, 0x3f} // key length just under maxPathLen
	text := []byte{1, 0, 0, byte(xmltok.KindText), 0xff, 0xff, 0xff, 0x1f}
	readRecord := func(in []byte) error {
		_, err := ReadRecord(bytes.NewReader(in))
		return err
	}
	build := func(in []byte) error {
		return NewBuilder(func(*xmltok.Encoded) error { return nil }).Add(in)
	}
	cases := []struct {
		name string
		call func([]byte) error
		in   []byte
	}{
		{"ReadRecord", readRecord, header},
		{"ReadRecord", readRecord, key},
		{"Builder.Add", build, header},
		{"Builder.Add", build, key},
		{"Builder.Add", build, text},
	}
	// The bytes are averaged over several calls, so that an allocation
	// elsewhere in the process while they run cannot fail the test.
	const limit, calls = 4 << 10, 20
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		for i := 0; i < calls; i++ {
			err = c.call(c.in)
		}
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s(%x) accepted a corrupt record", c.name, c.in)
		}
		if n := (after.TotalAlloc - before.TotalAlloc) / calls; n > limit {
			t.Errorf("%s(%x) allocated %d bytes per call, want at most %d", c.name, c.in, n, limit)
		}
	}
}

func TestPathString(t *testing.T) {
	root := Record{Path: []Component{{"", 0}}}
	if got := root.PathString(); got != "/" {
		t.Errorf("root path = %q", got)
	}
	deep := Record{Path: []Component{{"", 0}, {"AC", 1}, {"Durham", 0}, {"323", 1}}}
	if got := deep.PathString(); got != "/AC/Durham/323" {
		t.Errorf("deep path = %q", got)
	}
}
