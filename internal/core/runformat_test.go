package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/gen"
	"nexsort/internal/keys"
	"nexsort/internal/runstore"
	"nexsort/internal/xmltok"
)

// runFormatCase is one sort whose runs TestRunFormat walks; routes checks
// the report counters that show the default layout took the route the case
// is there for.
type runFormatCase struct {
	name   string
	doc    string
	crit   *keys.Criterion
	opts   Options
	routes func(*Report) bool
}

func runFormatCases(t *testing.T) []runFormatCase {
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
	capped := gen.CappedShape(3000, 6)
	capped.Seed = 9
	byKey := keys.ByAttrOrTag(gen.DefaultKeyAttr)
	site := &keys.Criterion{Rules: []keys.Rule{
		{Tag: "region", Source: keys.ByAttr("name")},
		{Tag: "item", Source: keys.ByAttr("id")},
		{Tag: "bid", Source: keys.ByAttr("amount")},
	}}
	sitePath := &keys.Criterion{Rules: []keys.Rule{
		{Tag: "region", Source: keys.ByAttr("name")},
		{Tag: "item", Source: keys.ByPath("name")},
		{Tag: "name", Source: keys.ByText()},
		{Tag: "bid", Source: keys.ByAttr("amount")},
	}}
	// Elements whose start tags outgrow the window's slack, so that the
	// default layout sorts them with the key-path external sort, here
	// through the key sidecar of a path criterion.
	var big strings.Builder
	big.WriteString("<r>")
	for i := range 3 {
		fmt.Fprintf(&big, `<g pad="%s"><k>%d</k>`, strings.Repeat("p", 3500), 3-i)
		for j := range 40 {
			fmt.Fprintf(&big, `<e><k>%03d</k>%s</e>`, (j*37)%40, strings.Repeat("t", 40))
		}
		big.WriteString("</g>")
	}
	big.WriteString("</r>")
	byChildText := &keys.Criterion{Rules: []keys.Rule{
		{Tag: "g", Source: keys.ByPath("k")},
		{Tag: "e", Source: keys.ByPath("k")},
		{Tag: "k", Source: keys.ByText()},
	}}
	return []runFormatCase{
		{"flat", write(gen.CustomSpec{Fanouts: []int{2000}, Seed: 9}), byKey, Options{},
			func(r *Report) bool { return r.IncompleteRuns > 0 }},
		{"capped", write(capped), byKey, Options{},
			func(r *Report) bool { return r.InternalSorts > 1 }},
		{"site", write(gen.SiteSpec{Items: 60, MaxBids: 10, Seed: 9}), site, Options{},
			func(r *Report) bool { return r.MergedSubtrees > 0 }},
		{"site-path", write(gen.SiteSpec{Items: 60, MaxBids: 10, Seed: 9}), sitePath, Options{},
			func(r *Report) bool { return r.MergedSubtrees > 0 }},
		{"wide4", write(gen.CustomSpec{Fanouts: []int{4, 300}, Seed: 9}), byKey, Options{},
			func(r *Report) bool { return r.MergedSubtrees > 1 }},
		{"depth-limited", write(capped), byKey, Options{DepthLimit: 4, Threshold: 256},
			func(r *Report) bool { return r.UnsortedRuns > 0 }},
		{"path-external", big.String(), byChildText, Options{},
			func(r *Report) bool { return r.ExternalSorts > 0 }},
	}
}

// TestRunFormat walks every run a sort leaves: the run store's, and the
// child-record runs of the merges deferred to the output phase. In the
// default layout no start tag or text in them carries a key, no end tag a
// name or a key, and no run pointer a name or a key, while every child
// record keeps its (key, seq) header. After a paper-layout sort the store
// holds the reference's format: every start tag keyed, every end tag
// named, every run pointer named and keyed, and a depth-limited subtree
// copied as the data stack holds it.
func TestRunFormat(t *testing.T) {
	for _, c := range runFormatCases(t) {
		for _, paper := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/paper=%v", c.name, paper), func(t *testing.T) {
				env := newEnv(t, 512, 16)
				opts := c.opts
				opts.Criterion, opts.PaperLayout = c.crit, paper
				s, err := newSorter(env, opts)
				if err != nil {
					t.Fatal(err)
				}
				var out strings.Builder
				if err := s.sortDocument(strings.NewReader(c.doc), &out); err != nil {
					t.Fatal(err)
				}
				if want := oracle(t, c.doc, c.crit, opts.DepthLimit); out.String() != want {
					t.Fatal("output differs from the in-memory sort's")
				}
				if !paper && !c.routes(s.report) {
					t.Fatalf("the sort missed its route: %+v", *s.report)
				}
				check := checkRunToken
				if paper {
					check = checkPaperToken
				}
				var tokens int
				for id := range s.store.Len() {
					tokens += walkRun(t, s.store, runstore.RunID(id), check)
				}
				if tokens == 0 && (paper || c.name != "flat") {
					t.Error("the store holds no tokens")
				}
				var records int
				for _, m := range s.deferred {
					for _, run := range m.runs {
						records += walkChildRecords(t, run)
					}
				}
				if (len(s.deferred) > 0) != (records > 0) {
					t.Errorf("walked %d child records of %d deferred merges", records, len(s.deferred))
				}
			})
		}
	}
}

// walkRun checks every token of run id and returns how many it read.
func walkRun(t *testing.T, store *runstore.Store, id runstore.RunID, check func(*xmltok.Encoded) error) int {
	t.Helper()
	r, err := store.Open(id, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for n := 0; ; n++ {
		tok, err := r.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := check(tok); err != nil {
			t.Fatalf("run %d token %d: %v", id, n, err)
		}
	}
}

// walkChildRecords checks every child record of an incomplete run: its
// header holds a non-empty key, since every child of the documents that
// defer merges is keyed, and its payload is in the default run format.
func walkChildRecords(t *testing.T, run *em.Stream) int {
	t.Helper()
	sr, err := run.NewReader(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	data, err := io.ReadAll(sr)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for ; len(data) > 0; n++ {
		size, k := binary.Uvarint(data)
		rec := data[k : k+int(size)]
		data = data[k+int(size):]
		keyLen, k := binary.Uvarint(rec)
		if keyLen == 0 {
			t.Fatalf("child record %d has an empty key", n)
		}
		pos, err := skipRecordHeader(rec)
		if err != nil || k+int(keyLen) >= pos {
			t.Fatalf("child record %d: corrupt header", n)
		}
		var v xmltok.Encoded
		for p := rec[pos:]; len(p) > 0; {
			m, ok := v.Scan(p)
			if !ok {
				t.Fatalf("child record %d: corrupt token", n)
			}
			if err := checkRunToken(&v); err != nil {
				t.Fatalf("child record %d: %v", n, err)
			}
			p = p[m:]
		}
	}
	return n
}

// checkRunToken accepts a token in the default layout's run format.
func checkRunToken(tok *xmltok.Encoded) error {
	switch {
	case tok.HasKey():
		return fmt.Errorf("%v token carries the key %q", tok.Kind(), tok.Key())
	case tok.Kind() == xmltok.KindEnd && len(tok.Name()) > 0:
		return fmt.Errorf("end tag carries the name %q", tok.Name())
	case tok.Kind() == xmltok.KindRunPtr && len(tok.Name()) > 0:
		return fmt.Errorf("run pointer carries the name %q", tok.Name())
	}
	return nil
}

// checkPaperToken accepts a token in the paper layout's run format.
func checkPaperToken(tok *xmltok.Encoded) error {
	switch tok.Kind() {
	case xmltok.KindStart:
		if !tok.HasKey() {
			return fmt.Errorf("start tag <%s> carries no key", tok.Name())
		}
	case xmltok.KindEnd:
		if len(tok.Name()) == 0 {
			return fmt.Errorf("end tag carries no name")
		}
	case xmltok.KindRunPtr:
		if len(tok.Name()) == 0 || !tok.HasKey() {
			return fmt.Errorf("run pointer %q carries no name or no key", tok.Bytes())
		}
	}
	return nil
}

// TestParkedReadersReleasedOnError fails the output phase of a document
// whose run tree nests, so that readers are parked when the read fails, at
// every eleventh of its run reads: each failed sort must give back every
// budget block and frame, the parked readers' included.
func TestParkedReadersReleasedOnError(t *testing.T) {
	capped := gen.CappedShape(3000, 6)
	capped.Seed = 9
	var doc strings.Builder
	if _, err := capped.Write(&doc); err != nil {
		t.Fatal(err)
	}
	opts := Options{Criterion: keys.ByAttrOrTag(gen.DefaultKeyAttr)}
	sortFailing := func(read int64) (*em.Env, error) {
		env, err := em.NewEnv(em.Config{BlockSize: 512, MemBlocks: 16, WrapBackend: func(b em.Backend) em.Backend {
			fb := em.NewFaultBackend(b)
			if read > 0 {
				fb.FailReadAfter(read, errInjected)
			}
			return fb
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { env.Close() })
		_, err = Sort(env, strings.NewReader(doc.String()), io.Discard, opts)
		return env, err
	}
	env, err := sortFailing(0)
	if err != nil {
		t.Fatal(err)
	}
	reads := env.Stats.Snapshot()["run-read"].Reads
	if writes := env.Stats.Snapshot()["subtree-sort"].Writes; reads != writes {
		t.Fatalf("clean sort reads %d run blocks, writes %d: its readers were not all parked", reads, writes)
	}
	for read := int64(1); read <= reads; read += 11 {
		env, err := sortFailing(read)
		if !errors.Is(err, errInjected) {
			t.Fatalf("read %d: error %v, want the injected one", read, err)
		}
		if inUse, live := env.Budget.InUse(), env.Dev.Frames().Live(); inUse != 0 || live != 0 {
			t.Fatalf("read %d: %d budget blocks and %d frames left after the failure", read, inUse, live)
		}
	}
}

var errInjected = errors.New("injected read failure")

// TestDeferredMergeBelowParkedReaders: a deferred merge at the bottom of a
// chain of nested runs, at the 12-block floor, where the readers parked
// along the chain hold more blocks than the merge could spare. The merge
// closes them first, so it gets the blocks it would get with none parked.
func TestDeferredMergeBelowParkedReaders(t *testing.T) {
	var doc strings.Builder
	const depth = 10
	for i := range depth {
		fmt.Fprintf(&doc, `<a key="%d">%s`, depth-i, strings.Repeat("x", 1100))
	}
	doc.WriteString(`<w key="w">`)
	for i := range 200 {
		fmt.Fprintf(&doc, `<c key="%03d">%s</c>`, (i*37)%200, strings.Repeat("y", 20))
	}
	doc.WriteString(`</w>` + strings.Repeat("</a>", depth))
	crit := keys.ByAttrOrTag(gen.DefaultKeyAttr)
	env := newEnv(t, 512, MinMemBlocks)
	got, rep := nexsort(t, env, doc.String(), Options{Criterion: crit})
	if want := oracle(t, doc.String(), crit, 0); got != want {
		t.Fatal("output differs from the in-memory sort's")
	}
	if rep.MergedSubtrees != 1 || rep.RunBlocks < depth {
		t.Fatalf("%d merged subtrees and %d run blocks, want the wide element's merge deferred below %d runs",
			rep.MergedSubtrees, rep.RunBlocks, depth)
	}
}
