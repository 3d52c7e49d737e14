package extsort

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"nexsort/internal/em"
	"nexsort/internal/keys"
	"nexsort/internal/xmltree"
)

func newEnv(t *testing.T, blockSize, memBlocks int) *em.Env {
	t.Helper()
	env, err := em.NewEnv(em.Config{BlockSize: blockSize, MemBlocks: memBlocks})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	return env
}

func bytesCompare(a, b []byte) int { return bytes.Compare(a, b) }

func TestSorterInMemoryFastPath(t *testing.T) {
	env := newEnv(t, 256, 8)
	s, err := New(env, em.CatMergeRun, bytesCompare, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, rec := range []string{"pear", "apple", "orange"} {
		if err := s.Add([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []string
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(rec))
	}
	want := []string{"apple", "orange", "pear"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v, want %v", got, want)
	}
	st := s.Stats()
	if st.Spilled || st.InitialRuns != 0 || st.Records != 3 {
		t.Errorf("stats = %+v", st)
	}
	if env.Stats.TotalIOs() != 0 {
		t.Errorf("in-memory sort cost %d IOs", env.Stats.TotalIOs())
	}
}

func TestSorterSpillAndMerge(t *testing.T) {
	// Tiny blocks and memory force multiple runs and at least one merge
	// pass.
	env := newEnv(t, 64, 16)
	s, err := New(env, em.CatMergeRun, bytesCompare, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(42))
	var want []string
	for i := 0; i < 400; i++ {
		rec := fmt.Sprintf("%06d", rng.Intn(100000))
		want = append(want, rec)
		if err := s.Add([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(want)
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for i, w := range want {
		rec, err := it.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if string(rec) != w {
			t.Fatalf("record %d = %q, want %q", i, rec, w)
		}
	}
	if _, err := it.Next(); err != io.EOF {
		t.Errorf("want EOF at end, got %v", err)
	}
	st := s.Stats()
	if !st.Spilled || st.InitialRuns < 4 || st.MergePasses < 1 {
		t.Errorf("expected a real external sort, stats = %+v", st)
	}
	if st.Records != 400 {
		t.Errorf("Records = %d", st.Records)
	}
}

func TestSorterMergePassCounts(t *testing.T) {
	// With fan-in f = memBlocks-1 = 2 and r initial runs, merge passes
	// should be ceil(log2(r)). SortStream merges pairwise only until at
	// most memBlocks = 3 runs remain and streams that last merge: it yields
	// the same records, moves fewer blocks, and never takes an extra pass.
	for _, runs := range []int{2, 3, 4, 7, 8} {
		var matIOs int64
		for _, stream := range []bool{false, true} {
			env := newEnv(t, 64, 8)
			s, err := New(env, em.CatMergeRun, bytesCompare, 3)
			if err != nil {
				t.Fatal(err)
			}
			// Each Add of a 128-byte record exceeds the 2-block buffer,
			// cutting one run per record.
			for i := 0; i < runs; i++ {
				rec := bytes.Repeat([]byte{byte('a' + i)}, 128)
				if err := s.Add(rec); err != nil {
					t.Fatal(err)
				}
			}
			sortFn, last := s.Sort, 1
			if stream {
				sortFn, last = s.SortStream, 3
			}
			it, err := sortFn()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; ; i++ {
				rec, err := it.Next()
				if err == io.EOF {
					if i != runs {
						t.Errorf("%d runs, stream=%v: %d records out", runs, stream, i)
					}
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if rec[0] != byte('a'+i) {
					t.Errorf("%d runs, stream=%v: record %d is %q...", runs, stream, i, rec[:1])
				}
			}
			it.Close()
			wantPasses := 0
			for n := runs; n > last; n = (n + 1) / 2 {
				wantPasses++
			}
			if got := s.Stats().MergePasses; got != wantPasses {
				t.Errorf("%d runs, stream=%v: MergePasses = %d, want %d", runs, stream, got, wantPasses)
			}
			if got := s.Stats().InitialRuns; got != runs {
				t.Errorf("InitialRuns = %d, want %d", runs, got)
			}
			if got := s.Stats().StreamedFinalMerge; got != stream {
				t.Errorf("%d runs: StreamedFinalMerge = %v, want %v", runs, got, stream)
			}
			ios := env.Stats.IOs(em.CatMergeRun)
			if !stream {
				matIOs = ios
			} else if ios >= matIOs {
				t.Errorf("%d runs: streamed sort moved %d blocks, materialized %d", runs, ios, matIOs)
			}
			s.Close()
			env.Close()
		}
	}
}

func TestSorterBudget(t *testing.T) {
	env := newEnv(t, 128, 6)
	if _, err := New(env, em.CatMergeRun, bytesCompare, 7); err == nil {
		t.Error("over-budget sorter should fail")
	}
	if _, err := New(env, em.CatMergeRun, bytesCompare, 2); err == nil {
		t.Error("sorter with <3 blocks should fail")
	}
	s, err := New(env, em.CatMergeRun, bytesCompare, 6)
	if err != nil {
		t.Fatal(err)
	}
	if env.Budget.InUse() != 6 {
		t.Errorf("InUse = %d", env.Budget.InUse())
	}
	s.Close()
	s.Close() // idempotent
	if env.Budget.InUse() != 0 {
		t.Errorf("leaked %d blocks", env.Budget.InUse())
	}
}

// TestSorterLeaveFree: a sorter asked to leave blocks free gives back
// every block its output does not hold once its merge passes are done,
// before its output is drained, streamed or not, spilled or not, empty or
// not, and its output is unchanged. Blocks already free count toward the
// request, and a request the grant cannot meet fails.
func TestSorterLeaveFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var recs []string
	for range 400 {
		recs = append(recs, fmt.Sprintf("r%06d", rng.Intn(1e6)))
	}
	for _, stream := range []bool{false, true} {
		for _, n := range []int{0, 10, 400} {
			for _, spare := range []int{0, 2} {
				want := append([]string(nil), recs[:n]...)
				sort.Strings(want)
				env := newEnv(t, 128, 8+spare)
				s, err := New(env, em.CatMergeRun, bytesCompare, 8)
				if err != nil {
					t.Fatal(err)
				}
				s.LeaveFree(5)
				for _, r := range recs[:n] {
					if err := s.Add([]byte(r)); err != nil {
						t.Fatal(err)
					}
				}
				sortFn := s.Sort
				if stream {
					sortFn = s.SortStream
				}
				it, err := sortFn()
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("stream=%v n=%d spare=%d", stream, n, spare)
				if free := env.Budget.Free(); free < 5 {
					t.Errorf("%s: %d blocks free while draining, want at least 5", name, free)
				}
				var got []string
				for {
					rec, err := it.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, string(rec))
				}
				it.Close()
				s.Close()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: output differs from sort.Strings", name)
				}
				if env.Budget.InUse() != 0 {
					t.Errorf("%s: leaked %d blocks", name, env.Budget.InUse())
				}
			}
		}
	}

	env := newEnv(t, 128, 8)
	s, err := New(env, em.CatMergeRun, bytesCompare, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.LeaveFree(8)
	if _, err := s.Sort(); err == nil {
		t.Error("leaving the whole grant free should fail")
	}
}

func TestSorterMisuse(t *testing.T) {
	env := newEnv(t, 128, 6)
	s, _ := New(env, em.CatMergeRun, bytesCompare, 3)
	defer s.Close()
	if _, err := s.Sort(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add([]byte("late")); err == nil {
		t.Error("Add after Sort should fail")
	}
	if _, err := s.Sort(); err == nil {
		t.Error("double Sort should fail")
	}
}

// Property: the external sorter agrees with sort.Slice for random record
// sets under random tiny geometries.
func TestSorterQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		env, err := em.NewEnv(em.Config{BlockSize: 64, MemBlocks: 5 + rng.Intn(8)})
		if err != nil {
			return false
		}
		defer env.Close()
		s, err := New(env, em.CatMergeRun, bytesCompare, 3+rng.Intn(env.Budget.Total()-2))
		if err != nil {
			return false
		}
		defer s.Close()
		n := rng.Intn(300)
		recs := make([]string, n)
		for i := range recs {
			recs[i] = fmt.Sprintf("%04d-%c", rng.Intn(1000), 'a'+rune(rng.Intn(26)))
			if err := s.Add([]byte(recs[i])); err != nil {
				return false
			}
		}
		sort.Strings(recs)
		it, err := s.Sort()
		if err != nil {
			return false
		}
		defer it.Close()
		for _, want := range recs {
			rec, err := it.Next()
			if err != nil || string(rec) != want {
				return false
			}
		}
		_, err = it.Next()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// --- key-path XML baseline ---

const staffDoc = `<company>
  <region name="NE"><branch name="Durham"><employee ID="454"/></branch></region>
  <region name="AC">
    <branch name="Durham">
      <employee ID="454"><name>Late</name></employee>
      <employee ID="323"><name>Smith</name><phone>5552345</phone></employee>
    </branch>
    <branch name="Atlanta"/>
  </region>
</company>`

func paperCriterion() *keys.Criterion {
	return &keys.Criterion{Rules: []keys.Rule{
		{Tag: "region", Source: keys.ByAttr("name")},
		{Tag: "branch", Source: keys.ByAttr("name")},
		{Tag: "employee", Source: keys.ByAttr("ID")},
		{Tag: "", Source: keys.ByTag()},
	}}
}

// oracleSort returns the document sorted by the in-memory recursive oracle.
func oracleSort(t *testing.T, doc string, c *keys.Criterion, depth int) string {
	t.Helper()
	n, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	n.ComputeKeys(c)
	n.SortToDepth(depth)
	return n.XMLString()
}

func TestSortXMLMatchesOracle(t *testing.T) {
	env := newEnv(t, 4096, 16)
	var out strings.Builder
	rep, err := SortXML(env, paperCriterion(), strings.NewReader(staffDoc), &out, XMLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := oracleSort(t, staffDoc, paperCriterion(), 0)
	if out.String() != want {
		t.Errorf("baseline output:\n got %s\nwant %s", out.String(), want)
	}
	// company + 2 regions + 3 branches + 3 employees + 2 names + phone.
	if rep.Elements != 12 {
		t.Errorf("Elements = %d, want 12", rep.Elements)
	}
	if rep.Records != 15 { // 12 elements + 3 text nodes
		t.Errorf("Records = %d, want 15", rep.Records)
	}
	if rep.RecordBytes <= rep.InputBytes/4 {
		t.Logf("record bytes %d vs input %d", rep.RecordBytes, rep.InputBytes)
	}
}

func TestSortXMLSpilledMatchesOracle(t *testing.T) {
	// Force a genuinely external sort with a big random document and a
	// tiny environment.
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, `<g name="g%02d">`, rng.Intn(50))
		for j := rng.Intn(4); j > 0; j-- {
			fmt.Fprintf(&sb, `<item ID="%03d">v%d</item>`, rng.Intn(500), rng.Intn(10))
		}
		sb.WriteString("</g>")
	}
	sb.WriteString("</root>")
	doc := sb.String()

	c := &keys.Criterion{Rules: []keys.Rule{
		{Tag: "g", Source: keys.ByAttr("name")},
		{Tag: "item", Source: keys.ByAttr("ID")},
	}}
	env := newEnv(t, 128, 8)
	var out strings.Builder
	rep, err := SortXML(env, c, strings.NewReader(doc), &out, XMLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InitialRuns < 2 {
		t.Fatalf("expected an external sort, got %+v", rep)
	}
	want := oracleSort(t, doc, c, 0)
	if out.String() != want {
		t.Error("spilled baseline output differs from oracle")
	}
	if env.Stats.IOs(em.CatMergeRun) == 0 || env.Stats.Reads(em.CatInput) == 0 ||
		env.Stats.Writes(em.CatOutput) == 0 {
		t.Errorf("missing I/O accounting: %v", env.Stats.Snapshot())
	}
}

func TestSortXMLDepthLimited(t *testing.T) {
	doc := `<r><g name="b"><i name="z"><leaf name="2"/><leaf name="1"/></i><i name="a"/></g><g name="a"/></r>`
	c := keys.ByAttrOrTag("name")
	env := newEnv(t, 4096, 16)
	var out strings.Builder
	if _, err := SortXML(env, c, strings.NewReader(doc), &out, XMLOptions{DepthLimit: 2}); err != nil {
		t.Fatal(err)
	}
	want := oracleSort(t, doc, c, 2)
	if out.String() != want {
		t.Errorf("depth-limited baseline:\n got %s\nwant %s", out.String(), want)
	}
}

func TestSortXMLRejectsPathCriteria(t *testing.T) {
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "e", Source: keys.ByPath("a")}}}
	env := newEnv(t, 4096, 16)
	_, err := SortXML(env, c, strings.NewReader("<e/>"), io.Discard, XMLOptions{})
	if err == nil {
		t.Fatal("path criterion should be rejected")
	}
}

func TestSortXMLMalformedInput(t *testing.T) {
	env := newEnv(t, 4096, 16)
	_, err := SortXML(env, paperCriterion(), strings.NewReader("<a><b></a>"), io.Discard, XMLOptions{})
	if err == nil {
		t.Fatal("malformed input should fail")
	}
	if env.Budget.InUse() != 0 {
		t.Errorf("failed sort leaked %d budget blocks", env.Budget.InUse())
	}
}

// Property: baseline output equals the oracle on random documents with
// random geometries.
func TestSortXMLQuick(t *testing.T) {
	c := keys.ByAttrOrTag("k")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomXML(rng, 80)
		env, err := em.NewEnv(em.Config{BlockSize: 128, MemBlocks: 6 + rng.Intn(10)})
		if err != nil {
			return false
		}
		defer env.Close()
		var out strings.Builder
		if _, err := SortXML(env, c, strings.NewReader(doc), &out, XMLOptions{}); err != nil {
			return false
		}
		n, err := xmltree.ParseString(doc)
		if err != nil {
			return false
		}
		n.ComputeKeys(c)
		n.SortRecursive()
		return out.String() == n.XMLString() && env.Budget.InUse() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomXML builds a random well-formed document with attribute keys.
func randomXML(rng *rand.Rand, maxElems int) string {
	var sb strings.Builder
	var emit func(depth, budget int) int
	emit = func(depth, budget int) int {
		if budget <= 0 {
			return budget
		}
		tag := string(rune('a' + rng.Intn(3)))
		fmt.Fprintf(&sb, `<%s k="%d">`, tag, rng.Intn(20))
		budget--
		for i := rng.Intn(4); i > 0; i-- {
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&sb, "t%d", rng.Intn(10))
			} else if depth < 8 {
				budget = emit(depth+1, budget)
			}
		}
		sb.WriteString("</" + tag + ">")
		return budget
	}
	sb.WriteString(`<root k="r">`)
	budget := 1 + rng.Intn(maxElems)
	for budget > 0 {
		budget = emit(1, budget)
	}
	sb.WriteString("</root>")
	return sb.String()
}

// TestXSortSemantics: with SortChildrenOf, only the named elements' child
// lists reorder; everything else — including the sorted children's
// interiors — keeps document order (the related-work XSort of Section 2).
func TestXSortSemantics(t *testing.T) {
	doc := `<lib>` +
		`<shelf id="s1"><book id="9"><c id="z"/><c id="a"/></book><book id="2"><c id="q"/><c id="b"/></book></shelf>` +
		`<shelf id="s0"><book id="5"/><book id="1"/></shelf>` +
		`</lib>`
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("id")}}}
	env := newEnv(t, 4096, 16)
	var out strings.Builder
	if _, err := SortXML(env, c, strings.NewReader(doc), &out, XMLOptions{SortChildrenOf: []string{"shelf"}}); err != nil {
		t.Fatal(err)
	}
	// Shelves (children of lib) keep order; books (children of shelf)
	// sort; c's (children of book) keep order.
	want := `<lib>` +
		`<shelf id="s1"><book id="2"><c id="q"></c><c id="b"></c></book><book id="9"><c id="z"></c><c id="a"></c></book></shelf>` +
		`<shelf id="s0"><book id="1"></book><book id="5"></book></shelf>` +
		`</lib>`
	if out.String() != want {
		t.Errorf("XSort output:\n got %s\nwant %s", out.String(), want)
	}
}

// TestXSortSortsLess: XSort's output differs from the full sort exactly in
// the lists it leaves alone, and the full sort of XSort's output equals
// the full sort of the input (XSort is a partial step toward it).
func TestXSortSortsLess(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	doc := randomXML(rng, 120)
	c := keys.ByAttrOrTag("k")
	run := func(opts XMLOptions, input string) string {
		env, err := em.NewEnv(em.Config{BlockSize: 512, MemBlocks: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		var out strings.Builder
		if _, err := SortXML(env, c, strings.NewReader(input), &out, opts); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	full := run(XMLOptions{}, doc)
	xsorted := run(XMLOptions{SortChildrenOf: []string{"root"}}, doc)
	if xsorted == full {
		t.Skip("document too simple to distinguish XSort from a full sort")
	}
	if run(XMLOptions{}, xsorted) != full {
		t.Error("fully sorting XSort's output must equal fully sorting the input")
	}
}
