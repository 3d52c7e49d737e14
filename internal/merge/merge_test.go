package merge

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nexsort/internal/core"
	"nexsort/internal/em"
	"nexsort/internal/keys"
	"nexsort/internal/xmltree"
)

// Figure 1's two input documents: D1 from the personnel department, D2
// from payroll. Shapes transcribed from the paper's Table 1 and Figure 1.
const (
	d1 = `<company>
  <region name="NE"/>
  <region name="AC">
    <branch name="Durham">
      <employee ID="454"/>
      <employee ID="323"><name>Smith</name><phone>5552345</phone></employee>
    </branch>
    <branch name="Atlanta"/>
  </region>
</company>`
	d2 = `<company>
  <region name="NW"/>
  <region name="AC">
    <branch name="Durham">
      <employee ID="844"/>
      <employee ID="323"><salary>45000</salary><bonus>5000</bonus></employee>
    </branch>
    <branch name="Miami"/>
  </region>
</company>`
)

// figure1Criterion matches the paper: order region by name, branch by
// name, employee by ID.
func figure1Criterion() *keys.Criterion {
	return &keys.Criterion{Rules: []keys.Rule{
		{Tag: "region", Source: keys.ByAttr("name")},
		{Tag: "branch", Source: keys.ByAttr("name")},
		{Tag: "employee", Source: keys.ByAttr("ID")},
	}, KeyCap: 24}
}

// nexsortDoc sorts a document string with NEXSORT.
func nexsortDoc(t *testing.T, doc string, c *keys.Criterion) string {
	t.Helper()
	env, err := em.NewEnv(em.Config{BlockSize: 256, MemBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	var out strings.Builder
	if _, err := core.Sort(env, strings.NewReader(doc), &out, core.Options{Criterion: c}); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestFigure1Merge reproduces Example 1.1 end to end: sort both documents,
// merge in one pass, and compare against the merged document at the bottom
// of Figure 1 (in sorted order).
func TestFigure1Merge(t *testing.T) {
	c := figure1Criterion()
	s1 := nexsortDoc(t, d1, c)
	s2 := nexsortDoc(t, d2, c)

	var out strings.Builder
	rep, err := Documents(strings.NewReader(s1), strings.NewReader(s2), c, &out, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := `<company>` +
		`<region name="AC">` +
		`<branch name="Atlanta"></branch>` +
		`<branch name="Durham">` +
		`<employee ID="323"><name>Smith</name><phone>5552345</phone><salary>45000</salary><bonus>5000</bonus></employee>` +
		`<employee ID="454"></employee>` +
		`<employee ID="844"></employee>` +
		`</branch>` +
		`<branch name="Miami"></branch>` +
		`</region>` +
		`<region name="NE"></region>` +
		`<region name="NW"></region>` +
		`</company>`
	if out.String() != want {
		t.Errorf("merged document:\n got %s\nwant %s", out.String(), want)
	}
	// Matched pairs: company, region AC, branch Durham, employee 323.
	if rep.Matched != 4 {
		t.Errorf("Matched = %d, want 4", rep.Matched)
	}
	// Each input: company + 2 regions + 2-3 branches + 2 employees + 2
	// leaf elements = 9.
	if rep.ElementsLeft != 9 || rep.ElementsRight != 9 {
		t.Errorf("element counts = %d, %d; want 9, 9", rep.ElementsLeft, rep.ElementsRight)
	}
	// Output: company + 3 regions + 3 branches + 3 employees + name +
	// phone + salary + bonus = 14.
	if rep.OutputElements != 14 {
		t.Errorf("OutputElements = %d, want 14", rep.OutputElements)
	}
}

func TestMergeMatchesNestedLoopOracle(t *testing.T) {
	c := figure1Criterion()
	s1 := nexsortDoc(t, d1, c)
	s2 := nexsortDoc(t, d2, c)
	var streamed strings.Builder
	if _, err := Documents(strings.NewReader(s1), strings.NewReader(s2), c, &streamed, Options{}); err != nil {
		t.Fatal(err)
	}

	t1, _ := xmltree.ParseString(d1)
	t2, _ := xmltree.ParseString(d2)
	naive, err := NestedLoop(t1, t2, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive.SortRecursive()
	if streamed.String() != naive.XMLString() {
		t.Errorf("streaming and nested-loop merges disagree:\n stream %s\n  naive %s", streamed.String(), naive.XMLString())
	}
}

func TestMergeAttributeUnion(t *testing.T) {
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "e", Source: keys.ByAttr("id")}}}
	a := `<e id="1" x="left" shared="L"/>`
	b := `<e id="1" y="right" shared="R"/>`

	var out strings.Builder
	if _, err := Documents(strings.NewReader(a), strings.NewReader(b), c, &out, Options{}); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), `<e id="1" x="left" shared="L" y="right"></e>`; got != want {
		t.Errorf("left-wins union:\n got %s\nwant %s", got, want)
	}

	out.Reset()
	if _, err := Documents(strings.NewReader(a), strings.NewReader(b), c, &out, Options{PreferRight: true}); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), `<e id="1" x="left" shared="R" y="right"></e>`; got != want {
		t.Errorf("right-wins union:\n got %s\nwant %s", got, want)
	}
}

func TestMergeErrors(t *testing.T) {
	c := figure1Criterion()
	var out strings.Builder
	if _, err := Documents(strings.NewReader(`<a/>`), strings.NewReader(`<b/>`), c, &out, Options{}); err == nil {
		t.Error("mismatched roots should fail")
	}
	if _, err := Documents(strings.NewReader(``), strings.NewReader(`<b/>`), c, &out, Options{}); err == nil {
		t.Error("empty left document should fail")
	}
	pathCrit := &keys.Criterion{Rules: []keys.Rule{{Tag: "e", Source: keys.ByPath("x")}}}
	if _, err := Documents(strings.NewReader(`<e/>`), strings.NewReader(`<e/>`), pathCrit, &out, Options{}); err == nil {
		t.Error("path criterion should be rejected")
	}
	t1, _ := xmltree.ParseString(`<a k="1"/>`)
	t2, _ := xmltree.ParseString(`<b k="1"/>`)
	if _, err := NestedLoop(t1, t2, keys.ByAttrOrTag("k"), Options{}); err == nil {
		t.Error("nested-loop root mismatch should fail")
	}
}

func TestApplyUpdates(t *testing.T) {
	c := &keys.Criterion{Rules: []keys.Rule{
		{Tag: "item", Source: keys.ByAttr("sku")},
		{Tag: "inventory", Source: keys.ByTag()},
	}}
	base := `<inventory><item sku="A1" qty="10"/><item sku="B2" qty="5"/></inventory>`
	updates := `<inventory><item sku="B2" qty="7"/><item sku="C3" qty="2"/></inventory>`
	var out strings.Builder
	rep, err := ApplyUpdates(strings.NewReader(base), strings.NewReader(updates), c, &out, "")
	if err != nil {
		t.Fatal(err)
	}
	want := `<inventory><item sku="A1" qty="10"></item><item sku="B2" qty="7"></item><item sku="C3" qty="2"></item></inventory>`
	if out.String() != want {
		t.Errorf("batch update:\n got %s\nwant %s", out.String(), want)
	}
	if rep.Matched != 2 { // inventory + item B2
		t.Errorf("Matched = %d, want 2", rep.Matched)
	}
}

// TestMergeQuick: streaming merge over NEXSORT-sorted random documents
// equals nested-loop merge over the raw trees (sorted afterwards).
func TestMergeQuick(t *testing.T) {
	c := &keys.Criterion{Rules: []keys.Rule{
		{Tag: "r", Source: keys.ByTag()},
		{Tag: "", Source: keys.ByAttr("k")},
	}, KeyCap: 12}
	f := func(seedA, seedB int64) bool {
		docA := randomMergeDoc(rand.New(rand.NewSource(seedA)))
		docB := randomMergeDoc(rand.New(rand.NewSource(seedB)))

		sortDoc := func(doc string) (string, bool) {
			env, err := em.NewEnv(em.Config{BlockSize: 128, MemBlocks: 16})
			if err != nil {
				return "", false
			}
			defer env.Close()
			var out strings.Builder
			if _, err := core.Sort(env, strings.NewReader(doc), &out, core.Options{Criterion: c}); err != nil {
				return "", false
			}
			return out.String(), true
		}
		sa, ok := sortDoc(docA)
		if !ok {
			return false
		}
		sb, ok := sortDoc(docB)
		if !ok {
			return false
		}
		var streamed strings.Builder
		if _, err := Documents(strings.NewReader(sa), strings.NewReader(sb), c, &streamed, Options{}); err != nil {
			return false
		}

		ta, err := xmltree.ParseString(docA)
		if err != nil {
			return false
		}
		tb, err := xmltree.ParseString(docB)
		if err != nil {
			return false
		}
		naive, err := NestedLoop(ta, tb, c, Options{})
		if err != nil {
			return false
		}
		naive.SortRecursive()
		return streamed.String() == naive.XMLString()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// randomMergeDoc builds documents over a shared small key space so merges
// find plenty of matches, duplicates included.
func randomMergeDoc(rng *rand.Rand) string {
	var sb strings.Builder
	var emit func(depth, budget int) int
	emit = func(depth, budget int) int {
		if budget <= 0 {
			return budget
		}
		tag := string(rune('a' + rng.Intn(2)))
		fmt.Fprintf(&sb, `<%s k="%d" v="%d">`, tag, rng.Intn(5), rng.Intn(100))
		budget--
		for i := rng.Intn(3); i > 0; i-- {
			if rng.Intn(4) == 0 {
				fmt.Fprintf(&sb, "t%d", rng.Intn(3))
			} else if depth < 5 {
				budget = emit(depth+1, budget)
			}
		}
		sb.WriteString("</" + tag + ">")
		return budget
	}
	sb.WriteString(`<r>`)
	budget := 1 + rng.Intn(40)
	for budget > 0 {
		budget = emit(1, budget)
	}
	sb.WriteString("</r>")
	return sb.String()
}

func TestMergeRejectsUnsortedInput(t *testing.T) {
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "e", Source: keys.ByAttr("k")}}}
	sorted := `<r><e k="1"/><e k="2"/></r>`
	unsorted := `<r><e k="2"/><e k="1"/></r>`
	var out strings.Builder
	if _, err := Documents(strings.NewReader(unsorted), strings.NewReader(sorted), c, &out, Options{}); err == nil ||
		!strings.Contains(err.Error(), "left input is not sorted") {
		t.Errorf("unsorted left: %v", err)
	}
	if _, err := Documents(strings.NewReader(sorted), strings.NewReader(unsorted), c, &out, Options{}); err == nil ||
		!strings.Contains(err.Error(), "right input is not sorted") {
		t.Errorf("unsorted right: %v", err)
	}
	// Sorted inputs still merge fine.
	out.Reset()
	if _, err := Documents(strings.NewReader(sorted), strings.NewReader(sorted), c, &out, Options{}); err != nil {
		t.Errorf("sorted inputs rejected: %v", err)
	}
}

// countingWriter records the bytes written to it and how many Write calls
// delivered them.
type countingWriter struct {
	buf   bytes.Buffer
	calls int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	return w.buf.Write(p)
}

// TestMergeBuffersOutput pins that the merge hands its output to the
// caller in buffer-sized writes, not one Write per token: on a file each
// Write is a system call. Buffering must not change a byte, so the output
// is also checked against the nested-loop oracle, which serializes its
// in-memory tree without going through Documents.
func TestMergeBuffersOutput(t *testing.T) {
	left, right, c := catalogDocs(2500)
	var out countingWriter
	if _, err := Documents(strings.NewReader(left), strings.NewReader(right), c, &out, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := out.buf.Len(); n < 100<<10 {
		t.Fatalf("merged output is %d bytes; the test needs at least 100 KiB", n)
	}
	if limit := out.buf.Len()/outputBufferBytes + 2; out.calls > limit {
		t.Errorf("%d bytes reached the writer in %d Write calls; want at most %d", out.buf.Len(), out.calls, limit)
	}

	t1, err := xmltree.ParseString(left)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := xmltree.ParseString(right)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NestedLoop(t1, t2, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive.SortRecursive()
	if out.buf.String() != naive.XMLString() {
		t.Error("buffered merge output differs from the nested-loop oracle")
	}
}
