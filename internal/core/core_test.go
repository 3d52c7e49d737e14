package core

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"nexsort/internal/em"
	"nexsort/internal/extsort"
	"nexsort/internal/gen"
	"nexsort/internal/keys"
	"nexsort/internal/xmltree"
)

// paperDoc is D1 from Figure 1 (pre-sorting order).
const paperDoc = `<company>
  <region name="NE">
    <branch name="Durham">
      <employee ID="454"/>
      <employee ID="323"><name>Smith</name><phone>5552345</phone></employee>
    </branch>
    <branch name="Atlanta"/>
  </region>
  <region name="AC"><branch name="Miami"/><branch name="Durham"/></region>
</company>`

func paperCriterion() *keys.Criterion {
	return &keys.Criterion{Rules: []keys.Rule{
		{Tag: "region", Source: keys.ByAttr("name")},
		{Tag: "branch", Source: keys.ByAttr("name")},
		{Tag: "employee", Source: keys.ByAttr("ID")},
		{Tag: "", Source: keys.ByTag()},
	}, KeyCap: 24}
}

func newEnv(t *testing.T, blockSize, memBlocks int) *em.Env {
	t.Helper()
	env, err := em.NewEnv(em.Config{BlockSize: blockSize, MemBlocks: memBlocks})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	return env
}

// oracle sorts a document with the in-memory recursive sorter.
func oracle(t *testing.T, doc string, c *keys.Criterion, depth int) string {
	t.Helper()
	n, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	n.ComputeKeys(c)
	n.SortToDepth(depth)
	return n.XMLString()
}

// nexsort runs Sort and returns the output document and report.
func nexsort(t *testing.T, env *em.Env, doc string, opts Options) (string, *Report) {
	t.Helper()
	var out strings.Builder
	rep, err := Sort(env, strings.NewReader(doc), &out, opts)
	if err != nil {
		t.Fatal(err)
	}
	if env.Budget.InUse() != 0 {
		t.Fatalf("sort leaked %d budget blocks", env.Budget.InUse())
	}
	return out.String(), rep
}

func TestSortPaperDocument(t *testing.T) {
	env := newEnv(t, 128, 16)
	got, rep := nexsort(t, env, paperDoc, Options{Criterion: paperCriterion()})
	want := oracle(t, paperDoc, paperCriterion(), 0)
	if got != want {
		t.Errorf("output:\n got %s\nwant %s", got, want)
	}
	// company + 2 regions + 4 branches + 2 employees + name + phone = 11.
	if rep.Elements != 11 {
		t.Errorf("Elements = %d, want 11", rep.Elements)
	}
	if rep.TextNodes != 2 {
		t.Errorf("TextNodes = %d, want 2", rep.TextNodes)
	}
	if rep.Height != 5 {
		t.Errorf("Height = %d, want 5", rep.Height)
	}
	if rep.SubtreeSorts < 1 {
		t.Error("expected at least the root sort")
	}
	if rep.OutputBytes == 0 || rep.InputBytes == 0 {
		t.Errorf("byte counts: in=%d out=%d", rep.InputBytes, rep.OutputBytes)
	}
}

// TestThresholdCollapse reproduces Figure 2: a subtree at least t bytes is
// collapsed into a run when its end tag arrives; smaller subtrees ride
// along until an ancestor is sorted. With a huge threshold only the root
// sort happens; with a tiny one every element gets its own run.
func TestThresholdCollapse(t *testing.T) {
	env1 := newEnv(t, 128, 16)
	_, repBig := nexsort(t, env1, paperDoc, Options{Criterion: paperCriterion(), Threshold: 1 << 20})
	if repBig.SubtreeSorts != 1 {
		t.Errorf("huge threshold: %d subtree sorts, want 1 (root only)", repBig.SubtreeSorts)
	}

	env2 := newEnv(t, 128, 16)
	_, repTiny := nexsort(t, env2, paperDoc, Options{Criterion: paperCriterion(), Threshold: 1})
	// With t=1 every element whose complete subtree is on the stack is
	// collapsed: all 11 elements.
	if repTiny.SubtreeSorts != 11 {
		t.Errorf("tiny threshold: %d subtree sorts, want 11", repTiny.SubtreeSorts)
	}
	// Both produce identical output.
	want := oracle(t, paperDoc, paperCriterion(), 0)
	env3 := newEnv(t, 128, 16)
	got, _ := nexsort(t, env3, paperDoc, Options{Criterion: paperCriterion(), Threshold: 1})
	if got != want {
		t.Error("tiny-threshold output differs from oracle")
	}
}

func TestMatchesBaselineByteForByte(t *testing.T) {
	c := paperCriterion()
	envA := newEnv(t, 128, 16)
	nexOut, _ := nexsort(t, envA, paperDoc, Options{Criterion: c})

	envB := newEnv(t, 128, 16)
	var mergeOut strings.Builder
	if _, err := extsort.SortXML(envB, c, strings.NewReader(paperDoc), &mergeOut, extsort.XMLOptions{}); err != nil {
		t.Fatal(err)
	}
	if nexOut != mergeOut.String() {
		t.Errorf("NEXSORT and merge-sort baseline disagree:\n nex %s\n ems %s", nexOut, mergeOut.String())
	}
}

func TestExternalSubtreeSortPath(t *testing.T) {
	// A single giant flat element under the root forces the root subtree
	// sort to exceed the in-memory area of the paper's layout, taking the
	// key-path external fallback; the default layout would cut the
	// children into incomplete runs instead.
	var sb strings.Builder
	sb.WriteString(`<root key="r">`)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, `<item key="%04d">some text payload %d</item>`, rng.Intn(10000), i)
	}
	sb.WriteString(`</root>`)
	doc := sb.String()
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("key")}}, KeyCap: 16}

	env := newEnv(t, 256, MinMemBlocks)
	got, rep := nexsort(t, env, doc, Options{Criterion: c, PaperLayout: true})
	if rep.ExternalSorts == 0 {
		t.Fatalf("expected an external subtree sort; report = %+v", rep)
	}
	if got != oracle(t, doc, c, 0) {
		t.Error("external-fallback output differs from oracle")
	}
}

func TestDepthLimitedSort(t *testing.T) {
	doc := `<r key="1"><g key="b"><i key="z"><leaf key="2"/><leaf key="1"/></i><i key="a"/></g><g key="a"><i key="q"><leaf key="9"/><leaf key="0"/></i></g></r>`
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("key")}}, KeyCap: 16}
	for depth := 1; depth <= 4; depth++ {
		env := newEnv(t, 128, 16)
		got, _ := nexsort(t, env, doc, Options{Criterion: c, DepthLimit: depth, Threshold: 1})
		want := oracle(t, doc, c, depth)
		if got != want {
			t.Errorf("depth %d:\n got %s\nwant %s", depth, got, want)
		}
	}
}

func TestComplexOrderingCriteria(t *testing.T) {
	doc := `<staff key="s">
	  <emp><info><name><last>Zeta</last></name></info></emp>
	  <emp><info><name><last>Alpha</last></name></info></emp>
	  <emp><info><name><last>Mid</last></name></info></emp>
	</staff>`
	c := &keys.Criterion{
		Rules:  []keys.Rule{{Tag: "emp", Source: keys.ByPath("info", "name", "last")}},
		KeyCap: 16,
	}
	env := newEnv(t, 128, 16)
	got, _ := nexsort(t, env, doc, Options{Criterion: c})
	want := oracle(t, doc, c, 0)
	if got != want {
		t.Errorf("path-criterion sort:\n got %s\nwant %s", got, want)
	}
}

func TestComplexCriteriaExternalFallback(t *testing.T) {
	// Path criterion + oversized subtree in the paper's layout: exercises
	// the key sidecar.
	var sb strings.Builder
	sb.WriteString("<root>")
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "<e><v>k%04d</v>filler-%d</e>", rng.Intn(10000), i)
	}
	sb.WriteString("</root>")
	doc := sb.String()
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "e", Source: keys.ByPath("v")}}, KeyCap: 16}

	env := newEnv(t, 256, MinMemBlocks+3)
	got, rep := nexsort(t, env, doc, Options{Criterion: c, PaperLayout: true})
	if rep.ExternalSorts == 0 {
		t.Fatalf("expected the external fallback; report = %+v", rep)
	}
	if got != oracle(t, doc, c, 0) {
		t.Error("sidecar-keyed external sort differs from oracle")
	}
}

func TestNilCriterionPreservesDocumentOrder(t *testing.T) {
	doc := `<r><b x="2"/><a x="1"/>text<c/></r>`
	env := newEnv(t, 128, 16)
	got, _ := nexsort(t, env, doc, Options{})
	want := `<r><b x="2"></b><a x="1"></a>text<c></c></r>`
	if got != want {
		t.Errorf("empty criterion:\n got %s\nwant %s", got, want)
	}
}

func TestIndentedOutput(t *testing.T) {
	env := newEnv(t, 128, 16)
	got, _ := nexsort(t, env, `<r><b key="2"/><a key="1"/></r>`, Options{
		Criterion: &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("key")}}, KeyCap: 8},
		Indent:    "  ",
	})
	want := "<r>\n  <a key=\"1\"></a>\n  <b key=\"2\"></b>\n</r>\n"
	if got != want {
		t.Errorf("indented output:\n got %q\nwant %q", got, want)
	}
}

func TestErrorCases(t *testing.T) {
	c := paperCriterion()
	t.Run("malformed", func(t *testing.T) {
		env := newEnv(t, 128, 16)
		_, err := Sort(env, strings.NewReader("<a><b></a>"), io.Discard, Options{Criterion: c})
		if err == nil {
			t.Error("malformed input should fail")
		}
		if env.Budget.InUse() != 0 {
			t.Errorf("leaked %d blocks on error", env.Budget.InUse())
		}
	})
	t.Run("empty", func(t *testing.T) {
		env := newEnv(t, 128, 16)
		if _, err := Sort(env, strings.NewReader("  "), io.Discard, Options{Criterion: c}); err == nil {
			t.Error("empty input should fail")
		}
	})
	t.Run("tiny budget", func(t *testing.T) {
		env := newEnv(t, 128, MinMemBlocks-1)
		if _, err := Sort(env, strings.NewReader("<a/>"), io.Discard, Options{Criterion: c}); err == nil {
			t.Error("budget below the minimum should fail")
		}
	})
	t.Run("oversized key cap", func(t *testing.T) {
		env := newEnv(t, 64, 16)
		big := &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByTag()}}, KeyCap: 128}
		if _, err := Sort(env, strings.NewReader("<a/>"), io.Discard, Options{Criterion: big}); err == nil {
			t.Error("criterion state larger than a block should fail")
		}
	})
	t.Run("negative depth", func(t *testing.T) {
		env := newEnv(t, 128, 16)
		if _, err := Sort(env, strings.NewReader("<a/>"), io.Discard, Options{Criterion: c, DepthLimit: -1}); err == nil {
			t.Error("negative depth limit should fail")
		}
	})
	// A malformed trailer fails before any output is written: the
	// default layout's root streams into the output only once the scan
	// has ended. The root's sorted output is several blocks long, so a
	// root written before the trailer is parsed would reach the writer.
	root := "<a>" + strings.Repeat(`<b ID="1"/>`, 60) + "</a>"
	for _, tc := range []struct{ name, doc string }{
		{"second root", root + "<c/>"},
		{"text after root", root + "x"},
	} {
		doc := tc.doc
		t.Run(tc.name, func(t *testing.T) {
			for _, paper := range []bool{false, true} {
				for _, p := range []int{1, 2} {
					env, err := em.NewEnv(em.Config{BlockSize: 128, MemBlocks: 16, Parallelism: p})
					if err != nil {
						t.Fatal(err)
					}
					var out countingWriter
					_, err = Sort(env, strings.NewReader(doc), &out, Options{Criterion: c, PaperLayout: paper})
					inUse := env.Budget.InUse()
					env.Close()
					if err == nil {
						t.Errorf("paper=%v P=%d: %q should fail", paper, p, doc)
					}
					if out.n != 0 {
						t.Errorf("paper=%v P=%d: wrote %d bytes before failing", paper, p, out.n)
					}
					if inUse != 0 {
						t.Errorf("paper=%v P=%d: leaked %d blocks on error", paper, p, inUse)
					}
				}
			}
		})
	}
}

// countingWriter counts the bytes written to it.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestGeneratedDocumentAgainstOracle sorts a generated document of a few
// thousand elements under a tight memory budget and cross-checks.
func TestGeneratedDocumentAgainstOracle(t *testing.T) {
	var buf strings.Builder
	if _, err := (gen.CustomSpec{Fanouts: []int{12, 12, 12}, Seed: 5, ElemSize: 60}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("key")}}, KeyCap: 16}

	env := newEnv(t, 512, MinMemBlocks)
	got, rep := nexsort(t, env, doc, Options{Criterion: c})
	if got != oracle(t, doc, c, 0) {
		t.Error("generated-document output differs from oracle")
	}
	if rep.Elements != 1885 { // 1 + 12 + 144 + 1728
		t.Errorf("Elements = %d", rep.Elements)
	}
	if rep.SubtreeSorts < 10 {
		t.Errorf("SubtreeSorts = %d, expected many under a small threshold", rep.SubtreeSorts)
	}
	// Cross-check with the baseline too: byte-identical output.
	envB := newEnv(t, 512, MinMemBlocks)
	var mergeOut strings.Builder
	if _, err := extsort.SortXML(envB, c, strings.NewReader(doc), &mergeOut, extsort.XMLOptions{}); err != nil {
		t.Fatal(err)
	}
	if mergeOut.String() != got {
		t.Error("NEXSORT and baseline disagree on the generated document")
	}
}

// TestSortQuick: NEXSORT equals the oracle on random documents across
// random geometries, thresholds and depth limits, at several parallelism
// levels set explicitly rather than inherited from GOMAXPROCS.
func TestSortQuick(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("P%d", par), func(t *testing.T) {
			f := func(seed int64, thrRaw, depthRaw uint8) bool {
				return sortMatchesOracle(par, seed, thrRaw, depthRaw) == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDispatchUnderBudgetPressure replays TestSortQuick inputs whose
// dispatched subtree sorts met a full budget when the range reader that
// loads the token tree asked for its block. The dispatch must fall back to
// the inline sort.
func TestDispatchUnderBudgetPressure(t *testing.T) {
	cases := []struct {
		seed             int64
		thrRaw, depthRaw uint8
	}{
		{8126222208245889085, 0x5b, 0xa5},
		{3313049648758028359, 0xc2, 0xd4},
	}
	for _, par := range []int{2, 8} {
		for _, c := range cases {
			if err := sortMatchesOracle(par, c.seed, c.thrRaw, c.depthRaw); err != nil {
				t.Errorf("parallelism %d, seed %d: %v", par, c.seed, err)
			}
		}
	}
}

// TestDefaultLayoutDispatches: at P = 8 the default layout's in-place
// subtree sorts reach the worker pool on blocks lent out of the data
// stack's window, the paper's layout sorts every subtree on the scanning
// goroutine, and each layout's output and ledger are those of P = 1.
// Every worker returns its pool slot before it signals done, and the sort
// waits for its workers, so afterwards the pool admits all P − 1 workers
// again: a leaked slot would silently stop dispatch after P − 1 sorts.
func TestDefaultLayoutDispatches(t *testing.T) {
	var sb strings.Builder
	if _, err := (gen.IBMSpec{Height: 7, MaxFanout: 6, MaxElements: 3000, Seed: 5}).Write(&sb); err != nil {
		t.Fatal(err)
	}
	doc := sb.String()
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr(gen.DefaultKeyAttr)}}, KeyCap: 16}
	dispatched := 0
	testHookDispatched = func() { dispatched++ }
	defer func() { testHookDispatched = nil }()
	for _, tc := range []struct {
		name       string
		paper      bool
		dispatches bool
	}{
		{"default", false, true},
		{"paper", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sortAt := func(par int) (string, map[string]em.IOCount, *Report) {
				env, err := em.NewEnv(em.Config{BlockSize: 512, MemBlocks: 256, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				defer env.Close()
				dispatched = 0
				out, rep := nexsort(t, env, doc, Options{Criterion: c, PaperLayout: tc.paper})
				free := 0
				for env.Pool().TryAcquire() {
					free++
				}
				if free != par-1 {
					t.Errorf("after the sort at P=%d the pool admits %d workers, want %d", par, free, par-1)
				}
				return out, env.Stats.Snapshot(), rep
			}
			wantOut, wantIOs, _ := sortAt(1)
			if dispatched != 0 {
				t.Fatalf("P=1 dispatched %d sorts", dispatched)
			}
			gotOut, gotIOs, rep := sortAt(8)
			if tc.dispatches && dispatched == 0 {
				t.Errorf("P=8 dispatched none of %d subtree sorts", rep.SubtreeSorts)
			}
			if !tc.dispatches && dispatched != 0 {
				t.Errorf("P=8 dispatched %d of %d subtree sorts", dispatched, rep.SubtreeSorts)
			}
			if gotOut != wantOut {
				t.Error("P=8 output differs from P=1")
			}
			if !reflect.DeepEqual(gotIOs, wantIOs) {
				t.Errorf("P=8 ledger differs from P=1\nP=1: %v\nP=8: %v", wantIOs, gotIOs)
			}
		})
	}
}

// sortMatchesOracle sorts a random document drawn from seed under a random
// geometry at the given parallelism and compares the output with the
// in-memory oracle.
func sortMatchesOracle(parallelism int, seed int64, thrRaw, depthRaw uint8) error {
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("k")}}, KeyCap: 12}
	rng := rand.New(rand.NewSource(seed))
	doc := randomXML(rng, 120)
	env, err := em.NewEnv(em.Config{BlockSize: 128, MemBlocks: MinMemBlocks + rng.Intn(8), Parallelism: parallelism})
	if err != nil {
		return err
	}
	defer env.Close()
	opts := Options{
		Criterion:  c,
		Threshold:  1 + int(thrRaw)%512,
		DepthLimit: int(depthRaw) % 5, // 0 = unlimited
	}
	var out strings.Builder
	if _, err := Sort(env, strings.NewReader(doc), &out, opts); err != nil {
		return err
	}
	n, err := xmltree.ParseString(doc)
	if err != nil {
		return err
	}
	n.ComputeKeys(c)
	n.SortToDepth(opts.DepthLimit)
	if out.String() != n.XMLString() {
		return fmt.Errorf("output differs from the oracle")
	}
	if used := env.Budget.InUse(); used != 0 {
		return fmt.Errorf("%d blocks still granted after the sort", used)
	}
	return nil
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
		fmt.Fprintf(&sb, `<%s k="%d">`, tag, rng.Intn(30))
		budget--
		for i := rng.Intn(4); i > 0; i-- {
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&sb, "t%d", rng.Intn(10))
			} else if depth < 10 {
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

// TestCompactionIdenticalOutput verifies the Section 3.2 compaction
// techniques: identical output, smaller working structures.
func TestCompactionIdenticalOutput(t *testing.T) {
	// Verbose, repetitive markup — the case the paper's compaction
	// targets: "a document usually contains many repeated occurrences of
	// labels such as tag and attribute names".
	rng := rand.New(rand.NewSource(8))
	var buf strings.Builder
	buf.WriteString(`<inventory-database sort-key="root">`)
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&buf, `<warehouse-record sort-key="%04d"><quantity-on-hand sort-key="%d"/></warehouse-record>`,
			rng.Intn(10000), rng.Intn(10))
	}
	buf.WriteString(`</inventory-database>`)
	doc := buf.String()
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("sort-key")}}, KeyCap: 16}

	envPlain := newEnv(t, 512, 16)
	plain, repPlain := nexsort(t, envPlain, doc, Options{Criterion: c})
	envComp := newEnv(t, 512, 16)
	comp, repComp := nexsort(t, envComp, doc, Options{Criterion: c, Compact: true})

	if plain != comp {
		t.Error("compaction changed the output document")
	}
	// The root streams into the output, so the document's only runs are
	// the root's incomplete runs: ScratchBlocks counts them.
	if repComp.ScratchBlocks >= repPlain.ScratchBlocks {
		t.Errorf("compaction did not shrink runs: %d vs %d scratch blocks", repComp.ScratchBlocks, repPlain.ScratchBlocks)
	}
	if envComp.Stats.TotalIOs() >= envPlain.Stats.TotalIOs() {
		t.Errorf("compaction did not reduce I/O: %d vs %d", envComp.Stats.TotalIOs(), envPlain.Stats.TotalIOs())
	}
}

// TestCompactionQuick: compaction preserves output across random documents
// and option mixes (with both layouts and depth limits thrown in).
func TestCompactionQuick(t *testing.T) {
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("k")}}, KeyCap: 12}
	f := func(seed int64, paper bool, depthRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := randomXML(rng, 100)
		run := func(compactOn bool) (string, bool) {
			env, err := em.NewEnv(em.Config{BlockSize: 128, MemBlocks: MinMemBlocks})
			if err != nil {
				return "", false
			}
			defer env.Close()
			var out strings.Builder
			opts := Options{Criterion: c, Compact: compactOn, PaperLayout: paper, DepthLimit: int(depthRaw) % 4}
			if _, err := Sort(env, strings.NewReader(doc), &out, opts); err != nil {
				return "", false
			}
			return out.String(), true
		}
		plain, ok1 := run(false)
		comp, ok2 := run(true)
		return ok1 && ok2 && plain == comp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestRecordOrderRoundTrip implements the paper's order-preserving recipe:
// sort with a recorded sequence attribute, then sort the result by that
// attribute — the original document comes back (plus the stamps).
func TestRecordOrderRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Element-only documents: text nodes cannot carry the stamp, so
		// their position among element siblings is not restorable (a
		// limitation the paper's recipe shares).
		doc := randomElemXML(rng, 80)
		c := &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("k")}}, KeyCap: 12}

		env1 := mustEnv()
		defer env1.Close()
		var sorted strings.Builder
		if _, err := Sort(env1, strings.NewReader(doc), &sorted, Options{Criterion: c, RecordOrder: "nx-seq"}); err != nil {
			return false
		}
		// Every element now carries the stamp.
		if !strings.Contains(sorted.String(), `nx-seq="`) {
			return false
		}

		env2 := mustEnv()
		defer env2.Close()
		seqCrit := &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("nx-seq")}}, KeyCap: 16}
		var restored strings.Builder
		if _, err := Sort(env2, strings.NewReader(sorted.String()), &restored, Options{Criterion: seqCrit}); err != nil {
			return false
		}

		// Stripping the stamps must reproduce the original document.
		orig, err := xmltree.ParseString(doc)
		if err != nil {
			return false
		}
		back, err := xmltree.ParseString(restored.String())
		if err != nil {
			return false
		}
		stripAttr(back, "nx-seq")
		return xmltree.Equal(orig, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRecordOrderRefusesDuplicateAttribute: a start tag that already
// carries the attribute RecordOrder stamps fails the sort, naming the
// element and the attribute, instead of writing the attribute twice.
func TestRecordOrderRefusesDuplicateAttribute(t *testing.T) {
	doc := `<r><a key="2" seq="x"/><a key="1"/></r>`
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("key")}}}
	for _, paper := range []bool{false, true} {
		var out strings.Builder
		_, err := Sort(newEnv(t, 256, 16), strings.NewReader(doc), &out, Options{Criterion: c, RecordOrder: "seq", PaperLayout: paper})
		if err == nil {
			t.Fatalf("paper layout %v: sorted to %s", paper, out.String())
		}
		if msg := err.Error(); !strings.Contains(msg, "<a>") || !strings.Contains(msg, "seq") {
			t.Errorf("paper layout %v: error %q names neither the element nor the attribute", paper, msg)
		}
		if out.Len() != 0 {
			t.Errorf("paper layout %v: wrote %d bytes before failing", paper, out.Len())
		}
	}
}

// randomElemXML is randomXML without text nodes.
func randomElemXML(rng *rand.Rand, maxElems int) string {
	var sb strings.Builder
	var emit func(depth, budget int) int
	emit = func(depth, budget int) int {
		if budget <= 0 {
			return budget
		}
		tag := string(rune('a' + rng.Intn(3)))
		fmt.Fprintf(&sb, `<%s k="%d">`, tag, rng.Intn(30))
		budget--
		for i := rng.Intn(4); i > 0 && depth < 10; i-- {
			budget = emit(depth+1, budget)
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

func mustEnv() *em.Env {
	env, err := em.NewEnv(em.Config{BlockSize: 128, MemBlocks: 16})
	if err != nil {
		panic(err)
	}
	return env
}

func stripAttr(n *xmltree.Node, name string) {
	kept := n.Attrs[:0]
	for _, a := range n.Attrs {
		if a.Name != name {
			kept = append(kept, a)
		}
	}
	n.Attrs = kept
	for _, ch := range n.Children {
		stripAttr(ch, name)
	}
}

// TestHeterogeneousSchemaAtScale sorts an auction-site document (XMark-ish
// schema, multi-rule criterion, mixed text) with all three implementations
// and requires byte-identical output.
func TestHeterogeneousSchemaAtScale(t *testing.T) {
	var buf strings.Builder
	st, err := (gen.SiteSpec{Items: 120, MaxBids: 8, Seed: 4}).Write(&buf)
	if err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	c := &keys.Criterion{Rules: []keys.Rule{
		{Tag: "region", Source: keys.ByAttr("name")},
		{Tag: "item", Source: keys.ByAttr("id")},
		{Tag: "bid", Source: keys.ByAttr("amount")},
	}, KeyCap: 16}

	envN := newEnv(t, 1024, 24)
	nexOut, rep := nexsort(t, envN, doc, Options{Criterion: c})
	if rep.Elements != st.Elements {
		t.Errorf("Elements = %d, want %d", rep.Elements, st.Elements)
	}
	want := oracle(t, doc, c, 0)
	if nexOut != want {
		t.Error("NEXSORT disagrees with the oracle on the site schema")
	}
	envM := newEnv(t, 1024, 24)
	var msOut strings.Builder
	if _, err := extsort.SortXML(envM, c, strings.NewReader(doc), &msOut, extsort.XMLOptions{}); err != nil {
		t.Fatal(err)
	}
	if msOut.String() != want {
		t.Error("merge sort disagrees with the oracle on the site schema")
	}
}
