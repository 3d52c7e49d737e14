package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"nexsort/internal/em"
	"nexsort/internal/extsort"
	"nexsort/internal/keys"
	"nexsort/internal/runstore"
	"nexsort/internal/xmltree"
)

// flatDoc builds a two-level document (root + n children), the shape where
// the paper's layout wastes a pass and graceful degeneration pays off.
func flatDoc(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString(`<root key="r">`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `<row key="%05d" pad="ppppppppppppppppppppppppp"/>`, rng.Intn(100000))
	}
	sb.WriteString("</root>")
	return sb.String()
}

func flatCriterion() *keys.Criterion {
	return &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("key")}}, KeyCap: 12}
}

func TestDegenerateFlatDocumentCorrect(t *testing.T) {
	doc := flatDoc(800, 4)
	c := flatCriterion()
	want := oracle(t, doc, c, 0)

	envOff := newEnv(t, 256, 16)
	gotOff, repOff := nexsort(t, envOff, doc, Options{Criterion: c, PaperLayout: true})

	envOn := newEnv(t, 256, 16)
	gotOn, repOn := nexsort(t, envOn, doc, Options{Criterion: c})

	if gotOff != want {
		t.Error("paper-layout output differs from oracle")
	}
	if gotOn != want {
		t.Error("default-layout output differs from oracle")
	}
	if repOn.IncompleteRuns == 0 {
		t.Fatalf("expected incomplete runs on a flat document; report = %+v", repOn)
	}
	if repOn.MergedSubtrees == 0 {
		t.Error("expected the root sort to merge incomplete runs")
	}
	if repOff.IncompleteRuns != 0 {
		t.Error("the paper's layout must not cut incomplete runs")
	}

	// The optimization's whole point: the flat document's children no
	// longer ride the data stack to disk, so data-stack paging drops to
	// (near) zero while the unoptimized run pages most of the input.
	offStack := envOff.Stats.IOs(em.CatDataStack)
	onStack := envOn.Stats.IOs(em.CatDataStack)
	if onStack >= offStack {
		t.Errorf("degeneration did not reduce data-stack paging: on=%d off=%d", onStack, offStack)
	}
	if onStack > offStack/4 {
		t.Errorf("expected a large reduction: on=%d off=%d", onStack, offStack)
	}

	// The default layout's flat sort pays no more than merge sort: the
	// last children are cut at the end tag while resident, so nothing is
	// paged; the root streams into the output, so there is no run to read
	// back; and every incomplete-run block is written once and read once.
	for _, p := range []int{1, 2, 8} {
		env, err := em.NewEnv(em.Config{BlockSize: 256, MemBlocks: 16, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { env.Close() })
		got, rep := nexsort(t, env, doc, Options{Criterion: c})
		st := env.Stats
		if got != want {
			t.Errorf("P=%d: default-layout output differs from oracle", p)
		}
		if rr := st.IOs(em.CatRunRead); rr != 0 || rep.RunBlocks != 0 {
			t.Errorf("P=%d: %d run-read transfers and %d run blocks, want none", p, rr, rep.RunBlocks)
		}
		if r, w := st.Reads(em.CatDataStack), st.Writes(em.CatDataStack); r+w != 0 {
			t.Errorf("P=%d: data-stack %d/%d, want 0/0", p, r, w)
		}
		if r, w := st.Reads(em.CatSubtreeSort), st.Writes(em.CatSubtreeSort); r != w {
			t.Errorf("P=%d: subtree-sort %d/%d, want reads equal to writes", p, r, w)
		}
	}
}

func TestDegenerateNestedDocument(t *testing.T) {
	// Degeneration must stay correct when flat regions appear at several
	// depths: each group is wide, and the root has many groups.
	rng := rand.New(rand.NewSource(11))
	var sb strings.Builder
	sb.WriteString(`<root key="r">`)
	for g := 0; g < 20; g++ {
		fmt.Fprintf(&sb, `<group key="g%02d">`, rng.Intn(100))
		for i := 0; i < 60; i++ {
			fmt.Fprintf(&sb, `<row key="%05d" pad="pppppppppppppppp"/>`, rng.Intn(100000))
		}
		sb.WriteString("</group>")
	}
	sb.WriteString("</root>")
	doc := sb.String()
	c := flatCriterion()

	env := newEnv(t, 256, 16)
	got, rep := nexsort(t, env, doc, Options{Criterion: c, Threshold: 512})
	if got != oracle(t, doc, c, 0) {
		t.Error("nested degeneration output differs from oracle")
	}
	if rep.IncompleteRuns == 0 {
		t.Errorf("expected cuts inside wide groups; report = %+v", rep)
	}
}

func TestDegenerateWithDepthLimit(t *testing.T) {
	doc := `<root key="r">` + strings.Repeat(`<g key="b"><i key="z" pad="pppppppppppppppppppppppppppppp"/><i key="a" pad="pppppppppppppppppppppppppppppp"/></g><g key="a" pad="pppppppppppppppppppppppppppp"/>`, 60) + `</root>`
	c := flatCriterion()
	for depth := 1; depth <= 3; depth++ {
		env := newEnv(t, 256, 16)
		got, _ := nexsort(t, env, doc, Options{Criterion: c, DepthLimit: depth})
		if got != oracle(t, doc, c, depth) {
			t.Errorf("depth %d: degeneration output differs from oracle", depth)
		}
	}
}

// TestDegenerateOversizedStartTag: a start tag larger than a block leaves a
// small subtree too big to sort in place in the default layout's window.
// It must get the sort area the paper's layout gives it, down to the
// floor, and sort as that layout does.
func TestDegenerateOversizedStartTag(t *testing.T) {
	blob := strings.Repeat("x", 2000)
	var sb strings.Builder
	fmt.Fprintf(&sb, `<root key="r" blob="%s">`, blob)
	for i := 0; i < 80; i++ {
		if i == 40 {
			fmt.Fprintf(&sb, `<big key="m" blob="%s"><c key="2"/><c key="1"/></big>`, blob)
		}
		fmt.Fprintf(&sb, `<row key="%05d"/>`, i*7919%1000)
	}
	sb.WriteString("</root>")
	doc := sb.String()
	c := flatCriterion()
	want := oracle(t, doc, c, 0)
	for _, mem := range []int{MinMemBlocks, 16} {
		for _, paper := range []bool{false, true} {
			env := newEnv(t, 256, mem)
			if got, _ := nexsort(t, env, doc, Options{Criterion: c, PaperLayout: paper}); got != want {
				t.Errorf("M=%d paper=%v: output differs from oracle", mem, paper)
			}
		}
	}
}

// TestDegenerateQuick: both layouts agree with the oracle — and so with
// each other, byte for byte — across random documents, thresholds, depth
// limits and budgets down to the floor, at parallelism 1, 2 and 8; and each
// layout's ledger is the same at every parallelism.
func TestDegenerateQuick(t *testing.T) {
	f := func(seed int64, thrRaw, depthRaw uint8) bool {
		if err := layoutsAgree(seed, thrRaw, depthRaw); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// layoutsAgree sorts a random document drawn from seed in both layouts at
// M in [MinMemBlocks, MinMemBlocks+8) and P in {1, 2, 8}.
func layoutsAgree(seed int64, thrRaw, depthRaw uint8) error {
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("k")}}, KeyCap: 12}
	rng := rand.New(rand.NewSource(seed))
	doc := randomXML(rng, 150)
	mem := MinMemBlocks + rng.Intn(8)
	depth := int(depthRaw) % 5
	n, err := xmltree.ParseString(doc)
	if err != nil {
		return err
	}
	n.ComputeKeys(c)
	n.SortToDepth(depth)
	want := n.XMLString()
	for _, paper := range []bool{false, true} {
		var first map[string]em.IOCount
		for _, par := range []int{1, 2, 8} {
			env, err := em.NewEnv(em.Config{BlockSize: 128, MemBlocks: mem, Parallelism: par})
			if err != nil {
				return err
			}
			var out strings.Builder
			opts := Options{Criterion: c, PaperLayout: paper, Threshold: 1 + int(thrRaw)%512, DepthLimit: depth}
			_, err = Sort(env, strings.NewReader(doc), &out, opts)
			ios, inUse := env.Stats.Snapshot(), env.Budget.InUse()
			env.Close()
			switch {
			case err != nil:
				return fmt.Errorf("paper=%v M=%d P=%d: %w", paper, mem, par, err)
			case out.String() != want:
				return fmt.Errorf("paper=%v M=%d P=%d: output differs from the oracle", paper, mem, par)
			case inUse != 0:
				return fmt.Errorf("paper=%v M=%d P=%d: %d blocks still granted", paper, mem, par, inUse)
			case first == nil:
				first = ios
			case !reflect.DeepEqual(ios, first):
				return fmt.Errorf("paper=%v M=%d: ledger at P=%d differs from P=1\nP=1: %v\nP=%d: %v", paper, mem, par, first, par, ios)
			}
		}
	}
	return nil
}

// bigRootDoc draws a document whose root has a start tag of up to 900
// bytes, so that at 128-byte blocks its sort takes any route: in place,
// merged, or, once the tag outgrows the window's slack, the internal or the
// external one. Its children are rows and flat elements of up to 60
// children, which graceful degeneration cuts into incomplete runs and whose
// merges it defers to the output phase, inside the root's sort.
func bigRootDoc(rng *rand.Rand) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, `<root key="r" blob="%s">`, strings.Repeat("x", rng.Intn(900)))
	for i := rng.Intn(12); i >= 0; i-- {
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, `<row key="%d"><v>k%d</v></row>`, rng.Intn(100), rng.Intn(100))
			continue
		}
		fmt.Fprintf(&sb, `<f key="%d"><v>k%d</v>`, rng.Intn(100), rng.Intn(100))
		for j := rng.Intn(60); j >= 0; j-- {
			fmt.Fprintf(&sb, `<c key="%d"><v>k%d</v>t%d</c>`, rng.Intn(1000), rng.Intn(1000), j)
		}
		sb.WriteString(`</f>`)
	}
	sb.WriteString("</root>")
	return sb.String()
}

// TestDeferredMergesInsideEveryRootRoute: a deferred merge runs inside the
// root's sort whichever route that takes, down to the 12-block floor, with
// attribute and path criteria (the external route's key sidecar), depth
// limits and compaction: the output matches the oracle at P = 1 and 8, and
// every block comes back.
func TestDeferredMergesInsideEveryRootRoute(t *testing.T) {
	crits := []*keys.Criterion{
		flatCriterion(),
		{Rules: []keys.Rule{{Tag: "", Source: keys.ByPath("v")}}, KeyCap: 12},
	}
	routes := map[string]bool{}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		doc := bigRootDoc(rng)
		c := crits[seed%2]
		mem := MinMemBlocks + rng.Intn(6)
		opts := Options{Criterion: c, Threshold: []int{0, 300, 5000}[rng.Intn(3)], DepthLimit: rng.Intn(4), Compact: rng.Intn(2) == 0}
		want := oracle(t, doc, c, opts.DepthLimit)
		for _, par := range []int{1, 8} {
			env, err := em.NewEnv(em.Config{BlockSize: 128, MemBlocks: mem, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			rep, err := Sort(env, strings.NewReader(doc), &out, opts)
			inUse := env.Budget.InUse()
			env.Close()
			if err != nil || out.String() != want || inUse != 0 {
				t.Fatalf("seed %d M=%d %+v P=%d: err=%v, output differs %v, %d blocks granted",
					seed, mem, opts, par, err, out.String() != want, inUse)
			}
			if rep.MergedSubtrees > 0 {
				routes[fmt.Sprintf("external=%v internal=%v", rep.ExternalSorts > 0, rep.InternalSorts > 0)] = true
			}
		}
	}
	if len(routes) < 4 {
		t.Errorf("deferred merges ran under the root routes %v only", routes)
	}
}

// TestRootLeave: a merged root takes one more pass over its few runs so
// that a dozen deferred merges stream, but none over a flat root's many,
// whose one wide child takes a pass of its own; with nothing to gain it
// takes no pass. The pass counts its rule assumes are extsort's.
func TestRootLeave(t *testing.T) {
	merges := func(n, runs int) []deferredMerge {
		m := make([]deferredMerge, n)
		for i := range m {
			m[i] = deferredMerge{tags: runstore.RunID(i), runs: make([]*em.Stream, runs)}
		}
		return m
	}
	for _, c := range []struct {
		free, rootRuns int
		deferred       []deferredMerge
		want           int
	}{
		{8, 5, merges(12, 4), 7},   // 5 runs merged into 1: the merges get 7 blocks
		{8, 150, merges(1, 30), 4}, // 150 → 22 → 4 runs, as without merges
		{12, 66, merges(1, 14), 6}, // 66 → 6 runs
		{8, 5, merges(3, 2), 3},    // the merges stream beside 5 runs
	} {
		if got := rootLeave(c.free, c.rootRuns, c.deferred); got != c.want {
			t.Errorf("rootLeave(%d, %d runs, %d merges of %d runs) = %d, want %d",
				c.free, c.rootRuns, len(c.deferred), len(c.deferred[0].runs), got, c.want)
		}
	}

	env, err := em.NewEnv(em.Config{BlockSize: 128, MemBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	for runs := 1; runs <= 40; runs++ {
		for blocks := extsort.MinMemBlocks; blocks <= 9; blocks++ {
			s, err := extsort.New(env, em.CatSubtreeSort, bytes.Compare, blocks)
			if err != nil {
				t.Fatal(err)
			}
			for i := range runs {
				run := em.NewStream(env.Dev, em.CatSubtreeSort)
				w, err := extsort.NewRunWriter(run, env.Budget)
				if err == nil {
					err = w.Write([]byte{byte(i)})
				}
				if cerr := w.Close(); err == nil {
					err = cerr
				}
				if err == nil {
					err = s.AddPresortedRun(run)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			it, err := s.SortStream()
			if err != nil {
				t.Fatal(err)
			}
			it.Close()
			if got, want := s.Stats().MergePasses, mergePassesFor(runs, blocks); got != want {
				t.Errorf("%d runs, %d blocks: extsort took %d passes, mergePassesFor says %d", runs, blocks, got, want)
			}
			s.Close()
		}
	}
}
