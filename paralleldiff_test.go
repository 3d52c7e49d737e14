package nexsort_test

import (
	"bytes"
	"reflect"
	"testing"

	"nexsort/internal/core"
	"nexsort/internal/em"
	"nexsort/internal/em/chaostest"
	"nexsort/internal/keys"
)

// The parallel differential suite: the worker pool is an optimization of
// wall-clock time and nothing else. At every parallelism level the sorters
// must produce byte-identical output AND identical per-category block
// transfers — the paper's metric — to their sequential runs. Any divergence
// means a scheduling decision leaked into an algorithmic decision.

// parallelLevels is the ladder the acceptance criteria name: sequential,
// one worker, and more workers than the budget can admit at once.
var parallelLevels = []int{1, 2, 8}

// diffEnv builds a trial environment at the given memory budget and
// parallelism. Block size matches the chaos soak: small enough that a
// few-hundred-element document spills heavily.
func diffEnv(memBlocks, parallelism int) em.Config {
	return em.Config{BlockSize: 512, MemBlocks: memBlocks, Parallelism: parallelism}
}

func TestParallelDifferential(t *testing.T) {
	docs := []struct {
		name     string
		elements int64
		maxFan   int
		seed     int64
	}{
		{"bushy", 300, 6, 3},  // many siblings per level: dispatchable subtrees
		{"wide", 250, 40, 4},  // huge fan-out: big child lists, external sorts
		{"narrow", 200, 2, 5}, // tall and thin: little to run in parallel
	}
	// Two budget shapes: "tight" leaves almost no slack, so most dispatch
	// attempts fall back inline; "roomy" admits concurrent working sets, so
	// the pool actually runs. The invariant must hold in both regimes.
	budgets := []struct {
		name      string
		memBlocks int
	}{
		{"tight", 16},
		{"roomy", 64},
	}
	crit := keys.ByAttrOrTag("key")

	for _, d := range docs {
		doc, _, err := chaostest.Doc(d.elements, d.maxFan, d.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range budgets {
			t.Run(d.name+"/"+b.name, func(t *testing.T) {
				// Sequential baselines, one per algorithm; the two sorters
				// must agree with each other before parallelism enters.
				type base struct {
					output []byte
					ios    map[string]em.IOCount
				}
				seq := map[chaostest.Algorithm]base{}
				for _, algo := range chaostest.Algorithms {
					o := chaostest.Run(doc, crit, chaostest.Trial{Algorithm: algo, Env: diffEnv(b.memBlocks, 1)})
					if o.PanicValue != nil {
						t.Fatalf("%v sequential: panic: %v", algo, o.PanicValue)
					}
					if o.Err != nil {
						t.Fatalf("%v sequential: %v", algo, o.Err)
					}
					if o.BudgetInUse != 0 {
						t.Fatalf("%v sequential: leaked %d budget blocks", algo, o.BudgetInUse)
					}
					if o.FramesLive != 0 {
						t.Fatalf("%v sequential: leaked %d pooled frames", algo, o.FramesLive)
					}
					seq[algo] = base{output: o.Output, ios: o.Stats.Snapshot()}
				}
				if !bytes.Equal(seq[chaostest.Nexsort].output, seq[chaostest.MergeSort].output) {
					t.Fatal("sequential baselines disagree between algorithms")
				}

				for _, p := range parallelLevels[1:] {
					for _, algo := range chaostest.Algorithms {
						o := chaostest.Run(doc, crit, chaostest.Trial{Algorithm: algo, Env: diffEnv(b.memBlocks, p)})
						if o.PanicValue != nil {
							t.Fatalf("%v parallelism=%d: panic: %v", algo, p, o.PanicValue)
						}
						if o.Err != nil {
							t.Fatalf("%v parallelism=%d: %v", algo, p, o.Err)
						}
						if o.BudgetInUse != 0 {
							t.Errorf("%v parallelism=%d: leaked %d budget blocks", algo, p, o.BudgetInUse)
						}
						if o.FramesLive != 0 {
							t.Errorf("%v parallelism=%d: leaked %d pooled frames", algo, p, o.FramesLive)
						}
						if !bytes.Equal(o.Output, seq[algo].output) {
							t.Errorf("%v parallelism=%d: output differs from sequential run", algo, p)
						}
						if got := o.Stats.Snapshot(); !reflect.DeepEqual(got, seq[algo].ios) {
							t.Errorf("%v parallelism=%d: block transfers differ from sequential run\nsequential: %v\nparallel:   %v",
								algo, p, seq[algo].ios, got)
						}
					}
				}
			})
		}
	}
}

// runNexsortOpts drives core.Sort directly so compaction and the paper's
// layout can be switched on — chaostest.Run always sorts with default
// options.
func runNexsortOpts(t *testing.T, doc []byte, cfg em.Config, opts core.Options) ([]byte, map[string]em.IOCount) {
	t.Helper()
	env, err := em.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	var buf bytes.Buffer
	if _, err := core.Sort(env, bytes.NewReader(doc), &buf, opts); err != nil {
		t.Fatalf("core.Sort (parallelism=%d): %v", cfg.Parallelism, err)
	}
	if n := env.Budget.InUse(); n != 0 {
		t.Fatalf("core.Sort (parallelism=%d): leaked %d budget blocks", cfg.Parallelism, n)
	}
	return buf.Bytes(), env.Stats.Snapshot()
}

// TestParallelDifferentialOptions covers the NEXSORT code paths the plain
// differential matrix can't reach: Section 3.2 compaction, and the paper's
// Section 3.1 layout, which never dispatches, so its ledger must not
// depend on the pool either.
func TestParallelDifferentialOptions(t *testing.T) {
	crit := keys.ByAttrOrTag("key")
	variants := []struct {
		name string
		opts core.Options
	}{
		{"paper", core.Options{Criterion: crit, PaperLayout: true}},
		{"compact", core.Options{Criterion: crit, Compact: true}},
		{"compact-paper", core.Options{Criterion: crit, Compact: true, PaperLayout: true}},
	}
	doc, _, err := chaostest.Doc(300, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			wantOut, wantIOs := runNexsortOpts(t, doc, diffEnv(48, 1), v.opts)
			for _, p := range parallelLevels[1:] {
				out, ios := runNexsortOpts(t, doc, diffEnv(48, p), v.opts)
				if !bytes.Equal(out, wantOut) {
					t.Errorf("parallelism=%d: output differs from sequential run", p)
				}
				if !reflect.DeepEqual(ios, wantIOs) {
					t.Errorf("parallelism=%d: block transfers differ from sequential run\nsequential: %v\nparallel:   %v",
						p, wantIOs, ios)
				}
			}
		})
	}
}
