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

// TestCompressedSpillConformance is the spill-format counterpart of the
// differential suite: compression is a representation change below the
// block abstraction, so with it on vs. off — at every parallelism level —
// the output bytes must be identical and the logical per-category I/O
// accounting (reads, writes, and their whole-block byte volumes) must not
// move. What must move is the physical side: on the key-path workload the
// bytes that actually cross the device shrink by at least 2×.
func TestCompressedSpillConformance(t *testing.T) {
	doc, _, err := chaostest.Doc(300, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	crit := keys.ByAttrOrTag("key")

	// logicalSide projects a snapshot onto the logical ledger, which is
	// what must be invariant; the physical counters are supposed to
	// differ between the two configurations.
	logicalSide := func(snap map[string]em.IOCount) map[string]em.IOCount {
		out := make(map[string]em.IOCount, len(snap))
		for k, c := range snap {
			out[k] = em.IOCount{
				Reads: c.Reads, Writes: c.Writes,
				ReadBytes: c.ReadBytes, WriteBytes: c.WriteBytes,
			}
		}
		return out
	}
	spillPhysWriteBytes := func(o *chaostest.Outcome) int64 {
		var n int64
		for _, c := range o.Stats.Snapshot() {
			n += c.PhysWriteBytes
		}
		return n
	}

	for _, algo := range chaostest.Algorithms {
		t.Run(algo.String(), func(t *testing.T) {
			for _, p := range parallelLevels {
				plain := chaostest.Run(doc, crit, chaostest.Trial{Algorithm: algo, Env: diffEnv(16, p)})
				env := diffEnv(16, p)
				env.CompressSpill = true
				comp := chaostest.Run(doc, crit, chaostest.Trial{Algorithm: algo, Env: env})
				for name, o := range map[string]*chaostest.Outcome{"plain": plain, "compressed": comp} {
					if o.PanicValue != nil {
						t.Fatalf("%s parallelism=%d: panic: %v", name, p, o.PanicValue)
					}
					if o.Err != nil {
						t.Fatalf("%s parallelism=%d: %v", name, p, o.Err)
					}
					if o.FramesLive != 0 || o.BudgetInUse != 0 {
						t.Fatalf("%s parallelism=%d: leaked %d frames, %d budget blocks",
							name, p, o.FramesLive, o.BudgetInUse)
					}
				}
				if comp.CodecFramesLive != 0 {
					t.Errorf("parallelism=%d: %d codec scratch frames leaked", p, comp.CodecFramesLive)
				}
				if !bytes.Equal(plain.Output, comp.Output) {
					t.Errorf("parallelism=%d: compression changed the output bytes", p)
				}
				want, got := logicalSide(plain.Stats.Snapshot()), logicalSide(comp.Stats.Snapshot())
				if !reflect.DeepEqual(got, want) {
					t.Errorf("parallelism=%d: compression moved the logical I/O counts\nplain:      %v\ncompressed: %v",
						p, want, got)
				}
				plainB, compB := spillPhysWriteBytes(plain), spillPhysWriteBytes(comp)
				if compB == 0 || compB*2 > plainB {
					t.Errorf("parallelism=%d: physical spill write bytes %d vs %d uncompressed; want at least a 2x reduction",
						p, compB, plainB)
				}
			}
		})
	}
}

// TestPartitionedMergeConformance is the range-partitioned-merge axis of
// the differential suite (DESIGN.md §17): partitioning the final merge by
// key range is a wall-clock optimization and nothing else. Against the
// plain serial sorter the output bytes must be identical and every
// logical ledger category except the fence-index side stream must be
// untouched; across partition counts the whole logical ledger — fence
// reads, splitter samples and partitioned-merge counts included — must
// not move at all, with or without spill compression. The merge-sort
// trials separately assert that a partitioned merge actually ran, so the
// invariance is never vacuously true.
func TestPartitionedMergeConformance(t *testing.T) {
	doc, _, err := chaostest.Doc(300, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	crit := keys.ByAttrOrTag("key")

	// logical projects a snapshot onto the counters that must be invariant
	// across partition counts: the logical block ledger plus the
	// partitioned-merge bookkeeping.
	logical := func(snap map[string]em.IOCount) map[string]em.IOCount {
		out := make(map[string]em.IOCount, len(snap))
		for k, c := range snap {
			out[k] = em.IOCount{
				Reads: c.Reads, Writes: c.Writes,
				ReadBytes: c.ReadBytes, WriteBytes: c.WriteBytes,
				PartitionedMerges: c.PartitionedMerges,
				SplitterSamples:   c.SplitterSamples,
			}
		}
		return out
	}
	// sansFence drops the fence-index category and the partitioned-merge
	// bookkeeping: what remains must match the plain serial sorter's
	// ledger exactly — partitioning may add its side stream but may not
	// move a single run or output block transfer.
	sansFence := func(snap map[string]em.IOCount) map[string]em.IOCount {
		out := make(map[string]em.IOCount, len(snap))
		for k, c := range snap {
			if k == em.CatFenceIndex.String() {
				continue
			}
			c.PartitionedMerges, c.SplitterSamples = 0, 0
			out[k] = c
		}
		return out
	}

	for _, compress := range []bool{false, true} {
		name := "plain"
		if compress {
			name = "compressed"
		}
		t.Run(name, func(t *testing.T) {
			for _, algo := range chaostest.Algorithms {
				env := diffEnv(24, 2)
				env.CompressSpill = compress
				serial := chaostest.Run(doc, crit, chaostest.Trial{Algorithm: algo, Env: env})
				if serial.PanicValue != nil || serial.Err != nil {
					t.Fatalf("%v serial: panic=%v err=%v", algo, serial.PanicValue, serial.Err)
				}
				serialIOs := logical(serial.Stats.Snapshot())

				var baseIOs map[string]em.IOCount // partitioned ledger at P=1
				for _, p := range parallelLevels {
					env := diffEnv(24, 2)
					env.CompressSpill = compress
					env.MergeParallel = p
					o := chaostest.Run(doc, crit, chaostest.Trial{Algorithm: algo, Env: env})
					if o.PanicValue != nil {
						t.Fatalf("%v P=%d: panic: %v", algo, p, o.PanicValue)
					}
					if o.Err != nil {
						t.Fatalf("%v P=%d: %v", algo, p, o.Err)
					}
					if o.BudgetInUse != 0 || o.FramesLive != 0 {
						t.Errorf("%v P=%d: leaked %d budget blocks, %d frames",
							algo, p, o.BudgetInUse, o.FramesLive)
					}
					if !bytes.Equal(o.Output, serial.Output) {
						t.Errorf("%v P=%d: output differs from the serial merge", algo, p)
					}
					got := logical(o.Stats.Snapshot())
					if algo == chaostest.MergeSort && o.Stats.TotalPartitionedMerges() == 0 {
						t.Errorf("%v P=%d: no partitioned merge ran — the conformance check is vacuous", algo, p)
					}
					if baseIOs == nil {
						baseIOs = got
					} else if !reflect.DeepEqual(got, baseIOs) {
						t.Errorf("%v P=%d: partition count moved the logical ledger\nP=1: %v\nP=%d: %v",
							algo, p, baseIOs, p, got)
					}
					if gotSerial := sansFence(got); !reflect.DeepEqual(gotSerial, serialIOs) {
						t.Errorf("%v P=%d: partitioning moved the non-fence ledger\nserial:      %v\npartitioned: %v",
							algo, p, serialIOs, gotSerial)
					}
				}
			}
		})
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
// Section 3.1 layout, whose dispatch admission reads the budget rather
// than the data stack's window.
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
