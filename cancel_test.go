package nexsort_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nexsort"
	"nexsort/internal/core"
	"nexsort/internal/em"
	"nexsort/internal/em/chaostest"
	"nexsort/internal/keys"
)

// The cancel-anywhere soak: for every trigger point N across a full run's
// device operations, cancel the context at the Nth operation and assert
// the lifecycle contract — the sort stops within K further device
// operations, fails with an error matching context.Canceled, releases
// every frame and budget block, leaves no scratch behind, and a clean
// re-run afterwards is byte-identical with unchanged per-category I/O
// counts. The exhaustion variant slams the scratch device shut at the Nth
// operation instead and demands ErrScratchExhausted or a clean identical
// run (a sort past its last spill write no longer needs scratch space).

// cancelEnv is the chaos soak's environment shape: heavy spilling, full
// hardening, explicit parallelism.
func cancelEnv(parallelism int) em.Config {
	return em.Config{
		BlockSize:       512,
		MemBlocks:       16,
		VerifyChecksums: true,
		Retry:           em.RetryPolicy{MaxRetries: 6, RetryCorruptReads: true},
		Parallelism:     parallelism,
	}
}

// promptnessBound is K: the most device operations a run may perform at or
// after the trigger. The trigger fires inside an operation that already
// passed the device's lifecycle gate, and each of the other goroutines
// (the scanner plus parallelism-1 pool workers) may have one more
// operation in flight past the gate when cancellation becomes visible —
// so the true bound is about parallelism ops; 2p+4 leaves slack without
// ever masking a polling gap, which shows up as hundreds of extra ops,
// not single digits.
func promptnessBound(parallelism int) int64 {
	return int64(2*parallelism + 4)
}

func TestCancelAnywhereSoak(t *testing.T) {
	doc, stats, err := chaostest.Doc(400, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("document: %d elements, %d bytes", stats.Elements, stats.Bytes)
	crit := keys.ByAttrOrTag("key")

	totalTrials, totalCanceled := 0, int64(0)
	for _, algo := range chaostest.Algorithms {
		for _, p := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%v/p%d", algo, p), func(t *testing.T) {
				env := cancelEnv(p)
				clean := chaostest.RunCancel(doc, crit, chaostest.CancelTrial{
					Algorithm: algo, Env: env,
				})
				if clean.Err != nil || clean.PanicValue != nil {
					t.Fatalf("clean run failed: err=%v panic=%v", clean.Err, clean.PanicValue)
				}
				if clean.Fired {
					t.Fatal("clean run claims the trigger fired")
				}
				total := clean.TotalOps
				if total < 20 {
					t.Fatalf("clean run performed only %d device ops; workload too small to soak", total)
				}

				// Sweep trigger points across the whole run. The stride
				// keeps the soak's wall-clock bounded while still landing
				// triggers in every phase (scan, run formation, merge
				// passes, output); N=1 and N=total pin both edges.
				stride := total / 40
				if testing.Short() {
					stride = total / 10
				}
				if stride < 1 {
					stride = 1
				}
				k := promptnessBound(p)
				canceled := 0
				for n := int64(1); n <= total; n += stride {
					for _, trigger := range []int64{n, total} {
						o := chaostest.RunCancel(doc, crit, chaostest.CancelTrial{
							Algorithm: algo, Env: env, TriggerOp: trigger, Mode: chaostest.ModeCancel,
						})
						totalTrials++
						if o.PanicValue != nil {
							t.Fatalf("N=%d: sort panicked: %v", trigger, o.PanicValue)
						}
						if o.BudgetInUse != 0 || o.FramesLive != 0 {
							t.Fatalf("N=%d: leak after unwind: %d budget blocks, %d frames (err=%v)",
								trigger, o.BudgetInUse, o.FramesLive, o.Err)
						}
						if !o.Fired {
							t.Fatalf("N=%d <= total=%d but the trigger never fired (err=%v)",
								trigger, total, o.Err)
						}
						if o.Err == nil {
							t.Fatalf("N=%d: sort claims success after its context was canceled", trigger)
						}
						if !errors.Is(o.Err, context.Canceled) {
							t.Fatalf("N=%d: error does not match context.Canceled: %v", trigger, o.Err)
						}
						if after := o.OpsAfterTrigger(chaostest.CancelTrial{TriggerOp: trigger}); after > k {
							t.Fatalf("N=%d: %d device ops at or after the trigger, bound is %d",
								trigger, after, k)
						}
						canceled++
						totalCanceled += o.Stats.TotalCanceled()
						if trigger == total {
							break // the edge case is the same for every n
						}
					}
				}
				if canceled == 0 {
					t.Fatal("soak ran no fired trials")
				}

				// A clean re-run after the storm must be oblivious to it:
				// byte-identical output, identical operation count,
				// identical per-category I/O accounting.
				rerun := chaostest.RunCancel(doc, crit, chaostest.CancelTrial{
					Algorithm: algo, Env: env,
				})
				if rerun.Err != nil || rerun.PanicValue != nil {
					t.Fatalf("re-run failed: err=%v panic=%v", rerun.Err, rerun.PanicValue)
				}
				if !bytes.Equal(rerun.Output, clean.Output) {
					t.Fatal("re-run output differs from the pre-soak clean run")
				}
				if rerun.TotalOps != total {
					t.Fatalf("re-run performed %d device ops, clean run %d", rerun.TotalOps, total)
				}
				if !reflect.DeepEqual(rerun.Stats.Snapshot(), clean.Stats.Snapshot()) {
					t.Fatalf("re-run I/O accounting differs:\nclean: %v\nrerun: %v",
						clean.Stats.Snapshot(), rerun.Stats.Snapshot())
				}
				t.Logf("p=%d: %d ops per clean run, %d cancel trials, K=%d", p, total, canceled, k)
			})
		}
	}
	if totalCanceled == 0 {
		t.Error("no trial observed a refused device operation; the device gate never fired")
	}
	t.Logf("cancel soak: %d fired trials, %d refused device ops counted", totalTrials, totalCanceled)
}

// TestExhaustAnywhereSoak slams the scratch device shut at the Nth
// operation: every later write fails with ENOSPC-like exhaustion. The
// sort must either fail with the typed ErrScratchExhausted (leak-free) or
// — when the trigger lands after its last scratch write — complete with
// byte-identical output, the same operation count and the same ledger.
func TestExhaustAnywhereSoak(t *testing.T) {
	doc, _, err := chaostest.Doc(400, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	crit := keys.ByAttrOrTag("key")

	for _, algo := range chaostest.Algorithms {
		for _, p := range []int{1, 8} {
			t.Run(fmt.Sprintf("%v/p%d", algo, p), func(t *testing.T) {
				env := cancelEnv(p)
				clean := chaostest.RunCancel(doc, crit, chaostest.CancelTrial{Algorithm: algo, Env: env})
				if clean.Err != nil {
					t.Fatalf("clean run failed: %v", clean.Err)
				}
				total := clean.TotalOps
				wantIOs := clean.Stats.Snapshot()

				stride := total / 20
				if stride < 1 {
					stride = 1
				}
				var failed, completed, exhaustCounted int
				for n := int64(1); n <= total; n += stride {
					o := chaostest.RunCancel(doc, crit, chaostest.CancelTrial{
						Algorithm: algo, Env: env, TriggerOp: n, Mode: chaostest.ModeExhaust,
					})
					if o.PanicValue != nil {
						t.Fatalf("N=%d: sort panicked: %v", n, o.PanicValue)
					}
					if !o.Fired {
						t.Fatalf("N=%d <= total=%d but the trigger never fired (err=%v)", n, total, o.Err)
					}
					if o.BudgetInUse != 0 || o.FramesLive != 0 {
						t.Fatalf("N=%d: leak after unwind: %d budget blocks, %d frames (err=%v)",
							n, o.BudgetInUse, o.FramesLive, o.Err)
					}
					switch {
					case o.Err == nil:
						completed++
						if !bytes.Equal(o.Output, clean.Output) {
							t.Fatalf("N=%d: exhaustion trial completed with wrong bytes", n)
						}
						if o.TotalOps != total {
							t.Fatalf("N=%d: completed trial performed %d device ops, clean run %d", n, o.TotalOps, total)
						}
						if got := o.Stats.Snapshot(); !reflect.DeepEqual(got, wantIOs) {
							t.Fatalf("N=%d: completed trial's I/O accounting differs:\nclean: %v\ntrial: %v", n, wantIOs, got)
						}
					case em.IsExhausted(o.Err):
						failed++
						if em.Classify(o.Err) != em.ClassExhausted {
							t.Fatalf("N=%d: exhaustion error classified as %v", n, em.Classify(o.Err))
						}
						if o.Stats.TotalExhausted() > 0 {
							exhaustCounted++
						}
					default:
						t.Fatalf("N=%d: untyped error %v", n, o.Err)
					}
				}
				if failed == 0 {
					t.Error("no trial surfaced ErrScratchExhausted")
				}
				if exhaustCounted == 0 {
					t.Error("no failed trial counted an exhausted write in its stats")
				}

				rerun := chaostest.RunCancel(doc, crit, chaostest.CancelTrial{Algorithm: algo, Env: env})
				if rerun.Err != nil || !bytes.Equal(rerun.Output, clean.Output) {
					t.Fatalf("re-run after the sweep failed or differs: err=%v", rerun.Err)
				}
				if rerun.TotalOps != total {
					t.Fatalf("re-run performed %d device ops, clean run %d", rerun.TotalOps, total)
				}
				if got := rerun.Stats.Snapshot(); !reflect.DeepEqual(got, wantIOs) {
					t.Fatalf("re-run I/O accounting differs:\nclean: %v\nrerun: %v", wantIOs, got)
				}
				t.Logf("p=%d: %d exhausted with typed error, %d completed past their last write",
					p, failed, completed)
			})
		}
	}
}

// TestCancelScratchClean runs file-backed cancel trials and checks that
// whatever the trigger point, Env.Close leaves the scratch directory
// exactly as it found it.
func TestCancelScratchClean(t *testing.T) {
	doc, _, err := chaostest.Doc(400, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	crit := keys.ByAttrOrTag("key")
	dir := t.TempDir()

	for _, algo := range chaostest.Algorithms {
		env := cancelEnv(2)
		env.ScratchDir = dir
		clean := chaostest.RunCancel(doc, crit, chaostest.CancelTrial{Algorithm: algo, Env: env})
		if clean.Err != nil {
			t.Fatalf("clean run failed: %v", clean.Err)
		}
		for _, frac := range []int64{8, 4, 2, 1} {
			n := clean.TotalOps / frac
			if n < 1 {
				n = 1
			}
			before := dirEntries(t, dir)
			o := chaostest.RunCancel(doc, crit, chaostest.CancelTrial{
				Algorithm: algo, Env: env, TriggerOp: n, Mode: chaostest.ModeCancel,
			})
			if o.PanicValue != nil {
				t.Fatalf("%v N=%d: panicked: %v", algo, n, o.PanicValue)
			}
			if o.Fired && !errors.Is(o.Err, context.Canceled) {
				t.Fatalf("%v N=%d: error does not match context.Canceled: %v", algo, n, o.Err)
			}
			if after := dirEntries(t, dir); after != before {
				t.Fatalf("%v N=%d: scratch leak: %d entries before, %d after", algo, n, before, after)
			}
		}
	}
}

// TestDeadlinePropagation checks that an expired deadline surfaces as
// context.DeadlineExceeded — via errors.Is — from every public entry
// point, and that a deadline landing mid-sort unwinds the NEXSORT core
// (including its paged stacks) leak-free.
func TestDeadlinePropagation(t *testing.T) {
	doc, _, err := chaostest.Doc(120, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	crit := nexsort.ByAttrOrTag("key")
	cfg := nexsort.Config{BlockSize: 512, MemoryBytes: 16 * 512, InMemory: true}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()

	t.Run("sort", func(t *testing.T) {
		for _, algo := range []nexsort.Algorithm{nexsort.NEXSORT, nexsort.MergeSort, nexsort.InMemory} {
			_, err := nexsort.SortContext(expired, bytes.NewReader(doc), io.Discard, cfg,
				nexsort.Options{Criterion: crit, Algorithm: algo})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%v: error does not match context.DeadlineExceeded: %v", algo, err)
			}
		}
	})

	t.Run("merge", func(t *testing.T) {
		sorted := sortedDocForMerge(t, doc, crit, cfg)
		if _, err := nexsort.MergeContext(expired, bytes.NewReader(sorted), bytes.NewReader(sorted),
			crit, io.Discard, nexsort.MergeOptions{}); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("MergeContext: error does not match context.DeadlineExceeded: %v", err)
		}
		if _, err := nexsort.ApplyUpdatesContext(expired, bytes.NewReader(sorted), bytes.NewReader(sorted),
			crit, io.Discard, ""); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("ApplyUpdatesContext: error does not match context.DeadlineExceeded: %v", err)
		}
		if _, _, _, err := nexsort.SortAndMergeContext(expired, bytes.NewReader(doc), bytes.NewReader(doc),
			crit, io.Discard, cfg, nexsort.MergeOptions{}); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("SortAndMergeContext: error does not match context.DeadlineExceeded: %v", err)
		}
	})

	// Mid-run deadline through the core sorter: re-sort under one short
	// deadline until it lands (the first iterations may finish before it
	// expires; the one that does not must unwind leak-free with the typed
	// error). MemBlocks 16 at 512-byte blocks pages the path and data
	// stacks through the device, so the unwind crosses xstack too.
	t.Run("mid-run", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		bigDoc, _, err := chaostest.Doc(800, 5, 11)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			env, err := em.NewEnvContext(ctx, cancelEnv(2))
			if err != nil {
				t.Fatal(err)
			}
			_, sortErr := core.Sort(env, bytes.NewReader(bigDoc), io.Discard,
				core.Options{Criterion: keys.ByAttrOrTag("key")})
			if live := env.Dev.Frames().Live(); live != 0 {
				t.Fatalf("iteration %d: %d frames live after sort (err=%v)", i, live, sortErr)
			}
			if inUse := env.Budget.InUse(); inUse != 0 {
				t.Fatalf("iteration %d: %d budget blocks in use after sort (err=%v)", i, inUse, sortErr)
			}
			env.Close()
			if sortErr != nil {
				if !errors.Is(sortErr, context.DeadlineExceeded) {
					t.Fatalf("iteration %d: error does not match context.DeadlineExceeded: %v", i, sortErr)
				}
				t.Logf("deadline landed on iteration %d", i)
				return
			}
		}
	})
}

// sortedDocForMerge sorts doc once (no context) so the merge tests have a
// legitimately sorted input.
func sortedDocForMerge(t *testing.T, doc []byte, crit *nexsort.Criterion, cfg nexsort.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := nexsort.Sort(bytes.NewReader(doc), &buf, cfg, nexsort.Options{Criterion: crit}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCancelRemovesPartialOutputFiles is the regression for the
// no-partial-output guarantee on the cancellation path: a canceled
// SortFileContext / MergeFilesContext must remove whatever it wrote, so
// the output path either holds a complete document or does not exist.
func TestCancelRemovesPartialOutputFiles(t *testing.T) {
	doc, _, err := chaostest.Doc(120, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	crit := nexsort.ByAttrOrTag("key")
	cfg := nexsort.Config{BlockSize: 512, MemoryBytes: 16 * 512, InMemory: true}
	dir := t.TempDir()

	inPath := filepath.Join(dir, "in.xml")
	if err := os.WriteFile(inPath, doc, 0o644); err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	t.Run("sortfile", func(t *testing.T) {
		outPath := filepath.Join(dir, "sorted.xml")
		_, err := nexsort.SortFileContext(canceled, inPath, outPath, cfg, nexsort.Options{Criterion: crit})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error does not match context.Canceled: %v", err)
		}
		if _, statErr := os.Stat(outPath); !errors.Is(statErr, os.ErrNotExist) {
			t.Fatalf("partial output left behind: stat err=%v", statErr)
		}
	})

	t.Run("mergefiles", func(t *testing.T) {
		sorted := sortedDocForMerge(t, doc, crit, cfg)
		sortedPath := filepath.Join(dir, "sorted-input.xml")
		if err := os.WriteFile(sortedPath, sorted, 0o644); err != nil {
			t.Fatal(err)
		}
		outPath := filepath.Join(dir, "merged.xml")
		_, err := nexsort.MergeFilesContext(canceled, sortedPath, sortedPath, outPath, crit, nexsort.MergeOptions{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error does not match context.Canceled: %v", err)
		}
		if _, statErr := os.Stat(outPath); !errors.Is(statErr, os.ErrNotExist) {
			t.Fatalf("partial output left behind: stat err=%v", statErr)
		}
	})
}
