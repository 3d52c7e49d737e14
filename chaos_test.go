package nexsort_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/em/chaostest"
	"nexsort/internal/keys"
)

// The chaos soak: both external sorters, over a hundred seeded trials of
// probabilistic device faults, with one invariant — the sort either
// produces output byte-identical to the fault-free run or fails with a
// clean typed error. Never silent corruption, never a panic, never a
// leaked budget block or scratch file.

// chaosEnv is the trial environment shape: blocks small enough that a
// few-hundred-element document spills heavily, memory at NEXSORT's
// documented floor plus slack, full hardening on, and an explicit worker
// pool size, so the soak exercises the sequential and the concurrent paths
// whatever the host's CPU count. The invariant "byte-identical output or a
// clean typed error, never a panic or a leaked budget block" is
// parallelism-independent, and so is the fault-free output.
func chaosEnv(parallelism int) em.Config {
	return em.Config{
		BlockSize:       512,
		MemBlocks:       16,
		VerifyChecksums: true,
		Retry:           em.RetryPolicy{MaxRetries: 6, RetryCorruptReads: true},
		Parallelism:     parallelism,
	}
}

// chaosLeg is one algorithm at one worker-pool size. Every group runs each
// of its seeds on every leg: both algorithms at P ∈ {1, 2, 8}, the sweep
// the cancel soak and paralleldiff use.
type chaosLeg struct {
	algo chaostest.Algorithm
	p    int
}

func (l chaosLeg) String() string { return fmt.Sprintf("%v/p%d", l.algo, l.p) }

func chaosLegs() []chaosLeg {
	var legs []chaosLeg
	for _, algo := range chaostest.Algorithms {
		for _, p := range []int{1, 2, 8} {
			legs = append(legs, chaosLeg{algo, p})
		}
	}
	return legs
}

// cleanlyTyped reports whether a trial error is one of the failure model's
// typed outcomes: corruption detected by checksums, a transient fault that
// outlived the retry budget, or an injected permanent device error.
func cleanlyTyped(err error) bool {
	return em.IsCorrupt(err) || em.IsTransient(err) || errors.Is(err, em.ErrChaosPermanent)
}

// chaosTrial runs one trial and enforces the unconditional parts of the
// invariant (no panic, no budget leak), returning the outcome for the
// group-specific assertions.
func chaosTrial(t *testing.T, doc []byte, crit *keys.Criterion, tr chaostest.Trial) *chaostest.Outcome {
	t.Helper()
	o := chaostest.Run(doc, crit, tr)
	if o.PanicValue != nil {
		t.Fatalf("%v/p%d seed=%d: sort panicked: %v\ninjected: %v",
			tr.Algorithm, tr.Env.Parallelism, tr.Chaos.Seed, o.PanicValue, o.Injected)
	}
	if o.BudgetInUse != 0 {
		t.Errorf("%v/p%d seed=%d: %d budget blocks leaked (err=%v, injected=%v)",
			tr.Algorithm, tr.Env.Parallelism, tr.Chaos.Seed, o.BudgetInUse, o.Err, o.Injected)
	}
	if o.FramesLive != 0 {
		t.Errorf("%v/p%d seed=%d: %d pooled frames leaked (err=%v, injected=%v)",
			tr.Algorithm, tr.Env.Parallelism, tr.Chaos.Seed, o.FramesLive, o.Err, o.Injected)
	}
	return o
}

func TestChaosSoak(t *testing.T) {
	doc, stats, err := chaostest.Doc(400, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("document: %d elements, %d bytes, height %d", stats.Elements, stats.Bytes, stats.Height)
	crit := keys.ByAttrOrTag("key")

	want := map[chaostest.Algorithm][]byte{}
	for _, algo := range chaostest.Algorithms {
		want[algo] = chaostest.Baseline(doc, crit, algo, chaosEnv(1))
	}
	legs := chaosLegs()
	for _, leg := range legs {
		if !bytes.Equal(chaostest.Baseline(doc, crit, leg.algo, chaosEnv(leg.p)), want[leg.algo]) {
			t.Fatalf("%v: fault-free output differs from the P=1 run", leg)
		}
	}
	if !bytes.Equal(want[chaostest.Nexsort], want[chaostest.MergeSort]) {
		t.Fatal("fault-free baselines disagree between algorithms")
	}

	trials := 0
	groupsRun := 0
	injected := map[string]int64{}
	note := func(o *chaostest.Outcome) {
		trials++
		for k, v := range o.Injected {
			injected[k] += v
		}
	}

	// Group 1 — transient-only faults under retry. The consecutive-fault
	// cap sits below the retry budget, so every operation eventually goes
	// through: the sort must succeed with byte-identical output, and the
	// retries must show up in the stats.
	t.Run("transient", func(t *testing.T) {
		groupsRun++
		var faulted, retried int
		for seed := int64(1); seed <= 15; seed++ {
			for _, leg := range legs {
				tr := chaostest.Trial{Algorithm: leg.algo, Env: chaosEnv(leg.p), Chaos: em.ChaosConfig{
					Seed:               seed,
					ReadTransientProb:  0.02,
					WriteTransientProb: 0.02,
					ShortWriteProb:     0.01,
					MaxConsecutive:     4,
				}}
				o := chaosTrial(t, doc, crit, tr)
				note(o)
				if o.Err != nil {
					t.Fatalf("%v seed=%d: transient-only trial failed: %v (injected %v)",
						leg, seed, o.Err, o.Injected)
				}
				if !bytes.Equal(o.Output, want[leg.algo]) {
					t.Fatalf("%v seed=%d: output differs from fault-free run (injected %v)",
						leg, seed, o.Injected)
				}
				if o.Faulted() {
					faulted++
					if o.Stats.TotalRetries() == 0 {
						t.Errorf("%v seed=%d: faults injected but no retries counted", leg, seed)
					} else {
						retried++
					}
				}
			}
		}
		if faulted == 0 {
			t.Error("no transient trial injected a fault; probabilities too low to test anything")
		}
		t.Logf("transient: %d/%d trials faulted, %d surfaced retries in stats", faulted, 15*len(legs), retried)
	})

	// Group 2 — at-rest corruption: bit flips written to the device and
	// torn writes that report success. Only the checksum layer can see
	// these, and only on the next read of the block — so a trial either
	// never rereads a damaged block (identical output) or surfaces the
	// typed corruption error. A clean run with different bytes is the
	// silent corruption the whole substrate exists to prevent.
	t.Run("at-rest-corruption", func(t *testing.T) {
		groupsRun++
		var detected int
		for seed := int64(1); seed <= 15; seed++ {
			for _, leg := range legs {
				tr := chaostest.Trial{Algorithm: leg.algo, Env: chaosEnv(leg.p), Chaos: em.ChaosConfig{
					Seed:             seed,
					WriteBitFlipProb: 0.01,
					TornWriteProb:    0.01,
				}}
				o := chaosTrial(t, doc, crit, tr)
				note(o)
				switch {
				case o.Err == nil:
					if !bytes.Equal(o.Output, want[leg.algo]) {
						t.Fatalf("%v seed=%d: SILENT CORRUPTION: clean run, wrong bytes (injected %v)",
							leg, seed, o.Injected)
					}
				case em.IsCorrupt(o.Err):
					detected++
					if o.Stats.TotalChecksumFailures() == 0 {
						t.Errorf("%v seed=%d: corrupt error but no checksum failures counted", leg, seed)
					}
				default:
					t.Fatalf("%v seed=%d: untyped error %v (injected %v)", leg, seed, o.Err, o.Injected)
				}
			}
		}
		if detected == 0 {
			t.Error("no at-rest trial surfaced a corruption error; injector never hit a reread block")
		}
		t.Logf("at-rest: %d/%d trials detected corruption via checksums", detected, 15*len(legs))
	})

	// Group 3 — in-transit read corruption. A reread returns clean bytes,
	// so with checksums catching the damage and RetryCorruptReads
	// rereading (cap below the budget again), every trial must heal to
	// byte-identical output.
	t.Run("in-transit-read", func(t *testing.T) {
		groupsRun++
		var healed int
		for seed := int64(1); seed <= 10; seed++ {
			for _, leg := range legs {
				tr := chaostest.Trial{Algorithm: leg.algo, Env: chaosEnv(leg.p), Chaos: em.ChaosConfig{
					Seed:            seed,
					ReadBitFlipProb: 0.03,
					MaxConsecutive:  4,
				}}
				o := chaosTrial(t, doc, crit, tr)
				note(o)
				if o.Err != nil {
					t.Fatalf("%v seed=%d: in-transit trial failed: %v (injected %v)",
						leg, seed, o.Err, o.Injected)
				}
				if !bytes.Equal(o.Output, want[leg.algo]) {
					t.Fatalf("%v seed=%d: output differs after in-transit corruption (injected %v)",
						leg, seed, o.Injected)
				}
				if o.Injected["read-bitflip"] > 0 {
					healed++
					if o.Stats.TotalChecksumFailures() == 0 {
						t.Errorf("%v seed=%d: bit flips injected but no checksum failures counted", leg, seed)
					}
				}
			}
		}
		if healed == 0 {
			t.Error("no in-transit trial injected a read bit flip")
		}
		t.Logf("in-transit: %d/%d trials healed read corruption", healed, 10*len(legs))
	})

	// Group 4 — the full mix, including unretryable permanent errors.
	// Success must mean identical bytes; failure must carry one of the
	// failure model's types.
	t.Run("mixed", func(t *testing.T) {
		groupsRun++
		var failed int
		for seed := int64(1); seed <= 10; seed++ {
			for _, leg := range legs {
				tr := chaostest.Trial{Algorithm: leg.algo, Env: chaosEnv(leg.p), Chaos: em.ChaosConfig{
					Seed:               seed,
					ReadPermanentProb:  0.002,
					WritePermanentProb: 0.002,
					ReadTransientProb:  0.01,
					WriteTransientProb: 0.01,
					ReadBitFlipProb:    0.01,
					WriteBitFlipProb:   0.005,
					TornWriteProb:      0.005,
					ShortWriteProb:     0.005,
					MaxConsecutive:     4,
				}}
				o := chaosTrial(t, doc, crit, tr)
				note(o)
				switch {
				case o.Err == nil:
					if !bytes.Equal(o.Output, want[leg.algo]) {
						t.Fatalf("%v seed=%d: SILENT CORRUPTION under mixed faults (injected %v)",
							leg, seed, o.Injected)
					}
				case cleanlyTyped(o.Err):
					failed++
				default:
					t.Fatalf("%v seed=%d: untyped error %v (injected %v)", leg, seed, o.Err, o.Injected)
				}
			}
		}
		t.Logf("mixed: %d/%d trials failed with a typed error", failed, 10*len(legs))
	})

	// Group 5 — file-backed trials under the full mix: whatever happens
	// to the sort, Env.Close must leave the scratch directory exactly as
	// it found it. A leftover file after a faulted run is a scratch leak.
	t.Run("file-backed", func(t *testing.T) {
		groupsRun++
		dir := t.TempDir()
		for seed := int64(1); seed <= 5; seed++ {
			for _, leg := range legs {
				before := dirEntries(t, dir)
				env := chaosEnv(leg.p)
				env.ScratchDir = dir
				tr := chaostest.Trial{Algorithm: leg.algo, Env: env, Chaos: em.ChaosConfig{
					Seed:               seed,
					ReadPermanentProb:  0.002,
					WritePermanentProb: 0.002,
					ReadTransientProb:  0.01,
					WriteTransientProb: 0.01,
					WriteBitFlipProb:   0.005,
					TornWriteProb:      0.005,
					MaxConsecutive:     4,
				}}
				o := chaosTrial(t, doc, crit, tr)
				note(o)
				switch {
				case o.Err == nil:
					if !bytes.Equal(o.Output, want[leg.algo]) {
						t.Fatalf("%v seed=%d: SILENT CORRUPTION on file backend (injected %v)",
							leg, seed, o.Injected)
					}
				case !cleanlyTyped(o.Err):
					t.Fatalf("%v seed=%d: untyped error %v (injected %v)", leg, seed, o.Err, o.Injected)
				}
				after := dirEntries(t, dir)
				if after != before {
					t.Fatalf("%v seed=%d: scratch leak: %d dir entries before trial, %d after (err=%v)",
						leg, seed, before, after, o.Err)
				}
			}
		}
	})

	t.Logf("chaos soak: %d trials across %d groups, injected faults: %v", trials, groupsRun, injected)
	// The floor applies to the full soak; a -run filter that selects a
	// subset of the groups skips it.
	if groupsRun == 5 && trials < 100 {
		t.Errorf("soak ran %d trials, want at least 100", trials)
	}
}

// dirEntries counts entries in dir, for scratch-leak accounting.
func dirEntries(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}
