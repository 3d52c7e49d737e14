package extsort

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nexsort/internal/em"
)

// Engine-level tests of the error and Close paths: a spill failure must
// surface from the call that hit it, and Close must hand back every budget
// block whether or not Sort ran — no leaks, no double releases.

// faultEnv builds a sequential in-memory environment with an armable fault
// backend spliced beneath the accounting layers.
func faultEnv(t *testing.T, memBlocks int) (*em.Env, *em.FaultBackend) {
	t.Helper()
	var fb *em.FaultBackend
	env, err := em.NewEnv(em.Config{
		BlockSize:   256,
		MemBlocks:   memBlocks,
		Parallelism: 1,
		WrapBackend: func(b em.Backend) em.Backend {
			fb = em.NewFaultBackend(b)
			return fb
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	return env, fb
}

// addRecords feeds n deterministic pseudo-random records, stopping at the
// first Add error.
func addRecords(s *Sorter, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		rec := fmt.Sprintf("%08d-%06d", rng.Intn(1_000_000), i)
		if err := s.Add([]byte(rec)); err != nil {
			return err
		}
	}
	return nil
}

// TestWorkerFaultDrainsAndReleasesBudget arms a single write fault so that
// a run fails mid-spill, then checks the contract of the error path: the
// failure surfaces as the injected error from Add or Sort, Close does not
// panic, and afterwards not one budget block is still granted. (A double
// release would panic in Budget.Release, so InUse()==0 proves exactly-once
// accounting.) The name dates from the pipelined run formation, whose
// workers Close had to drain; the sorter now spills on its caller's
// goroutine, so one leg covers every parallelism.
func TestWorkerFaultDrainsAndReleasesBudget(t *testing.T) {
	sentinel := errors.New("injected spill failure")
	t.Run("parallelism=1", func(t *testing.T) {
		env, fb := faultEnv(t, 64)
		s, err := New(env, em.CatMergeRun, bytesCompare, 4)
		if err != nil {
			t.Fatal(err)
		}
		fb.FailWriteAfter(5, sentinel)

		addErr := addRecords(s, 2000, 7)
		var sortErr error
		if addErr == nil {
			var it *Iterator
			if it, sortErr = s.Sort(); sortErr == nil {
				it.Close()
			}
		}
		err = addErr
		if err == nil {
			err = sortErr
		}
		if err == nil {
			t.Fatal("armed write fault never surfaced from Add or Sort")
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("surfaced error %v, want the injected fault", err)
		}

		s.Close()
		s.Close() // idempotent, must not double-release
		if n := env.Budget.InUse(); n != 0 {
			t.Fatalf("%d budget blocks still granted after Close", n)
		}
	})
}

// TestCloseMidFlightReleasesBudget abandons the sorter after it has cut
// runs and while a batch is still buffered — the caller-gave-up path.
// Close without Sort must hand back every block.
func TestCloseMidFlightReleasesBudget(t *testing.T) {
	env, _ := faultEnv(t, 64)
	s, err := New(env, em.CatMergeRun, bytesCompare, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := addRecords(s, 2000, 11); err != nil {
		t.Fatal(err)
	}
	s.Close() // no Sort
	if n := env.Budget.InUse(); n != 0 {
		t.Fatalf("%d budget blocks still granted after mid-flight Close", n)
	}
}
