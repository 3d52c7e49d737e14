// Package chaostest is the seeded fault-injection harness for the
// hardened spill substrate. A Trial runs one full external sort — NEXSORT
// or the key-path merge-sort baseline — over a scratch device wrapped in
// an em.ChaosBackend, underneath whatever hardening (checksums, retry) the
// trial's em.Config selects. The harness captures everything the chaos
// invariant needs to be checked: the output bytes, the terminal error, any
// panic, the leaked-budget count after teardown, and the injector's
// per-kind fault tally.
//
// The invariant itself — "byte-identical output to the fault-free run, or
// a clean typed error; never silent corruption, never a panic, never a
// leaked scratch file or budget block" — is asserted by the top-level
// chaos soak test (chaos_test.go at the module root), which sweeps seeds
// and fault mixes through this package.
package chaostest

import (
	"bytes"
	"fmt"

	"nexsort/internal/core"
	"nexsort/internal/em"
	"nexsort/internal/extsort"
	"nexsort/internal/gen"
	"nexsort/internal/keys"
)

// Algorithm selects which external sorter a trial drives.
type Algorithm int

const (
	// Nexsort runs the paper's algorithm (core.Sort).
	Nexsort Algorithm = iota
	// MergeSort runs the key-path external merge-sort baseline
	// (extsort.SortXML).
	MergeSort
)

// String names the algorithm for trial logs.
func (a Algorithm) String() string {
	if a == Nexsort {
		return "nexsort"
	}
	return "mergesort"
}

// Algorithms lists both sorters, for trial matrices.
var Algorithms = []Algorithm{Nexsort, MergeSort}

// Doc deterministically generates a test document with the given element
// count, fanout cap and seed, returning its bytes.
func Doc(elements int64, maxFan int, seed int64) ([]byte, gen.Stats, error) {
	spec := gen.CappedShape(elements, maxFan)
	spec.Seed = seed
	var buf bytes.Buffer
	stats, err := spec.Write(&buf)
	return buf.Bytes(), stats, err
}

// Trial describes one chaos run: the sorter, the environment (block size,
// memory budget, scratch placement, hardening layers) and the fault mix.
type Trial struct {
	Algorithm Algorithm
	Env       em.Config
	Chaos     em.ChaosConfig
}

// Outcome captures what one trial did. Exactly one of Output/Err/Panic is
// the headline result: a nil Err with nil PanicValue means the sort claims
// success and Output holds the full document it produced.
type Outcome struct {
	// Output is the produced document (complete only when Err and
	// PanicValue are both nil).
	Output []byte
	// Err is the sort's terminal error, nil on claimed success.
	Err error
	// PanicValue is non-nil if the sort panicked; the harness recovers
	// so the soak test can report the seed instead of dying.
	PanicValue any
	// BudgetInUse is the number of memory-budget blocks still granted
	// after the sort returned — any nonzero value is a leak.
	BudgetInUse int
	// FramesLive is the number of pooled block frames still pinned after
	// the sort returned — any nonzero value means an error path dropped a
	// frame instead of releasing it.
	FramesLive int
	// Injected is the chaos backend's per-kind fault tally.
	Injected map[string]int64
	// Stats is the environment's I/O accounting (retries, checksum
	// failures, per-category transfers).
	Stats *em.Stats
}

// Faulted reports whether the injector actually fired during the trial;
// trials where no fault landed are vacuous and soak tests may skip their
// stricter assertions.
func (o *Outcome) Faulted() bool {
	for _, n := range o.Injected {
		if n > 0 {
			return true
		}
	}
	return false
}

// Run executes one trial of the given document. The chaos backend is
// spliced in via Env.WrapBackend, beneath the hardening layers, exactly
// where a faulty physical device would sit. Panics from the sort are
// recovered into Outcome.PanicValue. The environment is always closed
// before Run returns, so file-backed trials can check for scratch leaks by
// counting directory entries afterwards.
func Run(doc []byte, crit *keys.Criterion, t Trial) *Outcome {
	out := &Outcome{}
	cfg := t.Env
	var chaos *em.ChaosBackend
	if t.Chaos.Active() {
		chaosCfg := t.Chaos
		cfg.WrapBackend = func(b em.Backend) em.Backend {
			chaos = em.NewChaosBackend(b, chaosCfg)
			return chaos
		}
	}
	env, err := em.NewEnv(cfg)
	if err != nil {
		out.Err = fmt.Errorf("chaostest: env: %w", err)
		return out
	}
	defer env.Close()
	out.Stats = env.Stats

	var buf bytes.Buffer
	out.Err = runRecovered(env, t.Algorithm, crit, doc, &buf, out)
	if out.Err == nil && out.PanicValue == nil {
		out.Output = buf.Bytes()
	}
	out.BudgetInUse = env.Budget.InUse()
	out.FramesLive = env.Dev.Frames().Live()
	if chaos != nil {
		out.Injected = chaos.Injected()
	} else {
		out.Injected = map[string]int64{}
	}
	return out
}

// runRecovered drives the selected sorter, converting panics into
// Outcome.PanicValue instead of unwinding through the harness.
func runRecovered(env *em.Env, algo Algorithm, crit *keys.Criterion, doc []byte, buf *bytes.Buffer, out *Outcome) (err error) {
	defer func() {
		if r := recover(); r != nil {
			out.PanicValue = r
		}
	}()
	switch algo {
	case Nexsort:
		_, err = core.Sort(env, bytes.NewReader(doc), buf, core.Options{Criterion: crit})
	default:
		_, err = extsort.SortXML(env, crit, bytes.NewReader(doc), buf, extsort.XMLOptions{})
	}
	return err
}

// Baseline runs the trial's algorithm fault-free under the same
// environment shape and returns the expected output bytes. It panics on
// any failure: a broken fault-free run means the trial matrix itself is
// misconfigured, not that chaos found a bug.
func Baseline(doc []byte, crit *keys.Criterion, algo Algorithm, envCfg em.Config) []byte {
	o := Run(doc, crit, Trial{Algorithm: algo, Env: envCfg})
	if o.PanicValue != nil {
		panic(fmt.Sprintf("chaostest: fault-free %v baseline panicked: %v", algo, o.PanicValue))
	}
	if o.Err != nil {
		panic(fmt.Sprintf("chaostest: fault-free %v baseline failed: %v", algo, o.Err))
	}
	if o.BudgetInUse != 0 {
		panic(fmt.Sprintf("chaostest: fault-free %v baseline leaked %d budget blocks", algo, o.BudgetInUse))
	}
	if o.FramesLive != 0 {
		panic(fmt.Sprintf("chaostest: fault-free %v baseline leaked %d frames", algo, o.FramesLive))
	}
	return o.Output
}
