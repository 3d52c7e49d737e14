package chaostest

import (
	"bytes"
	"context"
	"fmt"

	"nexsort/internal/em"
	"nexsort/internal/keys"
)

// CancelMode selects what fires at the trigger point of a cancel trial.
type CancelMode int

const (
	// ModeCancel cancels the run's context at the Nth device operation:
	// the cancel-anywhere soak.
	ModeCancel CancelMode = iota
	// ModeExhaust exhausts the scratch device at the Nth operation: every
	// later spill write fails with ErrScratchExhausted, as if the volume
	// filled mid-run.
	ModeExhaust
)

// String names the mode for trial logs.
func (m CancelMode) String() string {
	if m == ModeCancel {
		return "cancel"
	}
	return "exhaust"
}

// CancelTrial describes one cancel-anywhere run: the sorter, the
// environment, the operation index at which the trigger fires, and what
// it fires.
type CancelTrial struct {
	Algorithm Algorithm
	Env       em.Config
	// TriggerOp fires the trigger when the scratch backend performs its
	// TriggerOp'th operation (1-based), before that operation reaches the
	// store. Zero or negative never fires — a clean run, which is how the
	// soak measures a trial shape's total operation count and baseline
	// output.
	TriggerOp int64
	Mode      CancelMode
}

// CancelOutcome captures what one cancel trial did.
type CancelOutcome struct {
	// Output is the produced document (complete only when Err and
	// PanicValue are both nil).
	Output []byte
	// Err is the sort's terminal error, nil on claimed success.
	Err error
	// PanicValue is non-nil if the sort panicked.
	PanicValue any
	// BudgetInUse and FramesLive are the leak counters after the sort
	// returned; any nonzero value means an unwind path lost track of
	// memory.
	BudgetInUse int
	FramesLive  int
	// TotalOps is the number of operations the scratch backend performed
	// over the whole run, counted below the device's lifecycle gate —
	// refused operations never reach the backend, so TotalOps-TriggerOp
	// on a fired trial is exactly the work done after the trigger.
	TotalOps int64
	// Fired reports whether the trigger actually fired (a trial whose
	// TriggerOp exceeds the run's operation count completes cleanly).
	Fired bool
	// Stats is the environment's I/O accounting.
	Stats *em.Stats
}

// OpsAfterTrigger returns how many backend operations the run performed
// at or after the trigger point — the promptness measure the soak bounds
// by K. Zero when the trigger never fired.
func (o *CancelOutcome) OpsAfterTrigger(t CancelTrial) int64 {
	if !o.Fired {
		return 0
	}
	// The firing operation itself is included: the trigger fires before
	// op TriggerOp reaches the store.
	return o.TotalOps - t.TriggerOp + 1
}

// RunCancel executes one cancel-anywhere trial. The trigger is spliced in
// via Env.WrapBackend as an op-counting layer over the raw store (plus,
// for ModeExhaust, a capacity layer it can slam shut), underneath
// checksum and retry, so the operation count is deterministic for a given
// document, environment shape and algorithm — the same property the I/O
// accounting already guarantees. The run's context lives exactly as long
// as the call.
//
// This is the one place in the tree that manufactures a root context: the
// harness plays the role of the application driving the library, so it
// owns the context the way main() would (see the NV005 baseline).
func RunCancel(doc []byte, crit *keys.Criterion, t CancelTrial) *CancelOutcome {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	out := &CancelOutcome{}
	cfg := t.Env
	var trig *em.TriggerBackend
	cfg.WrapBackend = func(b em.Backend) em.Backend {
		fire := cancel
		if t.Mode == ModeExhaust {
			capB := em.NewCapacityBackend(b, 0)
			fire = capB.Exhaust
			b = capB
		}
		trig = em.NewTriggerBackend(b, t.TriggerOp, fire)
		return trig
	}
	env, err := em.NewEnvContext(ctx, cfg)
	if err != nil {
		out.Err = fmt.Errorf("chaostest: env: %w", err)
		return out
	}
	defer env.Close()
	out.Stats = env.Stats

	var buf bytes.Buffer
	o := &Outcome{}
	out.Err = runRecovered(env, t.Algorithm, crit, doc, &buf, o)
	out.PanicValue = o.PanicValue
	if out.Err == nil && out.PanicValue == nil {
		out.Output = buf.Bytes()
	}
	out.BudgetInUse = env.Budget.InUse()
	out.FramesLive = env.Dev.Frames().Live()
	out.TotalOps = trig.Ops()
	out.Fired = trig.Fired()
	return out
}
