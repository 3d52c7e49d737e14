// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 5): workload generation,
// parameter sweeps over both algorithms, and table/series formatting that
// matches the paper's axes. The per-experiment index lives in DESIGN.md;
// measured-vs-paper comparisons live in EXPERIMENTS.md.
//
// The harness measures what the paper measures — block I/Os under an
// enforced memory budget — and converts them to "sort time" through a
// 2003-era disk cost model so that curve *shapes* (who wins, by what
// factor, where the crossovers and pass transitions fall) are comparable
// with the published figures even though the absolute scale is different.
// Wall-clock time on the host is reported alongside.
package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"nexsort/internal/core"
	"nexsort/internal/em"
	"nexsort/internal/extsort"
	"nexsort/internal/gen"
	"nexsort/internal/keys"
)

// Workload is a generated document on disk plus the criterion to sort it
// by. Create with GenerateWorkload, remove with Close.
type Workload struct {
	Path      string
	Stats     gen.Stats
	Criterion *keys.Criterion

	owned bool
}

// Spec is anything that can stream a document (gen.IBMSpec, gen.CustomSpec).
type Spec interface {
	Write(w io.Writer) (gen.Stats, error)
}

// GenerateWorkload streams a spec into a file under dir and pairs it with
// the standard experiment criterion: order every element by the generated
// key attribute.
func GenerateWorkload(spec Spec, dir, name string) (*Workload, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	stats, err := spec.Write(f)
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return &Workload{
		Path:      path,
		Stats:     stats,
		Criterion: &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr(gen.DefaultKeyAttr)}}, KeyCap: 16},
		owned:     true,
	}, nil
}

// Close removes the workload file.
func (w *Workload) Close() error {
	if !w.owned {
		return nil
	}
	w.owned = false
	return os.Remove(w.Path)
}

// Algo selects the algorithm under test.
type Algo int

// Algorithms.
const (
	AlgoNEXSORT Algo = iota
	AlgoMergeSort
)

// String names the algorithm as the paper's figures do.
func (a Algo) String() string {
	if a == AlgoNEXSORT {
		return "NeXSort"
	}
	return "Merge Sort"
}

// Params configures one measured run.
type Params struct {
	Algo       Algo
	BlockSize  int
	MemBlocks  int
	Threshold  int // NEXSORT only; 0 = 2 blocks
	DepthLimit int
	Compact    bool
	// PaperLayout runs NEXSORT in the paper's Section 3.1 layout, the one
	// its figures measure, and merge sort with the paper's materialized
	// final merge; the defaults are graceful degeneration and a streamed
	// final merge.
	PaperLayout bool
	ScratchDir  string // empty = in-memory scratch device
}

// Result is one measured run.
type Result struct {
	Params   Params
	Elements int64

	TotalIOs    int64
	IOs         map[string]em.IOCount
	SimSeconds  float64
	WallSeconds float64

	// Passes is the number of passes over the record data for the
	// merge-sort baseline (run formation + merge passes); 0 for NEXSORT.
	Passes int
	// NEXSORT detail (zero for the baseline).
	SubtreeSorts   int
	InternalSorts  int
	ExternalSorts  int
	IncompleteRuns int
	RunBlocks      int
	// RecordBytes is the baseline's key-path representation size.
	RecordBytes int64
}

// Hardening is the process-wide spill-hardening configuration applied to
// every experiment environment; cmd/nexbench sets it from flags. Fault-free
// hardening leaves the counted block transfers unchanged, so the paper's
// curves can be regenerated with it on.
var Hardening struct {
	VerifyChecksums bool
	Retry           em.RetryPolicy
}

// Run sorts the workload once under p, discarding the output document (its
// write I/O is still counted).
func Run(w *Workload, p Params) (*Result, error) {
	cfg := em.Config{
		BlockSize:       p.BlockSize,
		MemBlocks:       p.MemBlocks,
		ScratchDir:      p.ScratchDir,
		VerifyChecksums: Hardening.VerifyChecksums,
		Retry:           Hardening.Retry,
	}
	env, err := em.NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	in, err := os.Open(w.Path)
	if err != nil {
		return nil, err
	}
	defer in.Close()

	res := &Result{Params: p}
	start := time.Now()
	switch p.Algo {
	case AlgoNEXSORT:
		rep, err := core.Sort(env, in, io.Discard, core.Options{
			Criterion:   w.Criterion,
			Threshold:   p.Threshold,
			DepthLimit:  p.DepthLimit,
			Compact:     p.Compact,
			PaperLayout: p.PaperLayout,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: NEXSORT on %s: %w", w.Path, err)
		}
		res.Elements = rep.Elements
		res.SubtreeSorts = rep.SubtreeSorts
		res.InternalSorts = rep.InternalSorts
		res.ExternalSorts = rep.ExternalSorts
		res.IncompleteRuns = rep.IncompleteRuns
		res.RunBlocks = rep.RunBlocks
	case AlgoMergeSort:
		rep, err := extsort.SortXML(env, w.Criterion, in, io.Discard, extsort.XMLOptions{
			DepthLimit:  p.DepthLimit,
			Compact:     p.Compact,
			PaperLayout: p.PaperLayout,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: merge sort on %s: %w", w.Path, err)
		}
		res.Elements = rep.Elements
		res.Passes = rep.MergePasses + 1
		res.RecordBytes = rep.RecordBytes
	default:
		return nil, fmt.Errorf("bench: unknown algorithm %d", p.Algo)
	}
	res.WallSeconds = time.Since(start).Seconds()
	res.TotalIOs = env.Stats.TotalIOs()
	res.IOs = env.Stats.Snapshot()
	res.SimSeconds = em.DefaultCostModel().Seconds(res.TotalIOs, p.BlockSize)
	return res, nil
}
