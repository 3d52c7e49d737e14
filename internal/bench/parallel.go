package bench

import (
	"fmt"
	"runtime"

	"nexsort/internal/gen"
)

// The parallel-speedup experiment: not a paper figure (the 2003 testbed is
// a single disk and a single CPU), but the harness's check that NEXSORT's
// worker pool buys wall-clock time without moving the paper's metric.
// NEXSORT sorts one document at a ladder of parallelism levels; the
// block-transfer counts must be identical all the way up — the determinism
// guarantee of the concurrency model — while wall-clock time is free to
// improve. Merge sort runs on one goroutine at every level, so it has no
// rows here.

// ParallelConfig parameterizes the sequential-vs-parallel comparison.
type ParallelConfig struct {
	Scale      Scale
	ScratchDir string
	// Levels is the parallelism ladder; nil selects {1, 2, GOMAXPROCS}.
	Levels []int
	Seed   int64
}

// ParallelRow is one NEXSORT measurement at one parallelism level.
type ParallelRow struct {
	Parallelism int
	Result      *Result
	// Speedup is wall-clock relative to the first level of the ladder.
	Speedup float64
	// IOsMatch reports whether the run's total block transfers equal those
	// at the first level — the invariant this experiment exists to show.
	IOsMatch bool
}

// Parallel measures NEXSORT across the parallelism ladder.
func Parallel(cfg ParallelConfig) ([]ParallelRow, error) {
	levels := cfg.Levels
	if levels == nil {
		levels = []int{1, 2}
		if p := runtime.GOMAXPROCS(0); p > 2 {
			levels = append(levels, p)
		}
	}
	// A bushy document with room in the budget for several concurrent
	// subtree working sets; the same shape family as Figure 5's workload.
	spec := gen.IBMSpec{
		Height:      11,
		MaxFanout:   6,
		MaxElements: cfg.Scale.n(120000),
		Seed:        cfg.Seed + 11,
	}
	w, err := GenerateWorkload(spec, cfg.ScratchDir, "parallel.xml")
	if err != nil {
		return nil, err
	}
	defer w.Close()

	var rows []ParallelRow
	for _, level := range levels {
		res, err := Run(w, Params{
			Algo:        AlgoNEXSORT,
			BlockSize:   DefaultBlockSize,
			MemBlocks:   128,
			Compact:     true,
			ScratchDir:  cfg.ScratchDir,
			Parallelism: level,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: NEXSORT at parallelism %d: %w", level, err)
		}
		row := ParallelRow{Parallelism: level, Result: res, Speedup: 1, IOsMatch: true}
		if len(rows) > 0 {
			base := rows[0].Result
			row.Speedup = base.WallSeconds / res.WallSeconds
			row.IOsMatch = res.TotalIOs == base.TotalIOs
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ParallelTable renders the sequential-vs-parallel comparison.
func ParallelTable(rows []ParallelRow) *Table {
	t := &Table{
		Title:  "Parallelism — NEXSORT's wall-clock speedup at identical block transfers (worker pool bounded by the memory budget)",
		Header: []string{"parallel", "IOs", "IOs=seq", "wall(s)", "speedup", "sim(s)"},
	}
	for _, r := range rows {
		match := "yes"
		if !r.IOsMatch {
			match = "NO (bug)"
		}
		t.Rows = append(t.Rows, []string{
			di(r.Parallelism),
			d64(r.Result.TotalIOs), match,
			f3(r.Result.WallSeconds), ratio(r.Speedup),
			f2(r.Result.SimSeconds),
		})
	}
	return t
}
