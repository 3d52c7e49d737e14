package bench

import (
	"fmt"
	"maps"
	"runtime"

	"nexsort/internal/gen"
)

// The parallel-speedup experiment: not a paper figure (the 2003 testbed is
// a single disk and a single CPU), but the harness's check that NEXSORT's
// worker pool buys wall-clock time without moving the paper's metric.
// NEXSORT sorts one document at a ladder of parallelism levels; the
// per-category block-transfer ledger must be identical all the way up —
// the determinism guarantee of the concurrency model — or the experiment
// fails, while wall-clock time is free to improve. Merge sort runs on one
// goroutine at every level, so it has no rows here.

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
}

// Parallel measures NEXSORT across the parallelism ladder. It fails if any
// level's per-category ledger differs from the first level's.
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
		row := ParallelRow{Parallelism: level, Result: res, Speedup: 1}
		if len(rows) > 0 {
			base := rows[0]
			if !maps.Equal(res.IOs, base.Result.IOs) {
				return nil, fmt.Errorf("bench: NEXSORT's ledger at parallelism %d differs from parallelism %d's: %v vs %v",
					level, base.Parallelism, res.IOs, base.Result.IOs)
			}
			row.Speedup = base.Result.WallSeconds / res.WallSeconds
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ParallelTable renders the sequential-vs-parallel comparison.
func ParallelTable(rows []ParallelRow) *Table {
	t := &Table{
		Title:  "Parallelism — NEXSORT's wall-clock speedup at identical block transfers (worker pool bounded by the memory budget)",
		Header: []string{"parallel", "IOs", "wall(s)", "speedup", "sim(s)"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			di(r.Parallelism),
			d64(r.Result.TotalIOs),
			f3(r.Result.WallSeconds), ratio(r.Speedup),
			f2(r.Result.SimSeconds),
		})
	}
	return t
}
