// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Each benchmark drives the same internal/bench experiment as cmd/nexbench
// and reports the paper's primary metric — block I/Os — alongside Go's
// timings:
//
//	go test -bench=. -benchmem
//
// The sweeps themselves print through `go test -bench -v` logs when run
// with -benchtime=1x; cmd/nexbench renders the full tables.
package nexsort

import (
	"testing"

	"nexsort/internal/bench"
)

// benchScale keeps `go test -bench=.` in the tens of seconds; cmd/nexbench
// runs the reference scale.
const benchScale = bench.Scale(0.15)

// reportSweep attaches aggregate custom metrics to a benchmark.
func reportSweep(b *testing.B, nexIOs, mergeIOs int64) {
	b.ReportMetric(float64(nexIOs), "nexsort-IOs")
	if mergeIOs > 0 {
		b.ReportMetric(float64(mergeIOs), "mergesort-IOs")
		b.ReportMetric(float64(mergeIOs)/float64(nexIOs), "mergesort/nexsort")
	}
}

// BenchmarkTable1KeyPath regenerates Table 1 (the key-path representation
// of Figure 1's D1).
func BenchmarkTable1KeyPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 9 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkFig5MainMemory regenerates Figure 5: the same document sorted
// by both algorithms across a ladder of memory budgets.
func BenchmarkFig5MainMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, w, err := bench.Fig5(bench.Fig5Config{
			Scale:     benchScale,
			MemBlocks: []int{24, 48, 96, 192, 384},
		})
		if err != nil {
			b.Fatal(err)
		}
		w.Close()
		var nex, merge int64
		for _, r := range rows {
			nex += r.Nex.TotalIOs
			merge += r.Merge.TotalIOs
		}
		reportSweep(b, nex, merge)
	}
}

// BenchmarkFig6InputSize regenerates Figure 6: growing documents at
// constant maximum fan-out 85 under a small fixed memory.
func BenchmarkFig6InputSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig6(bench.Fig6Config{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		var nex, merge int64
		for _, r := range rows {
			nex += r.Nex.TotalIOs
			merge += r.Merge.TotalIOs
		}
		reportSweep(b, nex, merge)
		b.ReportMetric(float64(rows[len(rows)-1].Merge.Passes), "max-merge-passes")
	}
}

// BenchmarkFig7TreeShape regenerates Figure 7 / Table 2: near-constant
// size, heights 2 through 6.
func BenchmarkFig7TreeShape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig7(bench.Fig7Config{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		var nex, merge int64
		for _, r := range rows {
			nex += r.Nex.TotalIOs
			merge += r.Merge.TotalIOs
		}
		reportSweep(b, nex, merge)
		flat := rows[0]
		deep := rows[len(rows)-1]
		b.ReportMetric(float64(flat.Nex.TotalIOs)/float64(flat.Merge.TotalIOs), "h2-nex/ms")
		b.ReportMetric(float64(deep.Nex.TotalIOs)/float64(deep.Merge.TotalIOs), "h6-nex/ms")
	}
}

// BenchmarkThreshold regenerates the sort-threshold sweep of Section 5
// (the U-shaped curve the paper describes but omits).
func BenchmarkThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Threshold(bench.ThresholdConfig{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		var best, worst int64
		for _, r := range rows {
			if best == 0 || r.Nex.TotalIOs < best {
				best = r.Nex.TotalIOs
			}
			if r.Nex.TotalIOs > worst {
				worst = r.Nex.TotalIOs
			}
		}
		reportSweep(b, best, 0)
		b.ReportMetric(float64(worst)/float64(best), "worst/best-threshold")
	}
}

// BenchmarkBoundsCheck regenerates the Theorem 4.4/4.5 validation grid.
func BenchmarkBoundsCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Bounds(bench.BoundsConfig{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		var maxRatio float64
		for _, r := range rows {
			if r.MeasuredOverUB > maxRatio {
				maxRatio = r.MeasuredOverUB
			}
		}
		b.ReportMetric(maxRatio, "max-measured/UB")
	}
}

// BenchmarkAblation regenerates the Section 3.2 technique ablation.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Ablation(bench.AblationConfig{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Doc == "flat(h=2)" && r.Variant == "+degenerate" {
				b.ReportMetric(float64(r.Result.TotalIOs)/float64(r.Baseline), "flat-degen/plain")
			}
		}
	}
}

// BenchmarkParallelSpeedup compares sequential and pooled-worker execution
// of NEXSORT on one document. The custom metrics carry the experiment's two
// findings: the wall-clock speedup, and (as a 0/1 flag) that the block
// transfers stayed identical — parallelism must not move the paper's metric.
func BenchmarkParallelSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Parallel(bench.ParallelConfig{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
		best, invariant := 1.0, 1.0
		for _, r := range rows {
			if !r.IOsMatch {
				invariant = 0
			}
			best = max(best, r.Speedup)
		}
		b.ReportMetric(best, "nexsort-speedup")
		b.ReportMetric(invariant, "IOs-invariant")
	}
}
