// Command nexbench regenerates the paper's evaluation: every table and
// figure of Section 5, plus the theory check of Section 4 and the optional
// ablations.
//
//	nexbench                         # run everything at the default scale
//	nexbench -exp fig6 -scale 2      # one experiment, twice the input
//	nexbench -exp table1             # the key-path representation demo
//
// Experiments: table1, table2, fig5, fig6, fig7, threshold, bounds,
// ablation, parallel, alloc, cmp, all. Results print as aligned text
// tables whose columns match the paper's axes; EXPERIMENTS.md records a
// reference run next to the paper's numbers. The parallel, alloc and cmp
// experiments are not paper figures: parallel shows NEXSORT's worker pool's
// wall-clock speedup at identical block-transfer counts (merge sort runs on
// one goroutine, so it has no rows there), alloc shows each
// sorter's heap churn (allocs/op, B/op — the -benchmem columns) under the
// frame-pool substrate, and cmp measures the comparison kernel.
// -json switches every table to one JSON object per line for scripting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nexsort/internal/bench"
	"nexsort/internal/em"
)

// jsonOut is set by -json: tables print as JSON objects instead of text.
var jsonOut bool

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: table1|table2|fig5|fig6|fig7|threshold|bounds|ablation|parallel|alloc|cmp|all")
		scale     = flag.Float64("scale", 1.0, "input size multiplier (1.0 ≈ seconds per experiment)")
		scratch   = flag.String("scratch", "", "scratch directory for workloads and spill (default: memory-backed spill, temp-dir workloads)")
		seed      = flag.Int64("seed", 1, "workload seed")
		verify    = flag.Bool("verify-checksums", false, "checksum every spill block in the experiment environments")
		retries   = flag.Int("retries", 0, "retry budget for transiently faulted spill transfers (0 disables)")
		retryBase = flag.Duration("retry-delay", 0, "backoff before the first retry, doubling per attempt")
		parallel  = flag.Int("parallel", 0, "NEXSORT's worker parallelism for every experiment environment (0 = GOMAXPROCS, 1 = sequential; merge sort always runs on one goroutine); block-transfer counts are unaffected")
		jsonFlag  = flag.Bool("json", false, "emit each result table as one JSON object per line instead of aligned text")
		cmpOut    = flag.String("cmp-out", "BENCH_cmp.json", "output path for the cmp experiment's machine-readable rows")
	)
	flag.Parse()
	jsonOut = *jsonFlag

	bench.Hardening.VerifyChecksums = *verify
	bench.Hardening.Retry = em.RetryPolicy{
		MaxRetries:        *retries,
		BaseDelay:         *retryBase,
		RetryCorruptReads: *verify && *retries > 0,
	}
	bench.DefaultParallelism = *parallel

	dir := *scratch
	if dir == "" {
		d, err := os.MkdirTemp("", "nexbench-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(d)
		dir = d
	}

	s := bench.Scale(*scale)
	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("table1") {
		ran = true
		rows, err := bench.Table1()
		if err != nil {
			fatal(err)
		}
		printTable(bench.Table1Render(rows))
	}
	if want("table2") {
		ran = true
		paper, scaled := bench.Table2(s)
		printTable(bench.Table2Render(paper, scaled))
	}
	if want("fig5") {
		ran = true
		run("Figure 5 (memory sweep)", func() error {
			rows, w, err := bench.Fig5(bench.Fig5Config{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			defer w.Close()
			fmt.Printf("document: %d elements, %d bytes, height %d, max fan-out %d\n",
				w.Stats.Elements, w.Stats.Bytes, w.Stats.Height, w.Stats.MaxFanout)
			printTable(bench.Fig5Table(rows))
			return nil
		})
	}
	if want("fig6") {
		ran = true
		run("Figure 6 (input size sweep)", func() error {
			rows, err := bench.Fig6(bench.Fig6Config{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			printTable(bench.Fig6Table(rows))
			return nil
		})
	}
	if want("fig7") {
		ran = true
		run("Figure 7 (tree shape sweep)", func() error {
			rows, err := bench.Fig7(bench.Fig7Config{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			printTable(bench.Fig7Table(rows))
			return nil
		})
	}
	if want("threshold") {
		ran = true
		run("Sort-threshold sweep", func() error {
			rows, err := bench.Threshold(bench.ThresholdConfig{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			printTable(bench.ThresholdTable(rows))
			return nil
		})
	}
	if want("bounds") {
		ran = true
		run("Theorem 4.4/4.5 bounds check", func() error {
			rows, err := bench.Bounds(bench.BoundsConfig{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			printTable(bench.BoundsTable(rows))
			return nil
		})
	}
	if want("ablation") {
		ran = true
		run("Ablations (compaction, graceful degeneration)", func() error {
			rows, err := bench.Ablation(bench.AblationConfig{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			printTable(bench.AblationTable(rows))
			return nil
		})
	}
	if want("parallel") {
		ran = true
		run("Parallel speedup (NEXSORT, sequential vs worker pool)", func() error {
			rows, err := bench.Parallel(bench.ParallelConfig{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			printTable(bench.ParallelTable(rows))
			return nil
		})
	}
	if want("alloc") {
		ran = true
		run("Allocation profile (frame-pool heap churn)", func() error {
			rows, err := bench.Alloc(bench.AllocConfig{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			printTable(bench.AllocTable(rows))
			return nil
		})
	}
	if want("cmp") {
		ran = true
		run("Comparison kernel (normalized keys, loser tree)", func() error {
			rows, err := bench.Cmp(bench.CmpConfig{Scale: s, Seed: *seed})
			if err != nil {
				return err
			}
			printTable(bench.CmpTable(rows))
			// The machine-readable result rides next to the rendered
			// table: one JSON document with the raw rows, for CI smoke
			// checks and cross-run diffing.
			f, err := os.Create(*cmpOut)
			if err != nil {
				return err
			}
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rows); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			if !jsonOut {
				fmt.Printf("(comparison-kernel rows written to %s)\n", *cmpOut)
			}
			return nil
		})
	}

	if !ran {
		fmt.Fprintf(os.Stderr, "nexbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

func run(title string, f func() error) {
	start := time.Now()
	if err := f(); err != nil {
		fatal(fmt.Errorf("%s: %w", title, err))
	}
	if !jsonOut {
		fmt.Printf("(%s completed in %.1fs)\n\n", title, time.Since(start).Seconds())
	}
}

func printTable(t *bench.Table) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(t); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Println(strings.Repeat("=", 72))
	if err := t.Fprint(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nexbench:", err)
	os.Exit(1)
}
