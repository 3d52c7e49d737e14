// Command nexbench regenerates the paper's evaluation: every table and
// figure of Section 5, plus the theory check of Section 4 and the optional
// ablations.
//
//	nexbench                         # run everything at the default scale
//	nexbench -exp fig6 -scale 2      # one experiment, twice the input
//	nexbench -exp table1             # the key-path representation demo
//
// Experiments: table1, table2, fig5, fig6, fig7, threshold, bounds,
// ablation, all. Results print as aligned text tables whose columns match
// the paper's axes; EXPERIMENTS.md records a reference run next to the
// paper's numbers.
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

func main() { os.Exit(nexbench()) }

// nexbench runs the experiments the flags ask for and returns the exit
// code: 0, 1 when an experiment fails, 2 for an unknown experiment. Every
// return removes the temporary workload directory.
func nexbench() int {
	var (
		exp       = flag.String("exp", "all", "experiment: table1|table2|fig5|fig6|fig7|threshold|bounds|ablation|all")
		scale     = flag.Float64("scale", 1.0, "input size multiplier (1.0 ≈ seconds per experiment)")
		scratch   = flag.String("scratch", "", "scratch directory for workloads and spill (default: memory-backed spill, temp-dir workloads)")
		seed      = flag.Int64("seed", 1, "workload seed")
		verify    = flag.Bool("verify-checksums", false, "checksum every spill block in the experiment environments")
		retries   = flag.Int("retries", 0, "retry budget for transiently faulted spill transfers (0 disables)")
		retryBase = flag.Duration("retry-delay", 0, "backoff before the first retry, doubling per attempt")
		jsonFlag  = flag.Bool("json", false, "emit each result table as one JSON object per line instead of aligned text")
	)
	flag.Parse()
	jsonOut = *jsonFlag

	bench.Hardening.VerifyChecksums = *verify
	bench.Hardening.Retry = em.RetryPolicy{
		MaxRetries:        *retries,
		BaseDelay:         *retryBase,
		RetryCorruptReads: *verify && *retries > 0,
	}

	dir := *scratch
	if dir == "" {
		d, err := os.MkdirTemp("", "nexbench-")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(d)
		dir = d
	}

	s := bench.Scale(*scale)
	// Each experiment prints its tables; one with a title also prints how
	// long it took.
	experiments := []struct {
		name, title string
		run         func() error
	}{
		{"table1", "", func() error {
			rows, err := bench.Table1()
			if err != nil {
				return err
			}
			return printTable(bench.Table1Render(rows))
		}},
		{"table2", "", func() error {
			paper, scaled := bench.Table2(s)
			return printTable(bench.Table2Render(paper, scaled))
		}},
		{"fig5", "Figure 5 (memory sweep)", func() error {
			rows, w, err := bench.Fig5(bench.Fig5Config{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			defer w.Close()
			fmt.Printf("document: %d elements, %d bytes, height %d, max fan-out %d\n",
				w.Stats.Elements, w.Stats.Bytes, w.Stats.Height, w.Stats.MaxFanout)
			return printTable(bench.Fig5Table(rows))
		}},
		{"fig6", "Figure 6 (input size sweep)", func() error {
			rows, err := bench.Fig6(bench.Fig6Config{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			return printTable(bench.Fig6Table(rows))
		}},
		{"fig7", "Figure 7 (tree shape sweep)", func() error {
			rows, err := bench.Fig7(bench.Fig7Config{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			return printTable(bench.Fig7Table(rows))
		}},
		{"threshold", "Sort-threshold sweep", func() error {
			rows, err := bench.Threshold(bench.ThresholdConfig{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			return printTable(bench.ThresholdTable(rows))
		}},
		{"bounds", "Theorem 4.4/4.5 bounds check", func() error {
			rows, err := bench.Bounds(bench.BoundsConfig{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			return printTable(bench.BoundsTable(rows))
		}},
		{"ablation", "Ablations (compaction, graceful degeneration)", func() error {
			rows, err := bench.Ablation(bench.AblationConfig{Scale: s, ScratchDir: dir, Seed: *seed})
			if err != nil {
				return err
			}
			return printTable(bench.AblationTable(rows))
		}},
	}

	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		start := time.Now()
		if err := e.run(); err != nil {
			if e.title != "" {
				err = fmt.Errorf("%s: %w", e.title, err)
			}
			return fail(err)
		}
		if e.title != "" && !jsonOut {
			fmt.Printf("(%s completed in %.1fs)\n\n", e.title, time.Since(start).Seconds())
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "nexbench: unknown experiment %q\n", *exp)
		flag.Usage()
		return 2
	}
	return 0
}

func printTable(t *bench.Table) error {
	if jsonOut {
		return json.NewEncoder(os.Stdout).Encode(t)
	}
	fmt.Println(strings.Repeat("=", 72))
	if err := t.Fprint(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// fail prints err and returns the exit code of a failed run.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "nexbench:", err)
	return 1
}
