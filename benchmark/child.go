package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/metrics"
	"syscall"
	"time"

	"nexsort"
	"nexsort/internal/core"
	"nexsort/internal/extsort"
)

// childEnv carries a job to a benchmark child. Every sort runs in a fresh
// child, one at a time, so that its heap, its peak RSS and its CPU time are
// its own. The parent times the whole child process; the child runs the
// job and writes one report to stdout.
const childEnv = "NEXSORT_BENCH_JOB"

// job is one child's work: a sort, or the reference copy.
type job struct {
	// XMLCopy selects the reference pass instead of a sort.
	XMLCopy                bool
	Input, Output, Scratch string
	BlockSize              int
	MemoryBytes            int64
	Criterion              string
	Algorithm              nexsort.Algorithm
	// Traced selects the traced path (trace.go) instead of SortFile.
	Traced bool
	// Run names the run in the spans file at SpansPath, which the traced
	// run appends its spans to.
	Run, SpansPath string
}

type report struct {
	Err string
	// SortS is the sort call's own time, measured in the child.
	SortS  float64
	Ledger ledger
	Alloc  allocCounters
	Trace  *traceReport `json:",omitempty"`
}

// ledger is what a sort must repeat exactly, run after run: the logical
// block-I/O ledger and the sorters' own counters.
type ledger struct {
	Elements  int64
	TotalIOs  int64
	IOs       map[string]nexsort.IOCount
	NEXSORT   *core.Report       `json:",omitempty"`
	MergeSort *extsort.XMLReport `json:",omitempty"`
}

// allocCounters are the Go runtime's allocation counters over one job.
type allocCounters struct {
	Bytes, Objects, GCCycles uint64
}

var allocMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readAlloc() allocCounters {
	s := make([]metrics.Sample, len(allocMetrics))
	for i, name := range allocMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return allocCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// childMain runs the job in the environment and prints its report.
func childMain(encoded string) int {
	var j job
	if err := json.Unmarshal([]byte(encoded), &j); err != nil {
		fmt.Fprintln(os.Stderr, "child: decode job:", err)
		return 2
	}
	rep := runJob(j)
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "child: write report:", err)
		return 2
	}
	return 0
}

func runJob(j job) report {
	if j.XMLCopy {
		if err := xmlCopy(j.Input, j.Output); err != nil {
			return report{Err: err.Error()}
		}
		return report{}
	}
	crit, err := nexsort.ParseCriterion(j.Criterion)
	if err != nil {
		return report{Err: err.Error()}
	}
	cfg := nexsort.Config{BlockSize: j.BlockSize, MemoryBytes: j.MemoryBytes, ScratchDir: j.Scratch}
	opts := nexsort.Options{Criterion: crit, Algorithm: j.Algorithm}

	var rep report
	alloc0 := readAlloc()
	start := time.Now()
	if j.Traced {
		rep.Ledger, rep.Trace, err = tracedSort(j, cfg, opts)
	} else {
		var res *nexsort.Result
		res, err = nexsort.SortFile(j.Input, j.Output, cfg, opts)
		if err == nil {
			rep.Ledger = ledger{res.Elements, res.TotalIOs, res.IOs, res.NEXSORT, res.MergeSort}
		}
	}
	rep.SortS = time.Since(start).Seconds()
	alloc1 := readAlloc()
	if err != nil {
		return report{Err: err.Error()}
	}
	if rep.Trace != nil {
		// The sort span leaves out starting and stopping the profiler.
		rep.SortS = rep.Trace.SortS
	}
	rep.Alloc = allocCounters{
		Bytes:    alloc1.Bytes - alloc0.Bytes,
		Objects:  alloc1.Objects - alloc0.Objects,
		GCCycles: alloc1.GCCycles - alloc0.GCCycles,
	}
	return rep
}

// xmlCopy copies a document token by token through encoding/xml. It is the
// reference pass: the sort times are reported as multiples of its time,
// measured alongside them on the same input (README.md gives the reason).
func xmlCopy(inPath, outPath string) error {
	in, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer out.Close()
	bw := bufio.NewWriter(out)
	dec := xml.NewDecoder(bufio.NewReader(in))
	enc := xml.NewEncoder(bw)
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("xmlcopy: %w", err)
		}
		if err := enc.EncodeToken(tok); err != nil {
			return fmt.Errorf("xmlcopy: %w", err)
		}
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return out.Close()
}

// childRun is a finished child: its report and what the parent measured of
// the whole process.
type childRun struct {
	report
	WallS, CPUS float64
	MaxRSSKiB   int64
}

// runChild runs one job in a fresh process and waits for it.
func runChild(j job) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(body))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("child: %w: %s", err, stderr.Bytes())
	}
	run := &childRun{
		WallS: wall.Seconds(),
		CPUS:  (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds(),
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.MaxRSSKiB = ru.Maxrss // KiB on Linux
	}
	if err := json.Unmarshal(stdout.Bytes(), &run.report); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	if run.Err != "" {
		return nil, errors.New(run.Err)
	}
	return run, nil
}
