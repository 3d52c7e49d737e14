package main

// The traced sort. It is the only file that calls below the public API: it
// rebuilds the environment SortFile builds so that it can install a timing
// wrapper on the raw scratch backend through em.Config.WrapBackend. If that
// hook goes, this file needs an equivalent seam.

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"nexsort"
	"nexsort/internal/core"
	"nexsort/internal/em"
	"nexsort/internal/extsort"
)

// profileHz is the traced run's CPU sampling rate. pprof's fixed 100 Hz
// gives too few samples in a sub-second sort to split it into a dozen
// layers. Linux fires CPU-time timers on the scheduler tick, so a rate
// above the kernel's tick rate (often 250 Hz) would under-count.
const profileHz = 250

type spanKind uint8

const (
	inputRead spanKind = iota
	outputWrite
	scratchRead
	scratchWrite
	numKinds
)

var kindNames = [numKinds]string{"input.read", "output.write", "scratch.read", "scratch.write"}

// span is one call into a layer, timed from the recorder's origin. Every
// span's parent is the run's sort span.
type span struct {
	kind       spanKind
	start, end time.Duration
	bytes      int64
}

type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func (r *recorder) add(k spanKind, start time.Time, n int) {
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{k, start.Sub(r.origin), end.Sub(r.origin), int64(n)})
	r.mu.Unlock()
}

type timedReader struct {
	r   io.Reader
	rec *recorder
}

func (t timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := t.r.Read(p)
	t.rec.add(inputRead, start, n)
	return n, err
}

type timedWriter struct {
	w   io.Writer
	rec *recorder
}

func (t timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	t.rec.add(outputWrite, start, n)
	return n, err
}

// timedBackend sits directly on the raw scratch file, under every layer
// the em package stacks on it.
type timedBackend struct {
	em.Backend
	rec *recorder
}

func (t timedBackend) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := t.Backend.ReadAt(p, off)
	t.rec.add(scratchRead, start, n)
	return n, err
}

func (t timedBackend) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := t.Backend.WriteAt(p, off)
	t.rec.add(scratchWrite, start, n)
	return n, err
}

type spanStats struct {
	Calls int64
	BusyS float64
	Bytes int64
}

// traceReport is what a traced run measured besides its ledger.
type traceReport struct {
	// SortS is the sort span's duration; SortSelfS is the part of it that
	// no child span covers.
	SortS, SortSelfS float64
	Spans            map[string]spanStats
	// CPU is profiled CPU seconds by layer (see profile.go).
	CPU map[string]float64
}

// tracedSort runs the sort SortFile runs — the em environment that
// nexsort.Config builds, then core.Sort or extsort.SortXML with the options
// nexsort.Sort passes — with the input, the output and the raw scratch
// backend timed, under a CPU profile.
func tracedSort(j job, cfg nexsort.Config, opts nexsort.Options) (ledger, *traceReport, error) {
	rec := &recorder{origin: time.Now()}
	in, err := os.Open(j.Input)
	if err != nil {
		return ledger{}, nil, err
	}
	defer in.Close()
	out, err := os.Create(j.Output)
	if err != nil {
		return ledger{}, nil, err
	}
	defer out.Close()

	var prof bytes.Buffer
	// Setting the rate first makes pprof keep it; the runtime prints a
	// warning when pprof then asks for 100 Hz.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return ledger{}, nil, err
	}
	sortStart := time.Since(rec.origin)
	led, err := sortInEnv(cfg, opts, timedReader{in, rec}, timedWriter{out, rec},
		func(b em.Backend) em.Backend { return timedBackend{b, rec} })
	sortEnd := time.Since(rec.origin)
	pprof.StopCPUProfile()
	if err != nil {
		return ledger{}, nil, err
	}
	if err := out.Close(); err != nil {
		return ledger{}, nil, err
	}

	cpu, err := cpuByLayer(prof.Bytes())
	if err != nil {
		return ledger{}, nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	tr := summarize(rec.spans, sortStart, sortEnd)
	tr.CPU = cpu
	if err := writeSpans(j.SpansPath, j.Run, rec.spans, sortStart, sortEnd); err != nil {
		return ledger{}, nil, err
	}
	return led, tr, nil
}

// sortInEnv is nexsort.Sort with the raw scratch backend wrapped.
func sortInEnv(cfg nexsort.Config, opts nexsort.Options, in io.Reader, out io.Writer, wrap func(em.Backend) em.Backend) (ledger, error) {
	env, err := em.NewEnv(em.Config{
		BlockSize:   cfg.BlockSize,
		MemBlocks:   int(cfg.MemoryBytes / int64(cfg.BlockSize)),
		ScratchDir:  cfg.ScratchDir,
		WrapBackend: wrap,
	})
	if err != nil {
		return ledger{}, err
	}
	defer env.Close()
	var led ledger
	switch opts.Algorithm {
	case nexsort.NEXSORT:
		rep, err := core.Sort(env, in, out, core.Options{Criterion: opts.Criterion})
		if err != nil {
			return ledger{}, err
		}
		led = ledger{Elements: rep.Elements, NEXSORT: rep}
	case nexsort.MergeSort:
		rep, err := extsort.SortXML(env, opts.Criterion, in, out, extsort.XMLOptions{})
		if err != nil {
			return ledger{}, err
		}
		led = ledger{Elements: rep.Elements, MergeSort: rep}
	default:
		return ledger{}, fmt.Errorf("traced run: unsupported algorithm %v", opts.Algorithm)
	}
	led.IOs = env.Stats.Snapshot()
	led.TotalIOs = env.Stats.TotalIOs()
	return led, nil
}

// summarize turns the spans into per-kind call counts, bytes and busy time
// (the union of the kind's intervals, since scratch calls overlap when
// workers run), and the sort's self time.
func summarize(spans []span, sortStart, sortEnd time.Duration) *traceReport {
	tr := &traceReport{SortS: (sortEnd - sortStart).Seconds(), Spans: map[string]spanStats{}}
	var byKind [numKinds][][2]time.Duration
	var all [][2]time.Duration
	for _, s := range spans {
		st := tr.Spans[kindNames[s.kind]]
		st.Calls++
		st.Bytes += s.bytes
		tr.Spans[kindNames[s.kind]] = st
		iv := [2]time.Duration{max(s.start, sortStart), min(s.end, sortEnd)}
		byKind[s.kind] = append(byKind[s.kind], iv)
		all = append(all, iv)
	}
	for k := range byKind {
		st := tr.Spans[kindNames[k]]
		st.BusyS = union(byKind[k]).Seconds()
		tr.Spans[kindNames[k]] = st
	}
	tr.SortSelfS = (sortEnd - sortStart - union(all)).Seconds()
	return tr
}

// union is the total length covered by the intervals.
func union(ivs [][2]time.Duration) time.Duration {
	slices.SortFunc(ivs, func(a, b [2]time.Duration) int { return cmp.Compare(a[0], b[0]) })
	var total, end time.Duration
	for i, iv := range ivs {
		if i == 0 || iv[0] > end {
			total += max(0, iv[1]-iv[0])
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// writeSpans appends the run's spans to path as JSON lines: the sort span
// (id 0) first, then every call in it.
func writeSpans(path, run string, spans []span, sortStart, sortEnd time.Duration) error {
	type line struct {
		Run     string `json:"run"`
		ID      int    `json:"id"`
		Parent  int    `json:"parent"`
		Name    string `json:"name"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Bytes   int64  `json:"bytes,omitempty"`
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(line{run, 0, -1, "sort", int64(sortStart), int64(sortEnd), 0})
	for i, s := range spans {
		if err != nil {
			break
		}
		err = enc.Encode(line{run, i + 1, 0, kindNames[s.kind], int64(s.start), int64(s.end), s.bytes})
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
