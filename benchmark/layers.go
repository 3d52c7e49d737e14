package main

import (
	"strings"

	"nexsort"
)

// emCounters are the I/O categories and directions each algorithm's default
// path charges: NEXSORT's Lemma 4.9-4.13 components, and merge sort's runs.
var emCounters = map[nexsort.Algorithm][]string{
	nexsort.NEXSORT: {
		"input.reads", "output.writes", "subtree-sort.reads", "subtree-sort.writes",
		"data-stack.reads", "data-stack.writes", "path-stack.reads", "path-stack.writes",
		"run-read.reads", "output-stack.reads", "output-stack.writes",
	},
	nexsort.MergeSort: {"input.reads", "output.writes", "merge-run.reads", "merge-run.writes"},
}

// layerMetrics adds one algorithm's per-layer metrics, named
// <algorithm>.<layer>.<field>: raw times and allocation counters from the
// timed sorts, spans and CPU by layer averaged over the traced sorts, the
// tracing overhead against the untraced sort run just before each traced
// one, and the exact counters of the ledger, which every sort repeats.
func layerMetrics(m map[string]metric, alg nexsort.Algorithm, traced, untraced, reps []*childRun) {
	put := func(name string, v float64, unit string) { m[alg.String()+"."+name] = metric{v, unit} }
	field := func(runs []*childRun, f func(*childRun) float64) []float64 {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = f(r)
		}
		return v
	}
	walls := field(reps, func(r *childRun) float64 { return r.WallS })
	put("samples", float64(len(reps)), "count")
	put("wall_s", trimmedMean(walls), "s")
	put("wall_p80_s", percentile(walls, 80), "s")
	put("cpu_s", trimmedMean(field(reps, func(r *childRun) float64 { return r.CPUS })), "s")
	sortS := func(r *childRun) float64 { return r.SortS }
	put("trace.overhead_frac", trimmedMean(field(traced, sortS))/trimmedMean(field(untraced, sortS))-1, "ratio")

	mean := func(f func(*traceReport) float64) float64 {
		var sum float64
		for _, r := range traced {
			sum += f(r.Trace)
		}
		return sum / float64(len(traced))
	}
	put("sort.busy_s", mean(func(t *traceReport) float64 { return t.SortS }), "s")
	put("sort.self_s", mean(func(t *traceReport) float64 { return t.SortSelfS }), "s")
	for _, k := range kindNames {
		put(k+".calls", mean(func(t *traceReport) float64 { return float64(t.Spans[k].Calls) }), "count")
		put(k+".busy_s", mean(func(t *traceReport) float64 { return t.Spans[k].BusyS }), "s")
		put(k+".bytes", mean(func(t *traceReport) float64 { return float64(t.Spans[k].Bytes) }), "bytes")
	}
	for _, l := range cpuLayers {
		put("cpu."+l+"_s", mean(func(t *traceReport) float64 { return t.CPU[l] }), "s")
	}

	led := traced[0].Ledger
	for _, c := range emCounters[alg] {
		dot := strings.LastIndexByte(c, '.')
		n := led.IOs[c[:dot]].Reads
		if c[dot+1:] == "writes" {
			n = led.IOs[c[:dot]].Writes
		}
		put("em."+c, float64(n), "blocks")
	}
	if r := led.NEXSORT; r != nil {
		put("core.subtree_sorts", float64(r.SubtreeSorts), "count")
		put("core.internal_sorts", float64(r.InternalSorts), "count")
		put("core.external_sorts", float64(r.ExternalSorts), "count")
		put("core.run_blocks", float64(r.RunBlocks), "blocks")
		put("core.scratch_blocks", float64(r.ScratchBlocks), "blocks")
	}
	if r := led.MergeSort; r != nil {
		put("extsort.records", float64(r.Records), "count")
		put("extsort.record_bytes", float64(r.RecordBytes), "bytes")
		put("extsort.initial_runs", float64(r.InitialRuns), "count")
		put("extsort.merge_passes", float64(r.MergePasses), "count")
	}
	put("rt.alloc_bytes", median(field(reps, func(r *childRun) float64 { return float64(r.Alloc.Bytes) })), "bytes")
	put("rt.alloc_objects", median(field(reps, func(r *childRun) float64 { return float64(r.Alloc.Objects) })), "count")
	put("rt.gc_cycles", median(field(reps, func(r *childRun) float64 { return float64(r.Alloc.GCCycles) })), "count")
}
