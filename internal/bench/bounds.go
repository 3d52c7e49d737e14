package bench

import (
	"fmt"
	"math"

	"nexsort/internal/gen"
	"nexsort/internal/theory"
)

// Model carries the analytic parameters of Section 4 for one
// workload/environment pair, in the paper's notation: N elements, B
// elements per block, m memory blocks, k maximum fan-out, t sort threshold
// (in blocks here).
type Model struct {
	N       int64
	B       float64
	M       int
	K       int
	TBlocks float64
}

// ModelFor derives the analytic model from a workload's statistics and run
// parameters.
func ModelFor(w *Workload, p Params) Model {
	avgElem := float64(w.Stats.Bytes) / float64(w.Stats.Elements)
	t := float64(p.Threshold) / float64(p.BlockSize)
	if p.Threshold == 0 {
		t = 2
	}
	return Model{
		N:       w.Stats.Elements,
		B:       float64(p.BlockSize) / avgElem,
		M:       p.MemBlocks,
		K:       w.Stats.MaxFanout,
		TBlocks: t,
	}
}

// n returns the input size in blocks.
func (m Model) n() float64 { return float64(m.N) / m.B }

// logM returns log base m of x, clamped at zero.
func (m Model) logM(x float64) float64 {
	if x <= 1 || m.M <= 1 {
		return 0
	}
	return math.Log(x) / math.Log(float64(m.M))
}

// LowerBoundIOs evaluates Theorem 4.4's lower bound
// Ω(max{n, n·log_m(k/B)}) with unit constants.
func (m Model) LowerBoundIOs() float64 {
	n := m.n()
	return math.Max(n, n*m.logM(float64(m.K)/m.B))
}

// NEXSORTUpperIOs evaluates Theorem 4.5's upper bound
// O(n + n·log_m(min{kt, N}/B)) with unit constants (t in blocks, so kt/B
// becomes k·t directly in block units).
func (m Model) NEXSORTUpperIOs() float64 {
	n := m.n()
	arg := math.Min(float64(m.K)*m.TBlocks, m.n())
	return n + n*m.logM(arg)
}

// MergeSortIOs evaluates the flat-file bound Θ(n·log_m(n)) with unit
// constants, the baseline's asymptotic cost.
func (m Model) MergeSortIOs() float64 {
	n := m.n()
	return math.Max(n, n*m.logM(n))
}

// BoundsRow is one point of the bounds-check experiment.
type BoundsRow struct {
	Label    string
	Model    Model
	Measured *Result
	// LB, UB and Flat are the three analytic curves (unit constants).
	LB, UB, Flat float64
	// ExactLB is Lemma 4.3's counting bound evaluated in exact big-integer
	// arithmetic for the worst-case document with this N and k, floored at
	// n (any algorithm reads its input — Theorem 4.4's outer max). When
	// k < B the counting term vanishes and the scan term is the bound:
	// the regime where XML sorting is provably scan-cheap.
	ExactLB int64
	// MeasuredOverUB is the empirical constant of Theorem 4.5: measured
	// NEXSORT I/Os divided by the unit-constant upper-bound formula. The
	// theorem holds iff this stays bounded across the grid.
	MeasuredOverUB float64
}

// BoundsConfig parameterizes the bounds check.
type BoundsConfig struct {
	Scale      Scale
	ScratchDir string
	Seed       int64
}

// Bounds validates Theorems 4.4/4.5 empirically: NEXSORT runs over a grid
// of shapes and memory budgets, and its measured I/O count is compared to
// the closed-form bounds. Within a constant factor, measured cost must
// track the upper bound — and the constant must not drift as N, k, or M
// change, which is exactly what "matches the bound up to a constant
// factor" means operationally.
func Bounds(cfg BoundsConfig) ([]BoundsRow, error) {
	type point struct {
		label string
		spec  gen.CustomSpec
		mem   int
	}
	base := cfg.Scale.n(40000)
	var points []point
	for _, sh := range []struct {
		name string
		spec gen.CustomSpec
	}{
		{"wide(k~N^1/2)", gen.CappedShape(base, 1<<20)},
		{"capped(k<=85)", gen.CappedShape(base, 85)},
		{"deep(k<=12)", gen.CappedShape(base, 12)},
	} {
		for _, mem := range []int{12, 32, 128} {
			points = append(points, point{
				label: fmt.Sprintf("%s m=%d", sh.name, mem),
				spec:  sh.spec,
				mem:   mem,
			})
		}
	}

	var rows []BoundsRow
	for i, pt := range points {
		spec := pt.spec
		spec.Seed = cfg.Seed + int64(i)
		w, err := GenerateWorkload(spec, cfg.ScratchDir, fmt.Sprintf("bounds-%d.xml", i))
		if err != nil {
			return nil, err
		}
		params := Params{Algo: AlgoNEXSORT, PaperLayout: true, BlockSize: DefaultBlockSize, MemBlocks: pt.mem, Compact: true, ScratchDir: cfg.ScratchDir}
		res, err := Run(w, params)
		if err != nil {
			w.Close()
			return nil, err
		}
		model := ModelFor(w, params)
		w.Close()
		bElems := int64(model.B)
		if bElems < 1 {
			bElems = 1
		}
		exact := theory.MinIOs(
			theory.MaxOutcomes(model.N, int64(model.K)),
			model.N, bElems, int64(model.M))
		if scan := int64(model.n()); exact < scan {
			exact = scan
		}
		row := BoundsRow{
			Label:    pt.label,
			Model:    model,
			Measured: res,
			LB:       model.LowerBoundIOs(),
			UB:       model.NEXSORTUpperIOs(),
			Flat:     model.MergeSortIOs(),
			ExactLB:  exact,
		}
		row.MeasuredOverUB = float64(res.TotalIOs) / row.UB
		rows = append(rows, row)
	}
	return rows, nil
}
