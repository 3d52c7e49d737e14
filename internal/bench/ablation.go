package bench

import (
	"nexsort/internal/gen"
)

// AblationConfig parameterizes the design-choice ablations.
type AblationConfig struct {
	Scale      Scale
	ScratchDir string
	MemBlocks  int
	Seed       int64
}

// AblationRow is one (document, option set) measurement.
type AblationRow struct {
	Doc      string
	Variant  string
	Result   *Result
	Baseline int64 // plain NEXSORT I/Os on the same document
}

// Ablation measures the two Section 3.2 techniques the paper discusses —
// compaction and graceful degeneration — against plain NEXSORT, the
// paper's Section 3.1 layout (degeneration is NEXSORT's default layout, so
// the plain and +compact rows select the paper's), on two document shapes:
//
//   - a hierarchical document, where compaction should shave I/Os and
//     degeneration should be neutral;
//
//   - a flat two-level document (the paper's worst case), where the
//     unoptimized algorithm wastes a pass and degeneration recovers it —
//     the paper describes the fix but measures without it, so this table
//     supplies the missing numbers.
func Ablation(cfg AblationConfig) ([]AblationRow, error) {
	mem := cfg.MemBlocks
	if mem == 0 {
		mem = 64
	}
	docs := []struct {
		name string
		spec Spec
	}{
		{"hierarchical(h=6)", gen.IBMSpec{Height: 11, MaxFanout: 6, MaxElements: cfg.Scale.n(60000), Seed: cfg.Seed + 1}},
		{"flat(h=2)", gen.CustomSpec{Fanouts: []int{int(cfg.Scale.n(60000)) - 1}, Seed: cfg.Seed + 2}},
	}
	variants := []struct {
		name        string
		compact     bool
		paperLayout bool
	}{
		{"plain", false, true},
		{"+compact", true, true},
		{"+degenerate", false, false},
		{"+both", true, false},
	}

	var rows []AblationRow
	for _, d := range docs {
		w, err := GenerateWorkload(d.spec, cfg.ScratchDir, "ablation-"+d.name+".xml")
		if err != nil {
			return nil, err
		}
		var baseline int64
		for _, v := range variants {
			res, err := Run(w, Params{
				Algo:        AlgoNEXSORT,
				BlockSize:   DefaultBlockSize,
				MemBlocks:   mem,
				Compact:     v.compact,
				PaperLayout: v.paperLayout,
				ScratchDir:  cfg.ScratchDir,
			})
			if err != nil {
				w.Close()
				return nil, err
			}
			if v.name == "plain" {
				baseline = res.TotalIOs
			}
			rows = append(rows, AblationRow{Doc: d.name, Variant: v.name, Result: res, Baseline: baseline})
		}
		w.Close()
	}
	return rows, nil
}

// AblationTable renders the ablation grid.
func AblationTable(rows []AblationRow) *Table {
	t := &Table{
		Title:  "Ablation — Section 3.2 techniques vs plain NEXSORT",
		Header: []string{"document", "variant", "IOs", "vs plain", "sim(s)", "subtree sorts", "incomplete runs"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Doc, r.Variant,
			d64(r.Result.TotalIOs),
			ratio(float64(r.Result.TotalIOs) / float64(r.Baseline)),
			f2(r.Result.SimSeconds),
			di(r.Result.SubtreeSorts),
			di(r.Result.IncompleteRuns),
		})
	}
	return t
}
