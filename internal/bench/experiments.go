package bench

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"nexsort/internal/gen"
	"nexsort/internal/keypath"
	"nexsort/internal/keys"
	"nexsort/internal/xmltok"
)

// Scale multiplies every experiment's input size. 1.0 is the fast default
// (seconds per experiment); the paper's absolute scale would be roughly
// Scale 50-100 with proportionally larger blocks and memory.
//
// All defaults keep the *ratios* that drive the analysis close to the
// paper's regimes: the paper runs 3 M-element documents with 64 KiB blocks
// and 3-32 MB of memory (M/B from 48 to 512, B ≈ 430 elements); we default
// to 4 KiB blocks (B ≈ 27 elements at the standard 150-byte element), so a
// 120 k-element document against 48-512 blocks of memory sits in the same
// n/m band.
type Scale float64

func (s Scale) n(base int64) int64 {
	if s <= 0 {
		s = 1
	}
	return int64(float64(base) * float64(s))
}

// DefaultBlockSize is the experiments' block size.
const DefaultBlockSize = 4096

// fig6FanoutCap preserves the paper's k/B ≈ 0.2 at the 4 KiB block size.
const fig6FanoutCap = 6

// Fig5Config parameterizes the main-memory sweep of Figure 5.
type Fig5Config struct {
	Scale      Scale
	ScratchDir string
	// MemBlocks to sweep; nil selects the default ladder 12..512 blocks
	// (48 KiB - 2 MiB at the 4 KiB default block), mirroring the paper's
	// 3-32 MB at 64 KiB blocks.
	MemBlocks []int
	Seed      int64
}

// Fig5Row is one memory point.
type Fig5Row struct {
	MemBlocks int
	MemBytes  int
	Nex       *Result
	Merge     *Result
}

// Fig5 runs the Figure 5 experiment — "Effect of main memory size": one
// document, both algorithms, a ladder of memory budgets. The paper's
// findings to reproduce: merge sort is uniformly slower (13-27% there);
// NEXSORT's cost barely moves as memory shrinks, while merge sort's climbs
// and jumps where it is forced into extra passes.
func Fig5(cfg Fig5Config) ([]Fig5Row, *Workload, error) {
	mems := cfg.MemBlocks
	if mems == nil {
		// The paper sweeps 3-32 MB at 64 KiB blocks, i.e. M/B from 48 to
		// 512; the same band at the 4 KiB default block.
		mems = []int{24, 32, 48, 64, 96, 128, 192, 256, 384, 512}
	}
	// The paper reuses the sort-threshold experiment's document, produced
	// by the IBM generator with modest fan-outs ("when fan-outs are
	// small, NEXSORT is not very dependent on main memory size" — small k
	// keeps every subtree sort within even the smallest budget).
	// Height 11 with mean fan-out 3.5 makes the element cap bind, so the
	// document's size tracks Scale while k stays small.
	spec := gen.IBMSpec{
		Height:      11,
		MaxFanout:   6,
		MaxElements: cfg.Scale.n(120000),
		Seed:        cfg.Seed + 5,
	}
	w, err := GenerateWorkload(spec, cfg.ScratchDir, "fig5.xml")
	if err != nil {
		return nil, nil, err
	}

	var rows []Fig5Row
	for _, m := range mems {
		row := Fig5Row{MemBlocks: m, MemBytes: m * DefaultBlockSize}
		if row.Nex, err = Run(w, Params{Algo: AlgoNEXSORT, PaperLayout: true, BlockSize: DefaultBlockSize, MemBlocks: m, Compact: true, ScratchDir: cfg.ScratchDir}); err != nil {
			return nil, nil, err
		}
		if row.Merge, err = Run(w, Params{Algo: AlgoMergeSort, PaperLayout: true, BlockSize: DefaultBlockSize, MemBlocks: m, Compact: true, ScratchDir: cfg.ScratchDir}); err != nil {
			return nil, nil, err
		}
		rows = append(rows, row)
	}
	return rows, w, nil
}

// Fig6Config parameterizes the input-size sweep of Figure 6.
type Fig6Config struct {
	Scale      Scale
	ScratchDir string
	// Sizes in elements; nil selects the default geometric ladder.
	Sizes []int64
	// MemBlocks fixes the memory budget (default 16 blocks = 64 KiB,
	// the analogue of the paper's 3 MB against its far larger inputs).
	MemBlocks int
	Seed      int64
}

// Fig6Row is one input size.
type Fig6Row struct {
	Elements int64
	Stats    gen.Stats
	Nex      *Result
	Merge    *Result
}

// Fig6 runs the Figure 6 experiment — "Effect of input size with constant
// maximum fan-out": a series of documents growing ~100x with a constant
// fan-out cap, both algorithms at a small fixed memory. The findings to
// reproduce: NEXSORT grows linearly in input size (its log factor
// log_{M/B}(kt/B) does not depend on N); merge sort grows superlinearly,
// with visible jumps where log_{M/B}(N/B) crosses to an extra pass.
//
// The paper caps fan-out at 85 against B ≈ 430 elements per block, so
// k/B ≈ 0.2 — the regime where every subtree sort fits in memory and the
// XML lower bound degenerates to a scan. We preserve that ratio at our
// block size: k ≤ 6 against B ≈ 27.
func Fig6(cfg Fig6Config) ([]Fig6Row, error) {
	sizes := cfg.Sizes
	if sizes == nil {
		sizes = []int64{
			cfg.Scale.n(4000), cfg.Scale.n(12000), cfg.Scale.n(40000),
			cfg.Scale.n(120000), cfg.Scale.n(400000),
		}
	}
	mem := cfg.MemBlocks
	if mem == 0 {
		mem = 48 // the paper's 3 MB at 64 KiB blocks
	}
	var rows []Fig6Row
	for i, n := range sizes {
		spec := gen.CappedShape(n, fig6FanoutCap)
		spec.Seed = cfg.Seed + int64(i)
		w, err := GenerateWorkload(spec, cfg.ScratchDir, fmt.Sprintf("fig6-%d.xml", n))
		if err != nil {
			return nil, err
		}
		row := Fig6Row{Elements: spec.Elements(), Stats: w.Stats}
		if row.Nex, err = Run(w, Params{Algo: AlgoNEXSORT, PaperLayout: true, BlockSize: DefaultBlockSize, MemBlocks: mem, Compact: true, ScratchDir: cfg.ScratchDir}); err != nil {
			return nil, err
		}
		if row.Merge, err = Run(w, Params{Algo: AlgoMergeSort, PaperLayout: true, BlockSize: DefaultBlockSize, MemBlocks: mem, Compact: true, ScratchDir: cfg.ScratchDir}); err != nil {
			return nil, err
		}
		w.Close()
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig7Config parameterizes the tree-shape sweep of Figure 7 / Table 2.
type Fig7Config struct {
	Scale      Scale
	ScratchDir string
	// MemBlocks fixes the memory budget (default 64 blocks = 256 KiB,
	// the analogue of the paper's 4 MB).
	MemBlocks int
	Seed      int64
}

// Fig7Row is one input shape (Table 2 row + Figure 7 points).
type Fig7Row struct {
	Height   int
	Fanouts  []int
	Elements int64
	Nex      *Result
	Merge    *Result
}

// Fig7 runs the tree-shape experiment — Table 2's five document shapes
// (heights 2-6, near-constant size) and Figure 7's timings over them. The
// findings to reproduce: at height 2 (a flat file) NEXSORT — in the
// paper's layout, without the degeneration optimization, exactly like the
// paper's implementation — is
// worse than merge sort; past the critical height the fan-out drops enough
// for subtree sorts to fit in memory and NEXSORT wins decisively; merge
// sort degrades slowly with height as key paths lengthen.
func Fig7(cfg Fig7Config) ([]Fig7Row, error) {
	mem := cfg.MemBlocks
	if mem == 0 {
		// The paper's 4 MB at 64 KiB blocks; sized so the height-4
		// shape's level-2 subtrees fit in the sort area (f² elements just
		// under memory), the same relationship the paper's Table 2
		// shapes have to its 4 MB.
		mem = 96
	}
	specs := gen.ScaledShapeSeries(cfg.Scale.n(100000), 6)
	var rows []Fig7Row
	for i, spec := range specs {
		spec.Seed = cfg.Seed + int64(i)
		w, err := GenerateWorkload(spec, cfg.ScratchDir, fmt.Sprintf("fig7-h%d.xml", i+2))
		if err != nil {
			return nil, err
		}
		row := Fig7Row{Height: i + 2, Fanouts: spec.Fanouts, Elements: spec.Elements()}
		if row.Nex, err = Run(w, Params{Algo: AlgoNEXSORT, PaperLayout: true, BlockSize: DefaultBlockSize, MemBlocks: mem, Compact: true, ScratchDir: cfg.ScratchDir}); err != nil {
			return nil, err
		}
		if row.Merge, err = Run(w, Params{Algo: AlgoMergeSort, PaperLayout: true, BlockSize: DefaultBlockSize, MemBlocks: mem, Compact: true, ScratchDir: cfg.ScratchDir}); err != nil {
			return nil, err
		}
		w.Close()
		rows = append(rows, row)
	}
	return rows, nil
}

// ThresholdConfig parameterizes the sort-threshold sweep (discussed in
// Section 5, curve omitted from the paper for space).
type ThresholdConfig struct {
	Scale      Scale
	ScratchDir string
	// Thresholds in block multiples; nil selects {1/2, 1, 2, 4, 8, 16, 32}.
	ThresholdBlocks []float64
	MemBlocks       int
	Seed            int64
}

// ThresholdRow is one threshold point.
type ThresholdRow struct {
	Threshold float64 // in blocks
	Nex       *Result
}

// Threshold runs the sort-threshold experiment: the same document under a
// ladder of t values. The paper's (unshown) finding to reproduce is the
// U-shape: a tiny threshold causes many small sorts whose per-run overhead
// dominates; an oversized threshold forces multi-level subtrees into
// external sorts that ignore the structure; "roughly twice the block size
// works well for most inputs".
func Threshold(cfg ThresholdConfig) ([]ThresholdRow, error) {
	factors := cfg.ThresholdBlocks
	if factors == nil {
		factors = []float64{0.5, 1, 2, 4, 8, 16, 32}
	}
	mem := cfg.MemBlocks
	if mem == 0 {
		mem = 24
	}
	spec := gen.IBMSpec{
		Height:      11,
		MaxFanout:   6,
		MaxElements: cfg.Scale.n(120000),
		Seed:        cfg.Seed + 5,
	}
	w, err := GenerateWorkload(spec, cfg.ScratchDir, "threshold.xml")
	if err != nil {
		return nil, err
	}
	defer w.Close()

	var rows []ThresholdRow
	for _, f := range factors {
		t := int(f * DefaultBlockSize)
		if t < 1 {
			t = 1
		}
		res, err := Run(w, Params{Algo: AlgoNEXSORT, PaperLayout: true, BlockSize: DefaultBlockSize, MemBlocks: mem, Threshold: t, Compact: true, ScratchDir: cfg.ScratchDir})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ThresholdRow{Threshold: f, Nex: res})
	}
	return rows, nil
}

// Table2 returns the paper's Table 2 verbatim (full scale) alongside the
// scaled shapes the Figure 7 run actually uses.
func Table2(scale Scale) (paper []gen.CustomSpec, scaled []gen.CustomSpec) {
	return gen.Table2Spec(), gen.ScaledShapeSeries(scale.n(120000), 6)
}

// Table1 reproduces the paper's Table 1: the key-path representation of
// document D1 from Figure 1, sorted.
func Table1() ([]keypath.Row, error) {
	const d1 = `<company>
  <region name="NE"/>
  <region name="AC">
    <branch name="Durham">
      <employee ID="454"/>
      <employee ID="323"><name>Smith</name><phone>5552345</phone></employee>
    </branch>
    <branch name="Atlanta"/>
  </region>
</company>`
	crit := &keys.Criterion{Rules: []keys.Rule{
		{Tag: "region", Source: keys.ByAttr("name")},
		{Tag: "branch", Source: keys.ByAttr("name")},
		{Tag: "employee", Source: keys.ByAttr("ID")},
		{Tag: "", Source: keys.ByTag()},
	}}
	parser := xmltok.NewParser(strings.NewReader(d1), xmltok.DefaultParserOptions())
	annot := keys.NewAnnotator(crit, nil)
	extract := keypath.NewExtractor()
	var recs []keypath.Record
	for {
		tok, err := parser.NextEncoded()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if tok, err = annot.Annotate(tok); err != nil {
			return nil, err
		}
		buf, ok, err := extract.Append(nil, tok)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		rec, err := keypath.ReadRecord(bytes.NewReader(buf))
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Compare(recs[j]) < 0 })
	return keypath.FormatTable(recs), nil
}
