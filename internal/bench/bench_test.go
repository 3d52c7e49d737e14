package bench

import (
	"strings"
	"testing"

	"nexsort/internal/gen"
)

// testScale keeps unit tests fast; the real experiments run at Scale 1+
// through cmd/nexbench and the top-level benchmarks.
const testScale = Scale(0.04)

func TestWorkloadLifecycle(t *testing.T) {
	dir := t.TempDir()
	w, err := GenerateWorkload(gen.CustomSpec{Fanouts: []int{5, 5}, Seed: 1}, dir, "w.xml")
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats.Elements != 31 {
		t.Errorf("Elements = %d", w.Stats.Elements)
	}
	res, err := Run(w, Params{Algo: AlgoNEXSORT, BlockSize: 256, MemBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements != 31 || res.TotalIOs == 0 {
		t.Errorf("run result: %+v", res)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(w, Params{Algo: AlgoNEXSORT, BlockSize: 256, MemBlocks: 16}); err == nil {
		t.Error("run after Close should fail (file removed)")
	}
}

func TestBothAlgosAgreeOnElements(t *testing.T) {
	dir := t.TempDir()
	w, err := GenerateWorkload(gen.CappedShape(1500, 20), dir, "agree.xml")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	nex, err := Run(w, Params{Algo: AlgoNEXSORT, BlockSize: 512, MemBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Run(w, Params{Algo: AlgoMergeSort, BlockSize: 512, MemBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if nex.Elements != ms.Elements || nex.Elements != w.Stats.Elements {
		t.Errorf("element counts: nex=%d ms=%d gen=%d", nex.Elements, ms.Elements, w.Stats.Elements)
	}
	if ms.Passes < 1 {
		t.Errorf("merge sort passes = %d", ms.Passes)
	}
}

func TestFig5Shape(t *testing.T) {
	rows, w, err := Fig5(Fig5Config{Scale: 0.2, ScratchDir: "", MemBlocks: []int{24, 48, 256}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Paper finding 1: merge sort slower at every memory size.
	for _, r := range rows {
		if r.Merge.TotalIOs <= r.Nex.TotalIOs {
			t.Errorf("mem=%d: merge sort not slower (%d vs %d IOs)",
				r.MemBlocks, r.Merge.TotalIOs, r.Nex.TotalIOs)
		}
	}
	// Paper finding 2: as memory shrinks, NEXSORT barely moves while
	// merge sort climbs: the spread between the two widens.
	low, high := rows[0], rows[len(rows)-1]
	spreadLow := float64(low.Merge.TotalIOs) / float64(low.Nex.TotalIOs)
	spreadHigh := float64(high.Merge.TotalIOs) / float64(high.Nex.TotalIOs)
	if spreadLow <= spreadHigh {
		t.Errorf("spread did not widen at low memory: %.2f (m=%d) vs %.2f (m=%d)",
			spreadLow, low.MemBlocks, spreadHigh, high.MemBlocks)
	}
	// NEXSORT near-flat: low-memory cost within 2x of high-memory cost.
	if float64(low.Nex.TotalIOs) > 2*float64(high.Nex.TotalIOs) {
		t.Errorf("NEXSORT too memory-sensitive: %d @m=%d vs %d @m=%d",
			low.Nex.TotalIOs, low.MemBlocks, high.Nex.TotalIOs, high.MemBlocks)
	}
	var sb strings.Builder
	if err := Fig5Table(rows).Fprint(&sb); err != nil || !strings.Contains(sb.String(), "mem(KiB)") {
		t.Errorf("table render: %v\n%s", err, sb.String())
	}
}

func TestFig6Shape(t *testing.T) {
	rows, err := Fig6(Fig6Config{Scale: testScale, Sizes: []int64{1000, 4000, 16000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Paper finding: NEXSORT linear in input size — I/Os per element
	// roughly constant across a 16x size range.
	perElemFirst := float64(rows[0].Nex.TotalIOs) / float64(rows[0].Elements)
	perElemLast := float64(rows[len(rows)-1].Nex.TotalIOs) / float64(rows[len(rows)-1].Elements)
	if perElemLast > perElemFirst*1.5 {
		t.Errorf("NEXSORT superlinear: %.4f -> %.4f IOs/element", perElemFirst, perElemLast)
	}
	// Merge sort's passes grow with input size.
	if rows[len(rows)-1].Merge.Passes < rows[0].Merge.Passes {
		t.Errorf("merge passes shrank with size: %d -> %d",
			rows[0].Merge.Passes, rows[len(rows)-1].Merge.Passes)
	}
	var sb strings.Builder
	if err := Fig6Table(rows).Fprint(&sb); err != nil {
		t.Error(err)
	}
}

func TestFig7Shape(t *testing.T) {
	rows, err := Fig7(Fig7Config{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want heights 2-6", len(rows))
	}
	// Paper finding 1: on the flat two-level input, unoptimized NEXSORT
	// loses to merge sort.
	if rows[0].Height != 2 || rows[0].Nex.TotalIOs <= rows[0].Merge.TotalIOs {
		t.Errorf("height 2: NEXSORT should lose (%d vs %d IOs)",
			rows[0].Nex.TotalIOs, rows[0].Merge.TotalIOs)
	}
	// Paper finding 2: past the critical height NEXSORT wins clearly.
	deepest := rows[len(rows)-1]
	if deepest.Nex.TotalIOs >= deepest.Merge.TotalIOs {
		t.Errorf("height %d: NEXSORT should win (%d vs %d IOs)",
			deepest.Height, deepest.Nex.TotalIOs, deepest.Merge.TotalIOs)
	}
	var sb strings.Builder
	if err := Fig7Table(rows).Fprint(&sb); err != nil {
		t.Error(err)
	}
}

func TestThresholdShape(t *testing.T) {
	rows, err := Threshold(ThresholdConfig{Scale: testScale, ThresholdBlocks: []float64{0.25, 2, 64}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// The U-shape: the paper's recommended t=2 blocks beats both a tiny
	// and a huge threshold.
	mid := rows[1].Nex.TotalIOs
	if rows[0].Nex.SubtreeSorts <= rows[1].Nex.SubtreeSorts {
		t.Errorf("tiny threshold should cause more subtree sorts: %d vs %d",
			rows[0].Nex.SubtreeSorts, rows[1].Nex.SubtreeSorts)
	}
	if rows[2].Nex.TotalIOs <= mid {
		t.Errorf("huge threshold should cost more I/O: %d vs %d", rows[2].Nex.TotalIOs, mid)
	}
	var sb strings.Builder
	if err := ThresholdTable(rows).Fprint(&sb); err != nil {
		t.Error(err)
	}
}

func TestBoundsShape(t *testing.T) {
	rows, err := Bounds(BoundsConfig{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows", len(rows))
	}
	// Theorem 4.5 empirically: the measured/UB constant stays within a
	// modest band across the whole grid — no drift with k, N, or m.
	minC, maxC := rows[0].MeasuredOverUB, rows[0].MeasuredOverUB
	for _, r := range rows {
		if r.MeasuredOverUB <= 0 {
			t.Errorf("%s: nonpositive ratio", r.Label)
		}
		if r.MeasuredOverUB < minC {
			minC = r.MeasuredOverUB
		}
		if r.MeasuredOverUB > maxC {
			maxC = r.MeasuredOverUB
		}
		if r.UB < r.LB {
			t.Errorf("%s: UB %f below LB %f", r.Label, r.UB, r.LB)
		}
	}
	if maxC > 12*minC {
		t.Errorf("constant drifts too much: [%.2f, %.2f]", minC, maxC)
	}
	var sb strings.Builder
	if err := BoundsTable(rows).Fprint(&sb); err != nil {
		t.Error(err)
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9 (Table 1)", len(rows))
	}
	if rows[0].Path != "/" || rows[0].Content != "<company>" {
		t.Errorf("first row = %+v", rows[0])
	}
	if rows[5].Path != "/AC/Durham/323/name" || rows[5].Content != "<name>Smith" {
		t.Errorf("name row = %+v", rows[5])
	}
	var sb strings.Builder
	if err := Table1Render(rows).Fprint(&sb); err != nil {
		t.Error(err)
	}
	if !strings.Contains(sb.String(), "/AC/Durham/323/phone") {
		t.Errorf("table output:\n%s", sb.String())
	}
}

func TestTable2(t *testing.T) {
	paper, scaled := Table2(testScale)
	if len(paper) != 5 || len(scaled) != 5 {
		t.Fatalf("lengths %d, %d", len(paper), len(scaled))
	}
	if paper[1].Elements() != 3005023 {
		t.Errorf("paper height-3 = %d", paper[1].Elements())
	}
	var sb strings.Builder
	if err := Table2Render(paper, scaled).Fprint(&sb); err != nil {
		t.Error(err)
	}
	if !strings.Contains(sb.String(), "1733") {
		t.Errorf("table output:\n%s", sb.String())
	}
}

func TestAblationShape(t *testing.T) {
	rows, err := Ablation(AblationConfig{Scale: 0.05, MemBlocks: 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 2 documents x 4 variants
		t.Fatalf("%d rows", len(rows))
	}
	byKey := map[string]*Result{}
	for _, r := range rows {
		byKey[r.Doc+"/"+r.Variant] = r.Result
	}
	// Degeneration must cut incomplete runs on the flat document and
	// reduce its I/O relative to plain.
	flatPlain := byKey["flat(h=2)/plain"]
	flatDegen := byKey["flat(h=2)/+degenerate"]
	if flatDegen.IncompleteRuns == 0 {
		t.Error("no incomplete runs cut on the flat document")
	}
	if flatDegen.TotalIOs >= flatPlain.TotalIOs {
		t.Errorf("degeneration did not help the flat document: %d vs %d",
			flatDegen.TotalIOs, flatPlain.TotalIOs)
	}
	// Compaction must not hurt.
	hPlain := byKey["hierarchical(h=6)/plain"]
	hCompact := byKey["hierarchical(h=6)/+compact"]
	if hCompact.TotalIOs > hPlain.TotalIOs {
		t.Errorf("compaction increased I/O: %d vs %d", hCompact.TotalIOs, hPlain.TotalIOs)
	}
	var sb strings.Builder
	if err := AblationTable(rows).Fprint(&sb); err != nil || !strings.Contains(sb.String(), "+degenerate") {
		t.Errorf("table render: %v", err)
	}
}

func TestAlgoString(t *testing.T) {
	if AlgoNEXSORT.String() != "NeXSort" || AlgoMergeSort.String() != "Merge Sort" {
		t.Error("algo names")
	}
}
