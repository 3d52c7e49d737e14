package nexsort

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHardenedConfigSortsIdentically checks that turning on the full
// hardening stack (checksums + retry) changes neither the output bytes nor
// the counted block transfers of a fault-free sort.
func TestHardenedConfigSortsIdentically(t *testing.T) {
	crit := apiCriterion()
	plainCfg := Config{BlockSize: 256, MemoryBytes: 16 * 256, InMemory: true}
	hardCfg := plainCfg
	hardCfg.VerifyChecksums = true
	hardCfg.Retry = RetryPolicy{MaxRetries: 3, RetryCorruptReads: true}

	var plain, hard strings.Builder
	pres, err := Sort(strings.NewReader(apiDoc), &plain, plainCfg, Options{Criterion: crit})
	if err != nil {
		t.Fatal(err)
	}
	hres, err := Sort(strings.NewReader(apiDoc), &hard, hardCfg, Options{Criterion: crit})
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != hard.String() {
		t.Error("hardened sort produced different output")
	}
	if pres.TotalIOs != hres.TotalIOs {
		t.Errorf("hardened sort counted %d I/Os, plain counted %d", hres.TotalIOs, pres.TotalIOs)
	}
}

// TestSortFileRemovesPartialOutput checks the no-partial-results contract:
// a failing sort must not leave a half-written output file behind.
func TestSortFileRemovesPartialOutput(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "bad.xml")
	outPath := filepath.Join(dir, "out.xml")
	// Malformed input: the sort starts writing, then hits the parse error.
	if err := os.WriteFile(inPath, []byte("<root><a></b></root>"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := SortFile(inPath, outPath, Config{InMemory: true, BlockSize: 256, MemoryBytes: 16 * 256}, Options{Criterion: apiCriterion()})
	if err == nil {
		t.Fatal("sort of malformed input succeeded")
	}
	if _, statErr := os.Stat(outPath); !errors.Is(statErr, os.ErrNotExist) {
		t.Errorf("partial output left behind: stat = %v", statErr)
	}
}

// TestMergeFilesRemovesPartialOutput does the same for the file-path merge.
func TestMergeFilesRemovesPartialOutput(t *testing.T) {
	dir := t.TempDir()
	leftPath := filepath.Join(dir, "left.xml")
	rightPath := filepath.Join(dir, "right.xml")
	outPath := filepath.Join(dir, "merged.xml")
	if err := os.WriteFile(leftPath, []byte(`<r><e ID="1"/></r>`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Malformed right side: the merge fails mid-stream.
	if err := os.WriteFile(rightPath, []byte(`<r><e ID="2">`), 0o644); err != nil {
		t.Fatal(err)
	}
	crit := &Criterion{Rules: []Rule{{Source: ByAttr("ID")}}}

	if _, err := MergeFiles(leftPath, rightPath, outPath, crit, MergeOptions{}); err == nil {
		t.Fatal("merge of malformed input succeeded")
	}
	if _, statErr := os.Stat(outPath); !errors.Is(statErr, os.ErrNotExist) {
		t.Errorf("partial merge output left behind: stat = %v", statErr)
	}

	// And the success path produces a real file.
	if err := os.WriteFile(rightPath, []byte(`<r><e ID="2"/></r>`), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := MergeFiles(leftPath, rightPath, outPath, crit, MergeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("nil merge report")
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`ID="1"`, `ID="2"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("merged output missing %s: %q", want, data)
		}
	}
}

// TestErrorHelperExports checks the re-exported failure-model helpers
// against the internal layer's sentinel.
func TestErrorHelperExports(t *testing.T) {
	if !IsCorrupt(ErrCorruptBlock) {
		t.Error("IsCorrupt(ErrCorruptBlock) = false")
	}
	if !errors.Is(ErrCorruptBlock, ErrCorruptBlock) {
		t.Error("ErrCorruptBlock does not match itself")
	}
	if IsTransient(ErrCorruptBlock) {
		t.Error("IsTransient(ErrCorruptBlock) = true")
	}
	if IsCorrupt(nil) || IsTransient(nil) {
		t.Error("nil error classified as a fault")
	}
}

// TestFileAPIsRefuseInputAsOutput: an output path naming an input file is
// refused before the output is created, so the input is left byte for byte
// as it was. Creating the output would truncate the input first.
func TestFileAPIsRefuseInputAsOutput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, doc string) (string, []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path, []byte(doc)
	}
	unchanged := func(path string, want []byte) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed: %q", path, got)
		}
	}
	refused := func(err error, outPath string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), outPath) {
			t.Errorf("err = %v, want a refusal naming %s", err, outPath)
		}
	}

	docPath, doc := write("doc.xml", apiDoc)
	_, err := SortFile(docPath, docPath, Config{InMemory: true, BlockSize: 256, MemoryBytes: 16 * 256}, Options{Criterion: apiCriterion()})
	refused(err, docPath)
	unchanged(docPath, doc)

	crit := &Criterion{Rules: []Rule{{Source: ByAttr("ID")}}}
	leftPath, left := write("left.xml", `<r><e ID="1"/></r>`)
	rightPath, right := write("right.xml", `<r><e ID="2"/></r>`)
	for _, outPath := range []string{leftPath, rightPath} {
		_, err := MergeFiles(leftPath, rightPath, outPath, crit, MergeOptions{})
		refused(err, outPath)
		unchanged(leftPath, left)
		unchanged(rightPath, right)
	}
}
