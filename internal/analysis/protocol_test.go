package analysis

// Edge cases of the `go vet -vettool` unit-checker protocol and of the
// standalone loader: cache-key behavior of -V=full, testdata/vendor
// skipping, and an end-to-end proof that a seeded budget leak fails
// BOTH drive modes — go vet's per-package protocol and nexvet's own
// whole-tree loader must agree on what is red.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVersionLineTracksBinaryContent pins the -V=full contract: the line is
// cmd/go's cache key for the vettool, so it MUST change when the binary's
// bytes change (else a rebuilt nexvet replays stale vet results) and MUST
// stay identical for identical bytes (else every run is a cache miss).
func TestVersionLineTracksBinaryContent(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "nexvet.build1")
	v2 := filepath.Join(dir, "nexvet.build2")
	if err := os.WriteFile(v1, []byte("binary with analyzer A"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(v2, []byte("binary with analyzer A and a fix"), 0o755); err != nil {
		t.Fatal(err)
	}

	l1 := VersionLine("nexvet", v1)
	l2 := VersionLine("nexvet", v2)
	if !strings.HasPrefix(l1, "nexvet version devel buildID=") {
		t.Fatalf("version line format: %q", l1)
	}
	if l1 == l2 {
		t.Fatalf("different binary contents produced the same cache key %q — driver would reuse stale vet results after a rebuild", l1)
	}
	if again := VersionLine("nexvet", v1); again != l1 {
		t.Fatalf("same binary produced different keys %q vs %q — every vet run would miss the cache", l1, again)
	}
	if line := VersionLine("nexvet", filepath.Join(dir, "absent")); !strings.Contains(line, "unknown") {
		t.Fatalf("unreadable executable must degrade to an 'unknown' key, got %q", line)
	}
}

// TestSkipListedPackage pins the loader's support-material filter: testdata
// fixtures and vendored trees swept up by explicit patterns are never
// analysis targets, but a module that itself lives under a testdata/
// directory (the golden suites' nexvet.example) analyzes its own packages.
func TestSkipListedPackage(t *testing.T) {
	mod := &struct {
		Path string
		Dir  string
	}{Path: "example.com/m", Dir: "/home/u/src/m"}
	fixtureMod := &struct {
		Path string
		Dir  string
	}{Path: "nexvet.example", Dir: "/repo/internal/analysis/testdata"}

	cases := []struct {
		name string
		pkg  listedPackage
		skip bool
	}{
		{"normal package", listedPackage{Dir: "/home/u/src/m/internal/em", Module: mod}, false},
		{"testdata below module root", listedPackage{Dir: "/home/u/src/m/internal/analysis/testdata/internal/fb", Module: mod}, true},
		{"vendor below module root", listedPackage{Dir: "/home/u/src/m/vendor/example.com/dep", Module: mod}, true},
		{"module rooted inside a testdata dir", listedPackage{Dir: "/repo/internal/analysis/testdata/internal/fb", Module: fixtureMod}, false},
		{"no module info, testdata in path", listedPackage{Dir: "/tmp/x/testdata/y"}, true},
	}
	for _, tc := range cases {
		if got := skipListedPackage(&tc.pkg); got != tc.skip {
			t.Errorf("%s (%s): skip=%v, want %v", tc.name, tc.pkg.Dir, got, tc.skip)
		}
	}
}

// buildNexvet compiles cmd/nexvet into dir and returns the binary path.
func buildNexvet(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "nexvet")
	cmd := exec.Command("go", "build", "-o", bin, "nexsort/cmd/nexvet")
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Dir = filepath.Dir(filepath.Dir(cwd)) // internal/analysis -> repo root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building nexvet: %v\n%s", err, out)
	}
	return bin
}

// fakeBudget is the fake em package's Budget: NV001 keys on the type's name
// and on its package path ending in internal/em, not on its behavior.
const fakeBudget = `package em

type Budget struct{ used int }

func (b *Budget) Grant(n int) error { b.used += n; return nil }
func (b *Budget) Release(n int)     { b.used -= n }
`

// leakyFill is the seeded defect: a grant that reaches a return with no
// release, no defer and no ownership transfer — what NV001 exists to catch.
const leakyFill = `package em

func Fill(b *Budget) error {
	if err := b.Grant(1); err != nil {
		return err
	}
	return nil
}
`

// writeFakeModule lays out a minimal external module whose em package has a
// seeded budget leak.
func writeFakeModule(t *testing.T) string {
	t.Helper()
	mod := t.TempDir()
	files := map[string]string{
		"go.mod":                "module fakeem.example\n\ngo 1.22\n",
		"internal/em/budget.go": fakeBudget,
		"internal/em/fill.go":   leakyFill,
	}
	for name, content := range files {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return mod
}

// TestSeededLeakFailsBothModes proves the two drive modes agree: the same
// leaked budget grant is red under `go vet -vettool=nexvet` (the
// protocol path through .cfg files and export data) and under standalone
// `nexvet ./...` (the go list loader), and the standalone -json stream
// carries the finding in machine-readable form.
func TestSeededLeakFailsBothModes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the nexvet binary and invokes go vet")
	}
	bin := buildNexvet(t, t.TempDir())
	mod := writeFakeModule(t)

	// Standalone mode.
	standalone := exec.Command(bin, "./...")
	standalone.Dir = mod
	out, err := standalone.CombinedOutput()
	if err == nil {
		t.Fatalf("standalone nexvet passed on a seeded budget leak:\n%s", out)
	}
	if !strings.Contains(string(out), "NV001") || !strings.Contains(string(out), "can reach the return") {
		t.Fatalf("standalone output lacks the NV001 finding:\n%s", out)
	}

	// go vet -vettool mode.
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = mod
	out, err = vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed on a seeded budget leak:\n%s", out)
	}
	if !strings.Contains(string(out), "NV001") {
		t.Fatalf("vettool output lacks the NV001 finding:\n%s", out)
	}

	// -json mode: every line parses, and the finding is present, not baselined.
	jsonRun := exec.Command(bin, "-json", "./...")
	jsonRun.Dir = mod
	var stdout bytes.Buffer
	jsonRun.Stdout = &stdout
	if err := jsonRun.Run(); err == nil {
		t.Fatal("-json run must still exit non-zero on findings")
	}
	found := false
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		var d struct {
			Analyzer  string `json:"analyzer"`
			Code      string `json:"code"`
			File      string `json:"file"`
			Line      int    `json:"line"`
			Message   string `json:"message"`
			Baselined bool   `json:"baselined"`
		}
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("non-JSON line in -json output: %q (%v)", sc.Text(), err)
		}
		if d.Code == "NV001" && d.Analyzer == "framebalance" && !d.Baselined && d.Line > 0 &&
			strings.HasSuffix(d.File, "internal/em/fill.go") {
			found = true
		}
	}
	if !found {
		t.Fatalf("-json stream lacks the NV001 diagnostic:\n%s", stdout.String())
	}
}

// TestVettoolCacheInvalidation drives the stale-cache-key scenario end to
// end: after a clean `go vet -vettool` run is cached, editing the analyzed
// source must re-trigger analysis and fail — the driver's cache key
// includes the package content, and nexvet's -V=full line must not mask
// the change.
func TestVettoolCacheInvalidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the nexvet binary and invokes go vet twice")
	}
	bin := buildNexvet(t, t.TempDir())
	mod := writeFakeModule(t)
	src := filepath.Join(mod, "internal", "em", "fill.go")

	// First: make the module clean (release the grant), vet passes and caches.
	clean := `package em

func Fill(b *Budget) error {
	if err := b.Grant(1); err != nil {
		return err
	}
	defer b.Release(1)
	return nil
}
`
	if err := os.WriteFile(src, []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = mod
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("clean module must vet green: %v\n%s", err, out)
	}

	// Then: seed the leak back in. A stale cache would replay the green
	// result; the content-addressed key must force re-analysis.
	if err := os.WriteFile(src, []byte(leakyFill), 0o644); err != nil {
		t.Fatal(err)
	}
	vet = exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = mod
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("stale vet cache replayed a green result after the source changed:\n%s", out)
	}
	if !strings.Contains(string(out), "NV001") {
		t.Fatalf("re-vet after edit lacks the NV001 finding:\n%s", out)
	}
}
