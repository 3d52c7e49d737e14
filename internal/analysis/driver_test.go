package analysis

// The nexvet driver end to end: the loader's testdata/vendor skipping,
// a seeded budget leak that fails the run, and the flag-free interface.

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

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

// TestSeededLeakFailsStandalone proves a seeded leak is red: `nexvet ./...`
// in a module whose em package leaks a budget grant exits non-zero with
// the NV001 finding.
func TestSeededLeakFailsStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the nexvet binary")
	}
	bin := buildNexvet(t, t.TempDir())
	cmd := exec.Command(bin, "./...")
	cmd.Dir = writeFakeModule(t)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("nexvet passed on a seeded budget leak:\n%s", out)
	}
	if !strings.Contains(string(out), "NV001") || !strings.Contains(string(out), "can reach the return") {
		t.Fatalf("nexvet output lacks the NV001 finding:\n%s", out)
	}
}

// TestNexvetTakesNoFlags pins the interface: `nexvet [packages]` is all
// there is, so any flag exits 2 with the usage line.
func TestNexvetTakesNoFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the nexvet binary")
	}
	bin := buildNexvet(t, t.TempDir())
	for _, flag := range []string{"-json", "-h", "-V=full"} {
		out, err := exec.Command(bin, flag, "./...").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "usage: nexvet [packages]") {
			t.Errorf("nexvet %s: err %v, output %q; want exit 2 with the usage line", flag, err, out)
		}
	}
}
