// Package clitest builds the command-line tools and exercises them end to
// end through their real interfaces: flags, stdin/stdout, files and exit
// codes — the coverage unit tests of main packages cannot provide.
package clitest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// binaries are built once per test run.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nexsort-cli-")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"nexsort", "xmlgen", "xmlmerge", "xmlcheck", "xmlstats", "nexbench"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "nexsort/cmd/"+tool)
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			panic("building " + tool + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/clitest -> repo root
}

// run executes a built tool and returns stdout, stderr and the exit code.
func run(t *testing.T, tool string, stdin string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code := 0
	if exitErr, ok := err.(*exec.ExitError); ok {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", tool, err)
	}
	return out.String(), errb.String(), code
}

var (
	statsTotalRE    = regexp.MustCompile(`total I/Os=(\d+)`)
	statsCategoryRE = regexp.MustCompile(`(?m)^\s+(\S+)\s+reads=(\d+)\s+writes=(\d+)`)
)

// checkStatsSum parses nexsort -stats output and requires the per-category
// reads= and writes= lines to sum to the total I/Os= line.
func checkStatsSum(t *testing.T, stats string) {
	t.Helper()
	m := statsTotalRE.FindStringSubmatch(stats)
	if m == nil {
		t.Fatalf("no total I/Os= line in -stats output:\n%s", stats)
	}
	total, _ := strconv.ParseInt(m[1], 10, 64)
	cats := statsCategoryRE.FindAllStringSubmatch(stats, -1)
	if len(cats) == 0 {
		t.Fatalf("no per-category reads=/writes= lines in -stats output:\n%s", stats)
	}
	var sum int64
	for _, c := range cats {
		r, _ := strconv.ParseInt(c[2], 10, 64)
		w, _ := strconv.ParseInt(c[3], 10, 64)
		sum += r + w
	}
	if sum != total {
		t.Errorf("-stats categories sum to %d I/Os, total I/Os=%d:\n%s", sum, total, stats)
	}
}

func TestGenerateSortCheckPipeline(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "doc.xml")
	sorted := filepath.Join(dir, "sorted.xml")

	_, stderr, code := run(t, "xmlgen", "", "-shape", "custom", "-fanouts", "25,25", "-out", doc)
	if code != 0 {
		t.Fatalf("xmlgen failed: %s", stderr)
	}
	if !strings.Contains(stderr, "651 elements") {
		t.Errorf("xmlgen stats: %s", stderr)
	}

	// The fresh document is (almost surely) not sorted.
	_, _, code = run(t, "xmlcheck", "", "-by", "@key", "-in", doc, "-q")
	if code != 1 {
		t.Errorf("xmlcheck on unsorted doc: exit %d, want 1", code)
	}

	_, stderr, code = run(t, "nexsort", "", "-by", "@key", "-in", doc, "-out", sorted,
		"-block", "1024", "-mem", "16384", "-stats")
	if code != 0 {
		t.Fatalf("nexsort failed: %s", stderr)
	}
	if !strings.Contains(stderr, "subtree sorts=") || !strings.Contains(stderr, "total I/Os=") {
		t.Errorf("nexsort -stats output: %s", stderr)
	}
	checkStatsSum(t, stderr)

	out, _, code := run(t, "xmlcheck", "", "-by", "@key", "-in", sorted)
	if code != 0 {
		t.Errorf("xmlcheck on sorted doc: exit %d (%s)", code, out)
	}
	if !strings.Contains(out, "sorted: 651 elements") {
		t.Errorf("xmlcheck output: %s", out)
	}
}

func TestSorterCLIAlgorithmsAgree(t *testing.T) {
	dir := t.TempDir()
	doc := filepath.Join(dir, "doc.xml")
	run(t, "xmlgen", "", "-shape", "ibm", "-height", "5", "-fanout", "5", "-seed", "3", "-out", doc, "-q")

	var outputs []string
	for _, algo := range []string{"nexsort", "mergesort", "inmemory"} {
		out, stderr, code := run(t, "nexsort", "", "-by", "@key", "-in", doc, "-algo", algo,
			"-block", "1024", "-mem", "32768", "-stats")
		if code != 0 {
			t.Fatalf("%s failed: %s", algo, stderr)
		}
		checkStatsSum(t, stderr)
		outputs = append(outputs, out)
	}
	if outputs[0] != outputs[1] || outputs[1] != outputs[2] {
		t.Error("CLI algorithms disagree")
	}
}

func TestSorterCLIStdinStdout(t *testing.T) {
	out, stderr, code := run(t, "nexsort", `<r><b k="2"/><a k="1"/></r>`,
		"-by", "@k", "-block", "256", "-mem", "8192")
	if code != 0 {
		t.Fatalf("stdin sort failed: %s", stderr)
	}
	want := `<r><a k="1"></a><b k="2"></b></r>`
	if out != want {
		t.Errorf("got %q, want %q", out, want)
	}
}

func TestMergeCLI(t *testing.T) {
	dir := t.TempDir()
	left := filepath.Join(dir, "l.xml")
	right := filepath.Join(dir, "r.xml")
	os.WriteFile(left, []byte(`<inv><item sku="B" q="1"/><item sku="A" q="2"/></inv>`), 0o644)
	os.WriteFile(right, []byte(`<inv><item sku="C" q="9"/><item sku="A" q="7"/></inv>`), 0o644)

	out, stderr, code := run(t, "xmlmerge", "", "-by", "item=@sku", "-left", left, "-right", right,
		"-update", "-block", "256", "-mem", "8192", "-stats")
	if code != 0 {
		t.Fatalf("xmlmerge failed: %s", stderr)
	}
	want := `<inv><item sku="A" q="7"></item><item sku="B" q="1"></item><item sku="C" q="9"></item></inv>`
	if out != want {
		t.Errorf("merged output: %q", out)
	}
	if !strings.Contains(stderr, "matched pairs") {
		t.Errorf("stats: %s", stderr)
	}
}

// TestCLIsRefuseInputAsOutput: nexsort and xmlmerge refuse an output path
// that names one of their inputs and leave that input as it was.
func TestCLIsRefuseInputAsOutput(t *testing.T) {
	dir := t.TempDir()
	left := filepath.Join(dir, "l.xml")
	right := filepath.Join(dir, "r.xml")
	docs := map[string]string{
		left:  `<inv><item sku="B" q="1"/><item sku="A" q="2"/></inv>`,
		right: `<inv><item sku="C" q="9"/><item sku="A" q="7"/></inv>`,
	}
	runs := [][]string{
		{"nexsort", "-by", "item=@sku", "-in", left, "-out", left},
		{"xmlmerge", "-by", "item=@sku", "-left", left, "-right", right, "-out", left},
		{"xmlmerge", "-by", "item=@sku", "-left", left, "-right", right, "-out", right},
		{"xmlmerge", "-by", "item=@sku", "-left", left, "-right", right, "-out", right, "-presorted"},
	}
	for _, args := range runs {
		for path, doc := range docs {
			if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, stderr, code := run(t, args[0], "", args[1:]...)
		if code != 1 || !strings.Contains(stderr, "same file") {
			t.Errorf("%v: exit %d, stderr %q; want a refusal", args, code, stderr)
		}
		for path, doc := range docs {
			if got, err := os.ReadFile(path); err != nil || string(got) != doc {
				t.Errorf("%v: %s is now %q (%v)", args, path, got, err)
			}
		}
	}
}

// TestMergeCLIRemovesPartialOutput: a failed merge leaves no output file,
// as a failed sort does not.
func TestMergeCLIRemovesPartialOutput(t *testing.T) {
	dir := t.TempDir()
	left := filepath.Join(dir, "l.xml")
	right := filepath.Join(dir, "r.xml")
	out := filepath.Join(dir, "out.xml")
	os.WriteFile(left, []byte(`<inv><item sku="A" q="2"/></inv>`), 0o644)
	os.WriteFile(right, []byte(`<inv><item sku="C" q="9"/><item sku=`), 0o644)
	for _, extra := range [][]string{nil, {"-presorted"}} {
		args := append([]string{"-by", "item=@sku", "-left", left, "-right", right, "-out", out}, extra...)
		if _, _, code := run(t, "xmlmerge", "", args...); code != 1 {
			t.Errorf("%v: exit %d, want 1", extra, code)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%v: partial output left behind: stat = %v", extra, err)
		}
	}
}

func TestBadUsageExitCodes(t *testing.T) {
	if _, _, code := run(t, "nexsort", "", "-in", "nope.xml"); code != 2 {
		t.Errorf("nexsort without -by: exit %d, want 2", code)
	}
	if _, _, code := run(t, "xmlcheck", ""); code != 2 {
		t.Errorf("xmlcheck without -by: exit %d, want 2", code)
	}
	if _, _, code := run(t, "xmlmerge", ""); code != 2 {
		t.Errorf("xmlmerge without flags: exit %d, want 2", code)
	}
	if _, stderr, code := run(t, "nexsort", "<a/>", "-by", "bogus spec"); code != 1 ||
		!strings.Contains(stderr, "unknown key source") {
		t.Errorf("bad criterion: exit %d, stderr %s", code, stderr)
	}
}

// TestNoRootElementFails: empty input has no root element, which xmlcheck
// and xmlstats report as the input error it is, as the sorters do.
func TestNoRootElementFails(t *testing.T) {
	if _, stderr, code := run(t, "xmlcheck", "", "-by", "@key"); code != 2 || !strings.Contains(stderr, "no root element") {
		t.Errorf("xmlcheck on empty stdin: exit %d, stderr %q", code, stderr)
	}
	if _, stderr, code := run(t, "xmlstats", ""); code == 0 || !strings.Contains(stderr, "no root element") {
		t.Errorf("xmlstats on empty stdin: exit %d, stderr %q", code, stderr)
	}
}

func TestNexbenchTable1(t *testing.T) {
	out, stderr, code := run(t, "nexbench", "", "-exp", "table1")
	if code != 0 {
		t.Fatalf("nexbench failed: %s", stderr)
	}
	for _, want := range []string{"/AC/Durham/323/name", "<name>Smith", "/NE"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
	// The unknown experiment exits 2, and removes the temporary workload
	// directory it made, as every exit does.
	tmp := t.TempDir()
	cmd := exec.Command(filepath.Join(binDir, "nexbench"), "-exp", "wat")
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	if err := cmd.Run(); cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 2 {
		t.Errorf("unknown experiment: %v, want exit 2", err)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) > 0 {
		t.Errorf("nexbench left %v in its temp directory (%v)", left, err)
	}
}

func TestXMLStatsCLI(t *testing.T) {
	out, stderr, code := run(t, "xmlstats", `<r><a k="1"><b/><b/></a><a k="2"/></r>`,
		"-block", "4096", "-mem", "65536", "-levels")
	if code != 0 {
		t.Fatalf("xmlstats failed: %s", stderr)
	}
	for _, want := range []string{"elements           5", "max fan-out (k)    2", "XML lower bound", "exact counting bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("xmlstats output missing %q:\n%s", want, out)
		}
	}
}

func TestXSortAndRecordOrderFlags(t *testing.T) {
	doc := `<lib><shelf id="2"><book id="9"/><book id="2"/></shelf><shelf id="1"/></lib>`
	out, stderr, code := run(t, "nexsort", doc, "-by", "@id", "-algo", "mergesort",
		"-xsort", "shelf", "-block", "256", "-mem", "8192")
	if code != 0 {
		t.Fatalf("xsort failed: %s", stderr)
	}
	// Shelves keep document order; books inside each shelf sort.
	want := `<lib><shelf id="2"><book id="2"></book><book id="9"></book></shelf><shelf id="1"></shelf></lib>`
	if out != want {
		t.Errorf("xsort output: %q", out)
	}

	out, stderr, code = run(t, "nexsort", `<r><b k="2"/><a k="1"/></r>`,
		"-by", "@k", "-record-order", "seq", "-block", "256", "-mem", "8192")
	if code != 0 {
		t.Fatalf("record-order failed: %s", stderr)
	}
	if !strings.Contains(out, `seq="000000000000"`) {
		t.Errorf("missing order stamps: %q", out)
	}
}

// TestExamplesRun builds and executes every example program; each must
// exit 0 and print its headline output.
func TestExamplesRun(t *testing.T) {
	cases := map[string]string{
		"quickstart":   "sorted document:",
		"companymerge": "merged document",
		"batchupdate":  "inventory after applying",
		"depthlimited": "depth-limited sort",
		"archive":      "final archive:",
	}
	for name, want := range cases {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(binDir, "example-"+name)
			build := exec.Command("go", "build", "-o", bin, "nexsort/examples/"+name)
			build.Dir = repoRoot()
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("building example %s: %v\n%s", name, err, out)
			}
			out, err := exec.Command(bin).CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", name, err, out)
			}
			if !strings.Contains(string(out), want) {
				t.Errorf("example %s output missing %q:\n%s", name, want, out)
			}
		})
	}
}
