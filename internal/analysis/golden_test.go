package analysis

// Golden tests in the style of golang.org/x/tools' analysistest, without
// the dependency: each package under testdata/ annotates the lines it
// expects diagnostics on with `// want "regexp"` comments, the runner
// loads the package through the same go list -export pipeline nexvet uses
// in anger, runs ONE analyzer, and diffs actual against expected.

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestFrameBalanceGolden(t *testing.T) { runGolden(t, FrameBalance, "./internal/fb") }
func TestIOPurityGolden(t *testing.T)     { runGolden(t, IOPurity, "./internal/ioviol") }
func TestDetPtrGolden(t *testing.T) {
	runGolden(t, DetPtr, "./internal/core")  // in scope
	runGolden(t, DetPtr, "./internal/plain") // out of scope: must stay silent
}
func TestCtxFlowGolden(t *testing.T) {
	runGolden(t, CtxFlow, "./internal/ctxviol") // library: roots and stored ctx flagged
	runGolden(t, CtxFlow, "./internal/ctxmain") // package main: must stay silent
}
func TestLockGuardGolden(t *testing.T) { runGolden(t, LockGuard, "./internal/locks") }

// want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func (w *want) String() string {
	return fmt.Sprintf("%s:%d: want %q", filepath.Base(w.file), w.line, w.re.String())
}

func runGolden(t *testing.T, az *Analyzer, pattern string) {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(dir, pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages matched %s", pattern)
	}

	var wants []*want
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					pos := pkg.Fset.Position(c.Pos())
					for _, w := range parseWants(t, pos.Filename, pos.Line, c.Text) {
						wants = append(wants, w)
					}
				}
			}
		}
	}

	diags := RunAnalyzers(pkgs, []*Analyzer{az})
	for _, d := range diags {
		if !claim(wants, d.Pos.Filename, d.Pos.Line, d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("no %s diagnostic matched %s", az.Name, w)
		}
	}
}

// claim marks the first unhit want on (file, line) whose pattern matches
// message, reporting whether one existed.
func claim(wants []*want, file string, line int, message string) bool {
	for _, w := range wants {
		if !w.hit && w.line == line && w.file == file && w.re.MatchString(message) {
			w.hit = true
			return true
		}
	}
	return false
}

// parseWants extracts `// want "re" "re" ...` expectations from a comment.
func parseWants(t *testing.T, file string, line int, text string) []*want {
	t.Helper()
	body := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if !strings.HasPrefix(body, "want ") {
		return nil
	}
	var out []*want
	for _, m := range wantPattern.FindAllStringSubmatch(body, -1) {
		re, err := regexp.Compile(m[1])
		if err != nil {
			t.Fatalf("%s:%d: bad want pattern %q: %v", file, line, m[1], err)
		}
		out = append(out, &want{file: file, line: line, re: re})
	}
	if len(out) == 0 {
		t.Fatalf("%s:%d: want comment with no quoted pattern: %q", file, line, text)
	}
	return out
}

var wantPattern = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
