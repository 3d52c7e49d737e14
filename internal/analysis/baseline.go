package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// The baseline is nexvet's allowlist: intentional, justified exceptions to
// the static invariants. Each entry names the diagnostic code, the file
// (matched by path suffix, so absolute and relative spellings agree) and
// the enclosing function (stable across line drift), and MUST carry a
// justification after " -- ". Entries that stop matching anything are
// themselves errors in a run over the whole tree: the list can never
// silently accumulate dead exceptions.
//
//	NV004 internal/em/stats.go String -- keys are sorted before rendering
//
// Lines starting with '#' and blank lines are ignored.

// BaselineEntry is one parsed allowlist line.
type BaselineEntry struct {
	Code          string
	FileSuffix    string
	Func          string
	Justification string
	Line          int // line in the baseline file, for stale-entry reports
	used          bool
}

// Baseline is a parsed allowlist file.
type Baseline struct {
	Path    string
	Entries []*BaselineEntry
}

// LoadBaseline parses path. A missing file is an empty baseline, not an
// error, so fresh checkouts and the testdata module need no stub file. A
// "TODO"-prefixed justification is rejected: a placeholder is not a reason.
func LoadBaseline(path string) (*Baseline, error) {
	b := &Baseline{Path: path}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return b, nil
		}
		return nil, fmt.Errorf("nexvet: opening baseline: %v", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, justification, ok := strings.Cut(line, " -- ")
		justification = strings.TrimSpace(justification)
		if !ok || justification == "" {
			return nil, fmt.Errorf("%s:%d: baseline entry lacks a ' -- justification' (exceptions must be annotated)", path, lineno)
		}
		if strings.HasPrefix(justification, "TODO") {
			return nil, fmt.Errorf("%s:%d: placeholder justification %q — replace the TODO with the reason the exception is safe",
				path, lineno, justification)
		}
		fields := strings.Fields(entry)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want 'CODE file-suffix func -- justification', got %q", path, lineno, line)
		}
		b.Entries = append(b.Entries, &BaselineEntry{
			Code:          fields[0],
			FileSuffix:    fields[1],
			Func:          fields[2],
			Justification: justification,
			Line:          lineno,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("nexvet: reading baseline: %v", err)
	}
	return b, nil
}

// matches reports whether e covers d. The entry func "-" matches
// package-scope diagnostics (struct fields, var initializers), whose
// enclosing-function name is empty — a bare "" would not survive the
// three-field line format.
func (e *BaselineEntry) matches(d Diagnostic) bool {
	if e.Code != d.Code {
		return false
	}
	if e.Func == "-" {
		if d.Func != "" {
			return false
		}
	} else if e.Func != d.Func {
		return false
	}
	file := filepath.ToSlash(d.Pos.Filename)
	return file == e.FileSuffix || strings.HasSuffix(file, "/"+e.FileSuffix)
}

// Filter splits diags into kept (not baselined) and suppressed, marking
// the entries it consumed so Stale can report the rest.
func (b *Baseline) Filter(diags []Diagnostic) (kept, suppressed []Diagnostic) {
	for _, d := range diags {
		matched := false
		for _, e := range b.Entries {
			if e.matches(d) {
				e.used = true
				matched = true
				break
			}
		}
		if matched {
			suppressed = append(suppressed, d)
		} else {
			kept = append(kept, d)
		}
	}
	return kept, suppressed
}

// Stale returns the entries no diagnostic used, as rendered errors. Call
// it only after filtering a run over the whole tree: a narrower run
// legitimately leaves other packages' entries unused.
func (b *Baseline) Stale() []string {
	var out []string
	for _, e := range b.Entries {
		if !e.used {
			out = append(out, fmt.Sprintf("%s:%d: stale baseline entry %s %s %s (nothing matches it — delete the line)",
				b.Path, e.Line, e.Code, e.FileSuffix, e.Func))
		}
	}
	return out
}

// FindBaseline walks up from dir looking for internal/analysis/baseline.txt
// beside a go.mod, returning "" when no module root is found, so nexvet
// finds the allowlist from any directory of the module.
func FindBaseline(dir string) string {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			candidate := filepath.Join(dir, "internal", "analysis", "baseline.txt")
			if _, err := os.Stat(candidate); err == nil {
				return candidate
			}
			return ""
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}
