package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBaselineMissingFileIsEmpty(t *testing.T) {
	b, err := LoadBaseline(filepath.Join(t.TempDir(), "absent.txt"))
	if err != nil {
		t.Fatalf("missing baseline must not error, got %v", err)
	}
	if len(b.Entries) != 0 {
		t.Fatalf("want empty baseline, got %d entries", len(b.Entries))
	}
}

func TestBaselineRequiresJustification(t *testing.T) {
	for _, line := range []string{
		"NV001 internal/core/parallel.go grantWorker",
		"NV001 internal/core/parallel.go grantWorker -- ",
		"NV001 internal/core/parallel.go grantWorker --",
	} {
		if _, err := LoadBaseline(writeBaseline(t, line+"\n")); err == nil {
			t.Errorf("entry %q without justification must be rejected", line)
		}
	}
}

func TestBaselineRejectsMalformedEntry(t *testing.T) {
	for _, line := range []string{
		"NV001 onlytwo -- justified",
		"NV001 a b c d -- justified",
	} {
		if _, err := LoadBaseline(writeBaseline(t, line+"\n")); err == nil {
			t.Errorf("entry %q with wrong field count must be rejected", line)
		}
	}
}

func TestBaselineCommentsAndBlanksIgnored(t *testing.T) {
	b, err := LoadBaseline(writeBaseline(t, "# header\n\nNV004 internal/em/stats.go String -- sorted\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) != 1 {
		t.Fatalf("want 1 entry, got %d", len(b.Entries))
	}
	e := b.Entries[0]
	if e.Code != "NV004" || e.FileSuffix != "internal/em/stats.go" || e.Func != "String" || e.Justification != "sorted" {
		t.Fatalf("parsed entry wrong: %+v", e)
	}
}

func diagAt(code, file, fn string) Diagnostic {
	return Diagnostic{
		Code:    code,
		Func:    fn,
		Message: "m",
		Pos:     token.Position{Filename: file, Line: 10, Column: 2},
	}
}

func TestBaselineFilterMatchesBySuffix(t *testing.T) {
	b, err := LoadBaseline(writeBaseline(t,
		"NV004 internal/em/stats.go String -- keys sorted before rendering\n"))
	if err != nil {
		t.Fatal(err)
	}
	diags := []Diagnostic{
		diagAt("NV004", "/abs/checkout/internal/em/stats.go", "String"),   // suppressed
		diagAt("NV004", "/abs/checkout/internal/em/stats.go", "Other"),    // wrong func
		diagAt("NV001", "/abs/checkout/internal/em/stats.go", "String"),   // wrong code
		diagAt("NV004", "/abs/checkout/internal/em/restats.go", "String"), // suffix must break on "/"
	}
	kept, suppressed := b.Filter(diags)
	if len(suppressed) != 1 || len(kept) != 3 {
		t.Fatalf("want 1 suppressed / 3 kept, got %d / %d: %v", len(suppressed), len(kept), kept)
	}
	if stale := b.Stale(); len(stale) != 0 {
		t.Fatalf("used entry reported stale: %v", stale)
	}
}

func TestBaselineStale(t *testing.T) {
	b, err := LoadBaseline(writeBaseline(t,
		"NV004 internal/em/stats.go String -- sorted\nNV001 internal/core/parallel.go grantWorker -- wrapper\n"))
	if err != nil {
		t.Fatal(err)
	}
	b.Filter([]Diagnostic{diagAt("NV004", "internal/em/stats.go", "String")})
	stale := b.Stale()
	if len(stale) != 1 || !strings.Contains(stale[0], "grantWorker") {
		t.Fatalf("want one stale entry naming grantWorker, got %v", stale)
	}
}

func TestBaselineRejectsTODOPlaceholder(t *testing.T) {
	content := "NV006 internal/em/async.go flushLoop -- TODO: justify this exception or fix the finding\n"
	if _, err := LoadBaseline(writeBaseline(t, content)); err == nil ||
		!strings.Contains(err.Error(), "placeholder") {
		t.Fatalf("LoadBaseline must reject TODO placeholders, got err=%v", err)
	}
}

func TestFindBaselineFromRepo(t *testing.T) {
	// The analysis package sits two levels below the module root, which
	// carries internal/analysis/baseline.txt.
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	got := FindBaseline(cwd)
	if got == "" || !strings.HasSuffix(filepath.ToSlash(got), "internal/analysis/baseline.txt") {
		t.Fatalf("FindBaseline(%s) = %q", cwd, got)
	}
}
