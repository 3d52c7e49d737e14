package check

import (
	"strconv"
	"strings"
	"testing"
)

// TestDocumentAllocatesPerLevel: the check reads the parser's views and
// reuses each level's name and key buffers, so its allocations grow with
// the document's depth, not with its token count.
func TestDocumentAllocatesPerLevel(t *testing.T) {
	wide := func(n int) string {
		var b strings.Builder
		b.WriteString("<r>")
		for i := range n {
			b.WriteString(`<a k="` + strconv.Itoa(100000+i) + `">t<b k="x"/><b k="y"/></a>`)
		}
		b.WriteString("</r>")
		return b.String()
	}
	deep := func(d int) string {
		return strings.Repeat(`<e k="1">`, d) + strings.Repeat(`</e>`, d)
	}
	allocs := func(doc string) float64 {
		return testing.AllocsPerRun(3, func() {
			rep, err := Document(strings.NewReader(doc), attrCrit(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Sorted {
				t.Fatalf("sorted document flagged: %v", rep.Violation)
			}
		})
	}

	// 10 and 10,000 children of the root, seven tokens each: the same levels.
	few, many := allocs(wide(10)), allocs(wide(10000))
	if many > few+5 {
		t.Errorf("10,000 children took %.0f allocations and 10 took %.0f: the check allocates per token", many, few)
	}
	// 10 and 1,000 open levels.
	shallow, deeper := allocs(deep(10)), allocs(deep(1000))
	if per := (deeper - shallow) / 990; per > 4 {
		t.Errorf("%.1f allocations per open level (%.0f at depth 10, %.0f at depth 1,000), want at most 4", per, shallow, deeper)
	}
}
