package merge

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"nexsort/internal/keys"
)

// catalogDocs builds two pre-sorted documents of items elements each,
// sharing about half their keys.
func catalogDocs(items int) (string, string, *keys.Criterion) {
	c := &keys.Criterion{Rules: []keys.Rule{{Tag: "item", Source: keys.ByAttr("id")}}}
	build := func(seed int64) string {
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		sb.WriteString("<catalog>")
		id := 0
		for i := 0; i < items; i++ {
			id += 1 + rng.Intn(3) // sorted, with gaps so halves overlap
			fmt.Fprintf(&sb, `<item id="%08d" v="%d"><d>payload %d</d></item>`, id, rng.Intn(100), i)
		}
		sb.WriteString("</catalog>")
		return sb.String()
	}
	return build(1), build(2), c
}

// BenchmarkStreamingMerge measures the single-pass structural merge.
func BenchmarkStreamingMerge(b *testing.B) {
	left, right, c := catalogDocs(5000)
	b.SetBytes(int64(len(left) + len(right)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Documents(strings.NewReader(left), strings.NewReader(right), c, io.Discard, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
