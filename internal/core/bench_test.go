package core

import (
	"io"
	"strings"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/gen"
	"nexsort/internal/keys"
)

// benchWorkload generates a ~2.5 MB hierarchical document once.
func benchWorkload(b *testing.B) string {
	b.Helper()
	var sb strings.Builder
	if _, err := (gen.IBMSpec{Height: 9, MaxFanout: 6, MaxElements: 16000, Seed: 7}).Write(&sb); err != nil {
		b.Fatal(err)
	}
	return sb.String()
}

func benchCriterion() *keys.Criterion {
	return &keys.Criterion{Rules: []keys.Rule{{Tag: "", Source: keys.ByAttr("key")}}, KeyCap: 16}
}

// BenchmarkNEXSORTEndToEnd measures the full pipeline (scan, subtree
// sorts, output traversal) on an in-memory device.
func BenchmarkNEXSORTEndToEnd(b *testing.B) {
	doc := benchWorkload(b)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := em.NewEnv(em.Config{BlockSize: 4096, MemBlocks: 48})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Sort(env, strings.NewReader(doc), io.Discard, Options{Criterion: benchCriterion()}); err != nil {
			b.Fatal(err)
		}
		env.Close()
	}
}

// BenchmarkNEXSORTCompact measures the same pipeline with Section 3.2
// compaction enabled.
func BenchmarkNEXSORTCompact(b *testing.B) {
	doc := benchWorkload(b)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := em.NewEnv(em.Config{BlockSize: 4096, MemBlocks: 48})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Sort(env, strings.NewReader(doc), io.Discard, Options{Criterion: benchCriterion(), Compact: true}); err != nil {
			b.Fatal(err)
		}
		env.Close()
	}
}

// BenchmarkNEXSORTDegenerateFlat measures graceful degeneration, the
// default layout, on its target shape.
func BenchmarkNEXSORTDegenerateFlat(b *testing.B) {
	var sb strings.Builder
	if _, err := (gen.CustomSpec{Fanouts: []int{16000}, Seed: 7}).Write(&sb); err != nil {
		b.Fatal(err)
	}
	doc := sb.String()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := em.NewEnv(em.Config{BlockSize: 4096, MemBlocks: 48})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Sort(env, strings.NewReader(doc), io.Discard, Options{Criterion: benchCriterion()}); err != nil {
			b.Fatal(err)
		}
		env.Close()
	}
}
