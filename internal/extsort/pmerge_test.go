package extsort

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/fence"
	"nexsort/internal/sortkey"
)

// runPartitioned sorts n synthetic records at the given final-merge
// partition count and returns the concatenated output records plus the
// environment's stats snapshot.
func runPartitioned(t *testing.T, n, mergeParallel int) ([]byte, map[string]em.IOCount) {
	t.Helper()
	env, err := em.NewEnv(em.Config{BlockSize: 512, MemBlocks: 24, Parallelism: 2, MergeParallel: mergeParallel})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	s, err := NewKernel(env, em.CatMergeRun, sortkey.KeySeq(), env.Budget.Free())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		rec := []byte(fmt.Sprintf("rec-%05d-%s", i*7919%n, bytes.Repeat([]byte("x"), i%40)))
		if err := s.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatalf("MergeParallel=%d: %v", mergeParallel, err)
	}
	defer it.Close()
	var out []byte
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec...)
		out = append(out, '\n')
	}
	return out, env.Stats.Snapshot()
}

// TestPartitionedMergeDirect drives the sorter kernel straight into a
// partitioned final merge: at every partition count the record stream must
// be byte-identical to the serial merge's and the partitioned ledgers must
// agree with each other (one partitioned merge, the same splitter-sample
// count, the same logical block transfers).
func TestPartitionedMergeDirect(t *testing.T) {
	want, _ := runPartitioned(t, 4000, 0)
	var base map[string]em.IOCount
	for _, p := range []int{1, 2, 4, 8} {
		got, snap := runPartitioned(t, 4000, p)
		if !bytes.Equal(got, want) {
			t.Fatalf("MergeParallel=%d: output differs from serial merge", p)
		}
		cat := em.CatMergeRun.String()
		if snap[cat].PartitionedMerges == 0 {
			t.Fatalf("MergeParallel=%d: no partitioned merge ran", p)
		}
		if base == nil {
			base = snap
		} else {
			for _, k := range []string{cat, em.CatFenceIndex.String()} {
				if snap[k] != base[k] {
					t.Errorf("MergeParallel=%d: %s ledger moved\nP=1: %+v\nP=%d: %+v", p, k, base[k], p, snap[k])
				}
			}
		}
	}
}

// TestPartitionedMergePresortedFallback pins the serial fallback: a run
// added with AddPresortedRun has no fence index, so the final merge must
// fall back to the single loser tree — same bytes, no partitioned merge
// counted — rather than fail or partition blindly.
func TestPartitionedMergePresortedFallback(t *testing.T) {
	build := func(mergeParallel int) ([]byte, *em.Stats) {
		env, err := em.NewEnv(em.Config{BlockSize: 512, MemBlocks: 24, MergeParallel: mergeParallel})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()

		// A presorted run, written directly with no fence index.
		pre := em.NewStream(env.Dev, em.CatMergeRun)
		w, err := pre.NewWriter(env.Budget)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			rec := []byte(fmt.Sprintf("pre-%04d", i*2))
			var lenBuf [8]byte
			n := putUvarintLen(lenBuf[:], len(rec))
			if _, err := w.Write(lenBuf[:n]); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		s, err := NewKernel(env, em.CatMergeRun, sortkey.KeySeq(), env.Budget.Free())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.AddPresortedRun(pre); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if err := s.Add([]byte(fmt.Sprintf("pre-%04d", i%400))); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		var out []byte
		for {
			rec, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rec...)
			out = append(out, '\n')
		}
		return out, env.Stats
	}
	want, _ := build(0)
	got, stats := build(8)
	if !bytes.Equal(got, want) {
		t.Fatal("MergeParallel=8 with a presorted run: output differs from serial merge")
	}
	if n := stats.TotalPartitionedMerges(); n != 0 {
		t.Fatalf("MergeParallel=8 with a presorted run: %d partitioned merges ran; want serial fallback", n)
	}
}

// TestFenceIndexSpilled pins the side-stream mechanics: with MergeParallel
// set, every spilled run gets a CatFenceIndex stream
// whose decoded entries are valid fences into the run — first fence at
// offset 0, offsets strictly increasing, at most one per run block.
func TestFenceIndexSpilled(t *testing.T) {
	env, err := em.NewEnv(em.Config{BlockSize: 512, MemBlocks: 24, MergeParallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	s, err := NewKernel(env, em.CatMergeRun, sortkey.KeySeq(), env.Budget.Free())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 2000; i++ {
		if err := s.Add([]byte(fmt.Sprintf("rec-%05d", i*31%2000))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	runs := append([]*em.Stream(nil), s.runs...)
	fences := make(map[*em.Stream]*em.Stream, len(s.fences))
	for r, idx := range s.fences {
		fences[r] = idx
	}
	s.mu.Unlock()
	if len(runs) < 2 {
		t.Fatalf("only %d runs formed; the test needs spills", len(runs))
	}
	for i, run := range runs {
		idx := fences[run]
		if idx == nil {
			t.Fatalf("run %d has no fence index", i)
		}
		entries, err := readFenceIndex(idx)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		nblocks := int((run.Size() + 511) / 512)
		if len(entries) == 0 || len(entries) > nblocks {
			t.Fatalf("run %d: %d fences for %d blocks", i, len(entries), nblocks)
		}
		if entries[0].Offset != 0 {
			t.Fatalf("run %d: first fence at %d", i, entries[0].Offset)
		}
		for j := 1; j < len(entries); j++ {
			if entries[j].Offset <= entries[j-1].Offset || entries[j].Offset >= run.Size() {
				t.Fatalf("run %d: fence %d offset %d out of order", i, j, entries[j].Offset)
			}
			if bytes.Compare(entries[j].Key, entries[j-1].Key) < 0 {
				t.Fatalf("run %d: fence %d key decreases", i, j)
			}
		}
	}
	// The fences must round-trip through the codec they were stored with.
	var all []fence.Entry
	for _, idx := range fences {
		es, err := readFenceIndex(idx)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, es...)
	}
	if len(all) == 0 {
		t.Fatal("no fence entries decoded")
	}
}

// putUvarintLen is a tiny local uvarint encoder for test records.
func putUvarintLen(dst []byte, v int) int {
	i := 0
	for v >= 0x80 {
		dst[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	dst[i] = byte(v)
	return i + 1
}
