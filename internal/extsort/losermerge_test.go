package extsort

import (
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/sortkey"
)

// writePresortedRun spills records as one length-prefixed run, the format
// AddPresortedRun expects.
func writePresortedRun(t *testing.T, env *em.Env, recs [][]byte) *em.Stream {
	t.Helper()
	run := em.NewStream(env.Dev, em.CatMergeRun)
	w, err := run.NewWriter(nil)
	if err != nil {
		t.Fatal(err)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	for _, rec := range recs {
		n := binary.PutUvarint(lenBuf[:], uint64(len(rec)))
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
	return run
}

func drainSorted(t *testing.T, s *Sorter) []string {
	t.Helper()
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []string
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(rec))
	}
}

// identityKernel normalizes a record to itself: bytes.Compare order with the
// prefix-caching machinery fully engaged.
func identityKernel() sortkey.Kernel {
	return sortkey.Kernel{
		Compare: bytesCompare,
		AppendKey: func(dst, rec []byte, max int) []byte {
			if max > 0 && len(rec) > max {
				rec = rec[:max]
			}
			return append(dst, rec...)
		},
	}
}

// TestLoserMergeBoundaryFanIns drives the merge at the fan-ins where the
// tournament tree degenerates: a single run (no merge at all), two runs
// (one internal node), and the full memBlocks-1 fan-in, with duplicate
// keys across runs and runs of different lengths so some exhaust while
// others are still live.
func TestLoserMergeBoundaryFanIns(t *testing.T) {
	const memBlocks = 5
	for _, k := range []int{1, 2, memBlocks - 1} {
		for _, kernel := range []struct {
			name string
			k    sortkey.Kernel
		}{
			{"cmp-only", sortkey.Kernel{Compare: bytesCompare}},
			{"with-keyer", identityKernel()},
		} {
			t.Run(fmt.Sprintf("fanin=%d/%s", k, kernel.name), func(t *testing.T) {
				env := newEnv(t, 64, 16)
				s, err := NewKernel(env, em.CatMergeRun, kernel.k, memBlocks)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				var want []string
				for i := 0; i < k; i++ {
					// Run i gets i+1 records: run 0 exhausts after one
					// record while the others are still live. "dup" appears
					// in every run.
					var recs [][]byte
					for j := 0; j <= i; j++ {
						recs = append(recs, []byte(fmt.Sprintf("rec-%02d-%02d", j, i)))
					}
					recs = append(recs, []byte("zz-dup"))
					want = append(want, "zz-dup")
					for _, r := range recs[:len(recs)-1] {
						want = append(want, string(r))
					}
					if err := s.AddPresortedRun(writePresortedRun(t, env, recs)); err != nil {
						t.Fatal(err)
					}
				}
				got := drainSorted(t, s)
				if len(got) != len(want) {
					t.Fatalf("merged %d records, want %d", len(got), len(want))
				}
				for i := 1; i < len(got); i++ {
					if got[i-1] > got[i] {
						t.Fatalf("output out of order at %d: %q > %q", i, got[i-1], got[i])
					}
				}
				dups := 0
				for _, g := range got {
					if g == "zz-dup" {
						dups++
					}
				}
				if dups != k {
					t.Errorf("duplicate key survived %d times, want %d", dups, k)
				}
				s.Close()
				if live := env.Dev.Frames().Live(); live != 0 {
					t.Errorf("fan-in %d leaked %d pooled frames", k, live)
				}
				if inUse := env.Budget.InUse(); inUse != 0 {
					t.Errorf("fan-in %d leaked %d budget blocks", k, inUse)
				}
			})
		}
	}
}

// TestLoserMergeDeterministicTies pins the tie-break discipline across the
// heap→loser-tree swap: records that compare equal pop in run-index order.
// The comparator looks only at the first byte, so the trailing run tag
// records which cursor each pop came from.
func TestLoserMergeDeterministicTies(t *testing.T) {
	firstByte := sortkey.Kernel{
		Compare: func(a, b []byte) int {
			if a[0] != b[0] {
				if a[0] < b[0] {
					return -1
				}
				return 1
			}
			return 0
		},
		AppendKey: func(dst, rec []byte, max int) []byte { return append(dst, rec[0]) },
	}
	env := newEnv(t, 64, 16)
	s, err := NewKernel(env, em.CatMergeRun, firstByte, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Three runs, each holding key 'a' then key 'b', tagged by run.
	for i := 0; i < 3; i++ {
		recs := [][]byte{[]byte(fmt.Sprintf("a%d", i)), []byte(fmt.Sprintf("b%d", i))}
		if err := s.AddPresortedRun(writePresortedRun(t, env, recs)); err != nil {
			t.Fatal(err)
		}
	}
	got := strings.Join(drainSorted(t, s), " ")
	want := "a0 a1 a2 b0 b1 b2"
	if got != want {
		t.Errorf("tie order = %q, want %q", got, want)
	}
}

// TestLoserMergePrefixTieFallsBackToCmp forces prefix collisions: records
// share their first keyPrefixLen bytes and differ only beyond the inline
// prefix, so every merge decision must fall through the memcmp to the full
// comparator.
func TestLoserMergePrefixTieFallsBackToCmp(t *testing.T) {
	env := newEnv(t, 64, 16)
	s, err := NewKernel(env, em.CatMergeRun, identityKernel(), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	prefix := strings.Repeat("p", keyPrefixLen)
	var want []string
	for i := 0; i < 3; i++ {
		var recs [][]byte
		for j := 0; j < 4; j++ {
			rec := fmt.Sprintf("%s-%02d-%02d", prefix, j, i)
			recs = append(recs, []byte(rec))
			want = append(want, rec)
		}
		if err := s.AddPresortedRun(writePresortedRun(t, env, recs)); err != nil {
			t.Fatal(err)
		}
	}
	got := drainSorted(t, s)
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("output out of order at %d: %q > %q", i, got[i-1], got[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
}

// TestLoserMergeReaderErrorReleasesFrames corrupts a presorted run so the
// merge hits a non-EOF reader error mid-stream, and checks the error path
// closes every cursor and the half-written output: no pooled frame and no
// budget block may stay live after Close.
func TestLoserMergeReaderErrorReleasesFrames(t *testing.T) {
	env := newEnv(t, 64, 16)
	s, err := New(env, em.CatMergeRun, bytesCompare, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	good := writePresortedRun(t, env, [][]byte{[]byte("aaa"), []byte("mmm"), []byte("zzz")})
	// The corrupt run yields one clean record, then a length prefix far
	// beyond maxRecordLen: the reader fails with a non-EOF error only
	// after the merge is underway.
	corrupt := em.NewStream(env.Dev, em.CatMergeRun)
	w, err := corrupt.NewWriter(nil)
	if err != nil {
		t.Fatal(err)
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], 3)
	if _, err := w.Write(lenBuf[:n]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("bbb")); err != nil {
		t.Fatal(err)
	}
	n = binary.PutUvarint(lenBuf[:], uint64(maxRecordLen)+1)
	if _, err := w.Write(lenBuf[:n]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	if err := s.AddPresortedRun(good); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPresortedRun(corrupt); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sort(); err == nil {
		t.Fatal("merge over a corrupt run succeeded")
	} else if !strings.Contains(err.Error(), "corrupt run") {
		t.Fatalf("unexpected error: %v", err)
	}
	s.Close()
	if live := env.Dev.Frames().Live(); live != 0 {
		t.Errorf("error path leaked %d pooled frames", live)
	}
	if inUse := env.Budget.InUse(); inUse != 0 {
		t.Errorf("error path leaked %d budget blocks", inUse)
	}
}

// TestPartitionedMergePresortedFallback pins the mix NEXSORT's graceful
// degeneration feeds the sorter: a presorted run registered with
// AddPresortedRun first, then records added one at a time that spill into
// runs of the sorter's own. The name dates from the range-partitioned final
// merge (DESIGN.md §17), which had to fall back to the single loser tree for
// such a run; that loser tree is now the only merge. The mix must come out
// in (key, seq) order through an intermediate merge pass, with a pinned run
// structure and block ledger.
func TestPartitionedMergePresortedFallback(t *testing.T) {
	keySeqRec := func(key string, seq, pad int) []byte {
		rec := binary.AppendUvarint(nil, uint64(len(key)))
		rec = append(rec, key...)
		rec = binary.AppendUvarint(rec, uint64(seq))
		return append(rec, strings.Repeat("x", pad)...)
	}
	var pre, added [][]byte
	for i := 0; i < 200; i++ {
		pre = append(pre, keySeqRec(fmt.Sprintf("k%04d", i*2), i, 0))
	}
	for i := 0; i < 2000; i++ {
		added = append(added, keySeqRec(fmt.Sprintf("k%04d", i%400), 200+i, i%24))
	}
	want := append(append([][]byte(nil), pre...), added...)
	sort.Slice(want, func(i, j int) bool { return sortkey.CompareKeySeq(want[i], want[j]) < 0 })

	env, err := em.NewEnv(em.Config{BlockSize: 512, MemBlocks: 64, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	s, err := NewKernel(env, em.CatMergeRun, sortkey.KeySeq(), 6)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddPresortedRun(writePresortedRun(t, env, pre)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range added {
		if err := s.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := drainSorted(t, s)

	// The presorted run plus 16 cut runs, merged 5-way and then once more.
	wantStats := Stats{Records: 2000, RecordBytes: 38936, InitialRuns: 17, MergePasses: 2, Spilled: true}
	if stats := s.Stats(); stats != wantStats {
		t.Errorf("stats %+v, want %+v", stats, wantStats)
	}
	wantLedger := map[string]em.IOCount{"merge-run": {Reads: 264, Writes: 264}}
	if ledger := env.Stats.Snapshot(); !reflect.DeepEqual(ledger, wantLedger) {
		t.Errorf("ledger %v, want %v", ledger, wantLedger)
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}
