package extsort

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/sortkey"
)

// The sorter fuzzers sort arbitrary records through run formation alone
// (everything fits in memory) and through runs and their merges (64-byte
// blocks, three of them): a materialized merge pass and a streamed final
// merge. The output must be the input sorted stably by the kernel's order.
// The sorter is stable because run formation is and merges break ties by
// run order, and stability pins the order of records that compare equal,
// which the kernels' LCPs mark as Equal.

func FuzzSorterKeyPath(f *testing.F) {
	path := func(comps ...any) []byte { return keyPathRec(comps...) }
	long := "key-longer-than-eight"
	fuzzSorter(f, sortkey.KeyPath(), [][][]byte{
		// Deep shared prefixes, first differing in each field.
		{path("", 0, "a", 1, "b", 2, "c", 3), path("", 0, "a", 1, "b", 2, "c", 4), path("", 0, "a", 1, "b", 2),
			path("", 0, "a", 1, "b", 2, "d", 0), path("", 0, "a", 1, "bb", 2), path("", 0, "a", 0x80, "b", 2), path("", 0)},
		// Keys over eight bytes, and keys equal in their first eight.
		{path("", 0, long, 1), path("", 0, long+"x", 0), path("", 0, "key-long", 5), path("", 0, "key-lonG", 5),
			path("", 0, long, 1, "z", 0), path("", 0, long[:8], 1)},
		// Truncated and corrupt records beside their valid prefixes.
		{path("", 0, "a", 1), path("", 0, "a", 1)[:4], {2, 0, 0, 1, 'a'}, {1, 50, 'x'}, {0x80}, {}, {0x81, 0x00, 0, 0},
			append(path("", 0, "a", 1), 0x80), {1, 1, 'a', 0x80, 0x80}, {1, 1, 'a', 0x80, 0x81}},
		// Equal paths with different tokens, which sort stably.
		{append(path("", 0, "k", 1), "tok-1"...), append(path("", 0, "k", 1), "tok-0"...), path("", 0, "k", 0)},
	})
}

func FuzzSorterKeySeq(f *testing.F) {
	rec := func(key string, seq int, payload string) []byte {
		r := binary.AppendUvarint(nil, uint64(len(key)))
		r = append(r, key...)
		return append(binary.AppendUvarint(r, uint64(seq)), payload...)
	}
	fuzzSorter(f, sortkey.KeySeq(), [][][]byte{
		{rec("b", 0, "x"), rec("a", 1, ""), rec("a", 0, "payload"), rec("", 3, ""), rec("a\x00", 0, "")},
		{rec("key-longer-than-eight", 1, ""), rec("key-longer-than-eighT", 0, ""), rec("key-long", 2, ""), rec("key-long", 2, "tie")},
		{{1, 'k', 0x80}, {9, 'x'}, {0x80}, {}, rec("k", 1<<20, ""), {1, 'k'}},
	})
}

func FuzzSorterFixedPrefix(f *testing.F) {
	be := func(v uint64, tail string) []byte { return append(binary.BigEndian.AppendUint64(nil, v), tail...) }
	fuzzSorter(f, sortkey.FixedPrefix(8), [][][]byte{
		{be(5, "a"), be(1, "b"), be(5, "c"), be(1<<40, ""), be(0, "")},
		{{0}, {}, {0, 0, 0, 0, 0, 0, 0, 5}, {5}, be(5, ""), {0xff, 0xff}},
	})
}

// fuzzSorter seeds f with the record lists and fuzzes k's sorts. A fuzz
// input holds records as a length byte and that many bytes each.
func fuzzSorter(f *testing.F, k sortkey.Kernel, seeds [][][]byte) {
	for _, recs := range seeds {
		var data []byte
		for _, rec := range recs {
			data = append(append(data, byte(len(rec))), rec...)
		}
		f.Add(data)
		// The same records repeated, so that runs form and merge.
		f.Add(bytes.Repeat(data, 6))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs [][]byte
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			recs, data = append(recs, data[1:1+n]), data[1+n:]
		}
		want := slices.Clone(recs)
		slices.SortStableFunc(want, k.Compare)
		for _, c := range []struct {
			name                 string
			blockSize, memBlocks int
			stream               bool
		}{
			{"run formation", 4096, 8, false},
			{"merge passes", 64, 3, false},
			{"streamed merge", 64, 3, true},
		} {
			got := sortRecords(t, k, recs, c.blockSize, c.memBlocks, c.stream)
			if len(got) != len(want) {
				t.Fatalf("%s: %d records out of %d", c.name, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s: record %d = %x, want %x", c.name, i, got[i], want[i])
				}
			}
		}
	})
}

// sortRecords sorts recs with a sorter of memBlocks blocks of blockSize
// bytes, streaming the final merge when stream is set.
func sortRecords(t *testing.T, k sortkey.Kernel, recs [][]byte, blockSize, memBlocks int, stream bool) [][]byte {
	env, err := em.NewEnv(em.Config{BlockSize: blockSize, MemBlocks: max(5, memBlocks), Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	s, err := NewKernel(env, em.CatMergeRun, k, memBlocks)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, rec := range recs {
		if err := s.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	sort := s.Sort
	if stream {
		sort = s.SortStream
	}
	it, err := sort()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out [][]byte
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, slices.Clone(rec))
	}
}
