package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"nexsort/internal/em"
	"nexsort/internal/extsort"
	"nexsort/internal/runstore"
	"nexsort/internal/xmltok"
)

// TestCorruptChildRecordFailsTheSort: a child record whose payload holds a
// token that does not scan fails the sort, whether its merge writes into
// the output sink, which scans each token as it writes it, or into a run,
// whose tokens are scanned when the output phase reads it back.
func TestCorruptChildRecordFailsTheSort(t *testing.T) {
	env, err := em.NewEnv(em.Config{BlockSize: 256, MemBlocks: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	tok := func(tok xmltok.Token) []byte { return xmltok.AppendToken(nil, tok) }
	start, end := tok(xmltok.Token{Kind: xmltok.KindStart, Name: "p"}), tok(xmltok.Token{Kind: xmltok.KindEnd, Name: "p"})
	good := append(tok(xmltok.Token{Kind: xmltok.KindStart, Name: "c"}), tok(xmltok.Token{Kind: xmltok.KindEnd, Name: "c"})...)
	record := func(key string, seq int, payload []byte) []byte {
		rec := binary.AppendUvarint(nil, uint64(len(key)))
		rec = append(rec, key...)
		rec = binary.AppendUvarint(rec, uint64(seq))
		return append(rec, payload...)
	}
	runs := func(bad []byte) []*em.Stream {
		var out []*em.Stream
		for _, recs := range [][][]byte{
			{record("a", 0, good), record("c", 2, good)},
			{record("b", 1, bad), record("d", 3, good)},
		} {
			run := em.NewStream(env.Dev, em.CatSubtreeSort)
			w, err := extsort.NewRunWriter(run, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := w.Write(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			out = append(out, run)
		}
		return out
	}
	for name, bad := range map[string][]byte{
		"bad kind":  append(append([]byte(nil), good...), 0xEE),
		"truncated": good[:len(good)-1],
	} {
		var out bytes.Buffer
		sink := &outputSink{env: env, store: runstore.New(env.Dev), xw: xmltok.NewWriter(&out)}
		if err := mergeChildRecords(env, start, end, runs(bad), 0, sink); err == nil {
			t.Errorf("%s: merge into the output sink succeeded", name)
		}

		store := runstore.New(env.Dev)
		id, w, err := store.Create(em.CatSubtreeSort, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = mergeChildRecords(env, start, end, runs(bad), 0, w)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			r, oerr := store.Open(id, nil, 0)
			if oerr != nil {
				t.Fatal(oerr)
			}
			for err == nil {
				_, err = r.Next()
			}
			r.Close()
			if err == io.EOF {
				err = nil
			}
		}
		if err == nil {
			t.Errorf("%s: merge into a run and reading it back succeeded", name)
		}
	}
	if inUse := env.Budget.InUse(); inUse != 0 {
		t.Errorf("%d budget blocks left granted", inUse)
	}
}
