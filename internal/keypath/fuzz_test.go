package keypath

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"nexsort/internal/xmltok"
)

// FuzzCompareEncodedAgreesWithDecoded pins CompareEncoded (now the
// sortkey comparison kernel) to the semantic order: whenever both inputs
// decode as records, the encoded comparison must rank them exactly as
// Record.Compare ranks the decoded paths. Undecodable inputs are still
// exercised for antisymmetry — the defined malformed-record order — but
// have no decoded order to agree with.
func FuzzCompareEncodedAgreesWithDecoded(f *testing.F) {
	rec := func(r Record) []byte { return AppendRecord(nil, r) }
	tok := xmltok.Token{Kind: xmltok.KindText, Text: "t"}
	seeds := [][]byte{
		rec(Record{Path: []Component{{Key: "", Seq: 0}}, Tok: tok}),
		rec(Record{Path: []Component{{Key: "", Seq: 0}, {Key: "NE", Seq: 2}}, Tok: tok}),
		rec(Record{Path: []Component{{Key: "", Seq: 0}, {Key: "NE", Seq: 2}, {Key: "a\x00b", Seq: 300}}, Tok: tok}),
		rec(Record{Path: []Component{{Key: "zz", Seq: 1}}, Tok: tok}),
		{2, 1, 'A', 1},    // truncated path
		{1, 200, 'x'},     // key length overrun
		{1, 1, 'A', 0x80}, // seq cut mid-varint
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		got := CompareEncoded(a, b)
		back := CompareEncoded(b, a)
		if (got < 0) != (back > 0) || (got == 0) != (back == 0) {
			t.Fatalf("antisymmetry: cmp(a,b)=%d cmp(b,a)=%d for a=%x b=%x", got, back, a, b)
		}
		ra, errA := ReadRecord(bytes.NewReader(a))
		rb, errB := ReadRecord(bytes.NewReader(b))
		if errA != nil || errB != nil {
			return
		}
		want := ra.Compare(rb)
		if (got < 0) != (want < 0) || (got == 0) != (want == 0) {
			t.Fatalf("CompareEncoded = %d but decoded Record.Compare = %d\n a=%x (%v)\n b=%x (%v)",
				got, want, a, ra.Path, b, rb.Path)
		}
	})
}

// FuzzBuilderEncoded feeds arbitrary record byte strings to the builder.
// An input is a sequence of records, each prefixed by its uvarint length.
// The builder must reject a record with an error or emit a balanced token
// stream — every end tag closing the innermost open start tag, none left
// open after Finish — and must never panic.
func FuzzBuilderEncoded(f *testing.F) {
	for _, seed := range builderSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var open []string
		b := NewBuilder(func(tok *xmltok.Encoded) error {
			switch tok.Kind() {
			case xmltok.KindStart:
				open = append(open, string(tok.Name()))
			case xmltok.KindEnd:
				if len(open) == 0 || open[len(open)-1] != string(tok.Name()) {
					t.Fatalf("end tag </%s> does not close the open chain %v", tok.Name(), open)
				}
				open = open[:len(open)-1]
			case xmltok.KindText, xmltok.KindRunPtr:
			default:
				t.Fatalf("builder emitted token kind %v", tok.Kind())
			}
			return nil
		})
		for len(in) > 0 {
			n, k := binary.Uvarint(in)
			if k <= 0 || n > uint64(len(in)-k) {
				break
			}
			if err := b.Add(in[k : k+int(n)]); err != nil {
				return
			}
			in = in[k+int(n):]
		}
		if err := b.Finish(); err != nil {
			t.Fatal(err)
		}
		if len(open) != 0 {
			t.Fatalf("elements %v left open after Finish", open)
		}
	})
}

// builderSeeds frames record streams for FuzzBuilderEncoded: document D1's
// records sorted and in document order, the sorted stream with a parent
// missing, a parent repeated in non-minimal varints, and a truncated last
// record.
func builderSeeds(tb testing.TB) [][]byte {
	frame := func(recs [][]byte) []byte {
		var dst []byte
		for _, r := range recs {
			dst = binary.AppendUvarint(dst, uint64(len(r)))
			dst = append(dst, r...)
		}
		return dst
	}
	docOrder := extractEncoded(tb, d1, d1Criterion())
	sorted := slices.Clone(docOrder)
	slices.SortFunc(sorted, CompareEncoded)
	nonMinimal := slices.Clone(sorted)
	nonMinimal[1] = append([]byte{2, 0x80, 0x00, 0}, nonMinimal[1][3:]...)
	truncated := slices.Clone(sorted)
	last := truncated[len(truncated)-1]
	truncated[len(truncated)-1] = last[:len(last)-2]
	return [][]byte{
		frame(sorted),
		frame(docOrder),
		frame(slices.Delete(slices.Clone(sorted), 1, 2)),
		frame(nonMinimal),
		frame(truncated),
		frame([][]byte{{0xff, 0xff, 0x3f}}),
	}
}
