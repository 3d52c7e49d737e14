package sortkey

import (
	"bytes"
	"testing"
)

// FuzzKeyPathOrder fuzzes the central contract of the package over
// arbitrary byte strings — valid encodings, truncated ones, garbage:
//
//	bytes.Compare(Normalize(a), Normalize(b)) == CompareKeyPath(a, b)
//
// plus the properties the sorter builds on: antisymmetry, reflexivity,
// and the kernel's LCPs (checkLCPs): differing head words agree with the
// full order, and a walk from where the records part gives it too.
func FuzzKeyPathOrder(f *testing.F) {
	// Hand-encoded seeds: valid one- and two-component paths, path
	// prefixes, seq ties, the historic truncation hole (header promising
	// more components than present), key-length overruns, seq varints cut
	// mid-byte, and non-minimal varint encodings of the same value.
	seeds := [][]byte{
		{},
		{0x00},
		{1, 0, 0},
		{1, 1, 'A', 0},
		{1, 1, 'A', 1},
		{2, 1, 'A', 0, 1, 'B', 3},
		{2, 1, 'A', 0, 1, 'B', 0x83},
		{1, 3, 'N', 0x00, 'E', 2},
		{2, 1, 'A', 1}, // truncated: header says 2, one present
		{1, 50, 'x'},   // key length overruns the buffer
		{1, 2, 'A', 'C', 0x80},
		{0x80},             // never-terminating header varint
		{0x81, 0x00, 0, 0}, // non-minimal encoding of n=1
		{1, 1, 'a', 0x80, 0x80},
		{1, 1, 'a', 0x80, 0x81},
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		got := sign(CompareKeyPath(a, b))
		ka := appendKeyPathKey(nil, a)
		kb := appendKeyPathKey(nil, b)
		if want := sign(bytes.Compare(ka, kb)); got != want {
			t.Fatalf("CompareKeyPath(%x, %x) = %d, normalized keys order %d\n ka=%x\n kb=%x",
				a, b, got, want, ka, kb)
		}
		if back := sign(CompareKeyPath(b, a)); back != -got {
			t.Fatalf("antisymmetry: cmp(a,b)=%d cmp(b,a)=%d for a=%x b=%x", got, back, a, b)
		}
		if sign(CompareKeyPath(a, a)) != 0 {
			t.Fatalf("CompareKeyPath(a, a) != 0 for a=%x", a)
		}
		checkLCPs(t, KeyPath(), a, b, got)
	})
}

// FuzzKeySeqOrder checks the same normalization contract and LCPs for the
// (key, seq)-headed child-record format.
func FuzzKeySeqOrder(f *testing.F) {
	seeds := [][]byte{
		{},
		{0, 0},
		{1, 'A', 0, 'p', 'a', 'y', 'l', 'o', 'a', 'd'},
		{1, 'A', 1},
		{2, 'A', 0x00, 3},
		{9, 'x'},       // key overrun
		{1, 'A'},       // seq missing
		{0x80},         // never-terminating key length
		{1, 'A', 0x80}, // seq cut mid-varint
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		got := sign(CompareKeySeq(a, b))
		ka := appendKeySeqKey(nil, a)
		kb := appendKeySeqKey(nil, b)
		if want := sign(bytes.Compare(ka, kb)); got != want {
			t.Fatalf("CompareKeySeq(%x, %x) = %d, normalized keys order %d", a, b, got, want)
		}
		if back := sign(CompareKeySeq(b, a)); back != -got {
			t.Fatalf("antisymmetry: cmp(a,b)=%d cmp(b,a)=%d for a=%x b=%x", got, back, a, b)
		}
		checkLCPs(t, KeySeq(), a, b, got)
	})
}
