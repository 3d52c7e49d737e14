package sortkey

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// encodePath hand-encodes the keypath wire prefix (path length, then per
// component uvarint key length, key bytes, uvarint seq) without importing
// internal/keypath (which imports this package).
func encodePath(comps ...any) []byte {
	if len(comps)%2 != 0 {
		panic("encodePath: want key/seq pairs")
	}
	var dst []byte
	dst = binary.AppendUvarint(dst, uint64(len(comps)/2))
	for i := 0; i < len(comps); i += 2 {
		key := comps[i].(string)
		seq := comps[i+1].(int)
		dst = binary.AppendUvarint(dst, uint64(len(key)))
		dst = append(dst, key...)
		dst = binary.AppendUvarint(dst, uint64(seq))
	}
	return dst
}

// sign normalizes a comparator result to -1/0/1.
func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	default:
		return 0
	}
}

// checkAgreement asserts the central kernel property for one pair: the
// comparator, bytes.Compare over full normalized keys, and antisymmetry
// all agree, and so do the kernel's LCPs (checkLCPs).
func checkAgreement(t *testing.T, k Kernel, norm func(dst, rec []byte) []byte, a, b []byte) int {
	t.Helper()
	c := sign(k.Compare(a, b))
	if rc := sign(k.Compare(b, a)); rc != -c {
		t.Errorf("antisymmetry broken: cmp(a,b)=%d cmp(b,a)=%d\na=%x\nb=%x", c, rc, a, b)
	}
	na := norm(nil, a)
	nb := norm(nil, b)
	if nc := sign(bytes.Compare(na, nb)); nc != c {
		t.Errorf("normalized keys disagree: cmp=%d bytes.Compare=%d\na=%x → %x\nb=%x → %x", c, nc, a, na, b, nb)
	}
	checkLCPs(t, k, a, b, c)
	return c
}

// checkLCPs asserts what an LCP sort relies on for one pair whose order is
// c: heads that differ agree with the order, a walk from the start agrees
// with it and returns the same N for both records, and a walk restarted
// from the LCPs it returned reaches the same order.
func checkLCPs(t *testing.T, k Kernel, a, b []byte, c int) {
	t.Helper()
	sa, sb := k.Start(a), k.Start(b)
	if sa.N != 0 || sb.N != 0 {
		t.Fatalf("Start N = %d, %d, want 0 (a=%x b=%x)", sa.N, sb.N, a, b)
	}
	if h := sign(cmpUint(sa.Head, sb.Head)); h != 0 && h != c {
		t.Fatalf("start heads %#x, %#x order %d but records order %d (a=%x b=%x)", sa.Head, sb.Head, h, c, a, b)
	}
	w, ta, tb := k.Walk(a, b, sa, sb)
	if sign(w) != c {
		t.Fatalf("walk orders %d, records order %d (a=%x b=%x)", sign(w), c, a, b)
	}
	if ta.N != tb.N || (c == 0) != (ta.N == Equal) {
		t.Fatalf("walk LCPs %+v, %+v for order %d (a=%x b=%x)", ta, tb, c, a, b)
	}
	if c == 0 {
		return
	}
	if h := sign(cmpUint(ta.Head, tb.Head)); h != 0 && h != c {
		t.Fatalf("heads %#x, %#x at N=%d order %d but records order %d (a=%x b=%x)", ta.Head, tb.Head, ta.N, h, c, a, b)
	}
	if again, _, _ := k.Walk(a, b, ta, tb); sign(again) != c {
		t.Fatalf("walk from %+v, %+v orders %d, records order %d (a=%x b=%x)", ta, tb, sign(again), c, a, b)
	}
}

func cmpUint(x, y uint64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

func TestCompareKeyPathValidOrder(t *testing.T) {
	// Records in strictly ascending key-path order: parents before
	// descendants, siblings by (key, seq), text (empty key) first.
	ordered := [][]byte{
		encodePath("", 0),                        // root
		encodePath("", 0, "", 0),                 // text under root
		encodePath("", 0, "", 0, "x", 1),         // child of the text-position node
		encodePath("", 0, "", 1),                 // second unkeyed child
		encodePath("", 0, "AC", 1),               // keyed children after unkeyed
		encodePath("", 0, "AC", 1, "Atlanta", 2), //
		encodePath("", 0, "AC", 1, "Durham", 1),  //
		encodePath("", 0, "AC", 3),               // same key, later seq
		encodePath("", 0, "NE", 0),               //
		encodePath("", 0, "NE\x00z", 0),          // key with an embedded NUL
		encodePath("", 0, "NEz", 0),              // NUL sorts below 'z'
	}
	for i := range ordered {
		for j := range ordered {
			c := checkAgreement(t, KeyPath(), appendKeyPathKey, ordered[i], ordered[j])
			if want := sign(i - j); c != want {
				t.Errorf("cmp(%d,%d) = %d, want %d", i, j, c, want)
			}
		}
	}
}

func TestCompareKeyPathSeqOrder(t *testing.T) {
	// Seq ordering is numeric, including across varint length boundaries
	// and up to the top of the uint64 range.
	seqs := []int{0, 1, 127, 128, 255, 256, 16383, 16384, 1 << 30}
	for i, sa := range seqs {
		for j, sb := range seqs {
			a := encodePath("k", sa)
			b := encodePath("k", sb)
			if c := checkAgreement(t, KeyPath(), appendKeyPathKey, a, b); c != sign(i-j) {
				t.Errorf("seq %d vs %d: cmp = %d", sa, sb, c)
			}
		}
	}
}

// TestCompareKeyPathMalformed pins the total order on malformed records:
// a truncated record no longer aliases the empty key — it sorts strictly
// after every valid record sharing its parseable prefix, and corrupt
// records order among themselves by raw tail.
func TestCompareKeyPathMalformed(t *testing.T) {
	valid := encodePath("AC", 1)
	validChild := encodePath("AC", 1, "zz", 9)
	validEmpty := encodePath("", 0)

	// Header claims two components, only one present.
	truncated := append([]byte(nil), encodePath("AC", 1)...)
	truncated[0] = 2
	// Key length runs past the buffer.
	overrun := []byte{1, 50, 'x'}
	// Seq varint truncated mid-read.
	seqCut := []byte{1, 2, 'A', 'C', 0x80}
	// Unterminated header varint.
	badHeader := []byte{0x80}

	for _, m := range [][]byte{truncated, overrun, seqCut, badHeader} {
		for _, v := range [][]byte{valid, validChild, validEmpty} {
			checkAgreement(t, KeyPath(), appendKeyPathKey, m, v)
		}
		if c := CompareKeyPath(m, m); c != 0 {
			t.Errorf("corrupt record not equal to itself: %d", c)
		}
	}

	// The old hole: a record truncated after "AC" compared equal to paths
	// that extend it with empty keys. Now it sorts after every valid
	// extension of its parseable prefix.
	if c := CompareKeyPath(truncated, validChild); c <= 0 {
		t.Errorf("truncated record must sort after valid extensions, got %d", c)
	}
	if c := CompareKeyPath(truncated, valid); c <= 0 {
		t.Errorf("truncated record must sort after its valid prefix, got %d", c)
	}
	// And it is distinct from (not aliased to) the empty-keyed record the
	// old comparator collapsed it onto.
	aliased := encodePath("AC", 1, "", 0)
	if c := CompareKeyPath(truncated, aliased); c == 0 {
		t.Error("truncated record still aliases an empty-key extension")
	}
	checkAgreement(t, KeyPath(), appendKeyPathKey, truncated, aliased)

	// Corrupt vs corrupt with different tails orders by tail bytes: both
	// records have key "a" and a seq varint that never terminates.
	m1 := []byte{1, 1, 'a', 0x80, 0x80}
	m2 := []byte{1, 1, 'a', 0x80, 0x81}
	if c := checkAgreement(t, KeyPath(), appendKeyPathKey, m1, m2); c >= 0 {
		t.Errorf("corrupt tails must order by raw bytes, got %d", c)
	}
}

func TestCompareKeySeq(t *testing.T) {
	enc := func(key string, seq int, payload string) []byte {
		var dst []byte
		dst = binary.AppendUvarint(dst, uint64(len(key)))
		dst = append(dst, key...)
		dst = binary.AppendUvarint(dst, uint64(seq))
		return append(dst, payload...)
	}
	ordered := [][]byte{
		enc("", 0, "pay"),
		enc("", 7, ""),
		enc("a", 0, "zzz"),
		enc("a", 1, ""),
		enc("a\x00", 0, ""),
		enc("ab", 3, "x"),
		enc("b", 0, ""),
	}
	for i := range ordered {
		for j := range ordered {
			c := checkAgreement(t, KeySeq(), appendKeySeqKey, ordered[i], ordered[j])
			if want := sign(i - j); c != want {
				t.Errorf("cmp(%d,%d) = %d, want %d", i, j, c, want)
			}
		}
	}
	// Payload is not part of the order.
	if c := CompareKeySeq(enc("k", 2, "aaa"), enc("k", 2, "bbb")); c != 0 {
		t.Errorf("payload leaked into the order: %d", c)
	}
	// Malformed: truncated seq sorts after valid records with the same key.
	cut := []byte{1, 'k', 0x80}
	if c := CompareKeySeq(cut, enc("k", 1<<40, "")); c <= 0 {
		t.Errorf("truncated seq must sort after valid seqs, got %d", c)
	}
	checkAgreement(t, KeySeq(), appendKeySeqKey, cut, enc("k", 3, ""))
}

func TestCompareKeys(t *testing.T) {
	if CompareKeys("", "a") >= 0 || CompareKeys("a", "") <= 0 || CompareKeys("a", "a") != 0 {
		t.Error("CompareKeys is not plain byte order")
	}
}

func TestFixedPrefixKernel(t *testing.T) {
	k := FixedPrefix(8)
	a := append(binary.BigEndian.AppendUint64(nil, 5), "keyA"...)
	b := append(binary.BigEndian.AppendUint64(nil, 9), "keyB"...)
	if k.Compare(a, b) >= 0 || k.Compare(b, a) <= 0 || k.Compare(a, a) != 0 {
		t.Error("FixedPrefix order broken")
	}
	if got := k.Start(b).Head; got != 9 {
		t.Errorf("head = %#x, want the big-endian prefix 9", got)
	}
	// Records shorter than the prefix clamp instead of panicking: a
	// one-byte record is a strict prefix of a's first 8 bytes here. The
	// heads tie, so the walk decides.
	if k.Compare([]byte{0}, a) >= 0 {
		t.Error("short record must sort by its clamped prefix")
	}
	for _, x := range [][]byte{{}, {0}, a, b, append(a[:8:8], 0), {0, 0, 0, 0, 0, 0, 0, 5}} {
		for _, y := range [][]byte{{}, {0}, a, b} {
			checkLCPs(t, k, x, y, sign(k.Compare(x, y)))
		}
	}
}

// TestLCPRule pins Kernel.Less's three cases on key paths against one
// reference: the larger N goes first without a walk, differing heads
// decide on equal N, and equal heads (keys equal in their first eight
// bytes) fall back to the component walk, which leaves the loser its LCP
// against the winner.
func TestLCPRule(t *testing.T) {
	k := KeyPath()
	walks := 0
	walk := k.Walk
	k.Walk = func(a, b []byte, la, lb LCP) (int, LCP, LCP) {
		walks++
		return walk(a, b, la, lb)
	}
	// rec is a record with its LCP against ref.
	rec := func(ref []byte, comps ...any) *Rec {
		b := encodePath(comps...)
		return &Rec{Bytes: b, LCP: k.Next(ref, b)}
	}
	// less runs the rule and counts the walks it took.
	less := func(a, b *Rec) (bool, int) {
		before := walks
		return k.Less(a, b, false), walks - before
	}
	ref := encodePath("", 0, "region-0001", 3, "a", 1)

	deep := rec(ref, "", 0, "region-0001", 3, "b", 0)
	shallow := rec(ref, "", 0, "region-0002", 0)
	if deep.LCP.N != 2 || shallow.LCP.N != 1 {
		t.Fatalf("N = %d, %d, want 2, 1", deep.LCP.N, shallow.LCP.N)
	}
	if ok, w := less(deep, shallow); !ok || w != 0 {
		t.Errorf("larger N: less = %v after %d walks, want true after none", ok, w)
	}
	if ok, w := less(shallow, deep); ok || w != 0 {
		t.Errorf("smaller N: less = %v after %d walks, want false after none", ok, w)
	}

	// Equal N, heads that differ in the first eight key bytes.
	deep = rec(ref, "", 0, "region-0001", 3, "b", 0)
	c := rec(ref, "", 0, "region-0001", 3, "c", 0)
	if ok, w := less(deep, c); !ok || w != 0 {
		t.Errorf("differing heads: less = %v after %d walks, want true after none", ok, w)
	}

	// Equal N and equal heads: the keys share their first eight bytes.
	p := rec(ref, "", 0, "region-0001", 3, "abcdefgh-1", 0)
	q := rec(ref, "", 0, "region-0001", 3, "abcdefgh-2", 0)
	if p.LCP.N != q.LCP.N || p.LCP.Head != q.LCP.Head {
		t.Fatalf("LCPs %+v, %+v, want equal N and heads", p.LCP, q.LCP)
	}
	if ok, w := less(p, q); !ok || w != 1 {
		t.Errorf("equal heads: less = %v after %d walks, want true after one", ok, w)
	}
	if want := k.Next(p.Bytes, q.Bytes); q.LCP != want {
		t.Errorf("loser's LCP = %+v, want its LCP against the winner %+v", q.LCP, want)
	}

	// A record equal to the reference goes before every other.
	same := rec(ref, "", 0, "region-0001", 3, "a", 1)
	deep = rec(ref, "", 0, "region-0001", 3, "b", 0)
	if ok, _ := less(same, deep); same.LCP.N != Equal || !ok {
		t.Errorf("a record equal to the reference (LCP %+v) must go first", same.LCP)
	}
}

// TestKeyPathRandomPairs drives the agreement property over a large random
// sample of valid and mutilated records.
func TestKeyPathRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randRec := func() []byte {
		depth := rng.Intn(5)
		comps := make([]any, 0, 2*depth+2)
		comps = append(comps, "", 0)
		for i := 0; i < depth; i++ {
			keys := []string{"", "a", "ab", "b\x00c", "zz", "\xff\xfe"}
			comps = append(comps, keys[rng.Intn(len(keys))], rng.Intn(300))
		}
		rec := encodePath(comps...)
		if rng.Intn(3) == 0 { // mutilate: truncate or flip the header
			switch rng.Intn(3) {
			case 0:
				if len(rec) > 1 {
					rec = rec[:1+rng.Intn(len(rec)-1)]
				}
			case 1:
				rec[0] += byte(1 + rng.Intn(4))
			case 2:
				rec = append(rec, 0x80)
			}
		}
		return rec
	}
	for i := 0; i < 3000; i++ {
		checkAgreement(t, KeyPath(), appendKeyPathKey, randRec(), randRec())
	}
}

// TestKeyPathTransitivity spot-checks that the malformed-order extension
// is transitive on random triples (a total order, not just antisymmetric).
func TestKeyPathTransitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	recs := make([][]byte, 60)
	for i := range recs {
		n := rng.Intn(12)
		rec := make([]byte, n)
		rng.Read(rec)
		recs[i] = rec
	}
	for i := 0; i < 4000; i++ {
		a, b, c := recs[rng.Intn(len(recs))], recs[rng.Intn(len(recs))], recs[rng.Intn(len(recs))]
		if CompareKeyPath(a, b) <= 0 && CompareKeyPath(b, c) <= 0 && CompareKeyPath(a, c) > 0 {
			t.Fatalf("transitivity broken:\na=%x\nb=%x\nc=%x", a, b, c)
		}
	}
}

// TestKernelsDoNotAllocate: the comparators, the kernels' Start and Walk,
// and the LCP rule allocate nothing.
func TestKernelsDoNotAllocate(t *testing.T) {
	paths := benchRecords()
	rng := rand.New(rand.NewSource(5))
	seqs := make([][]byte, len(paths))
	for i := range seqs {
		key := fmt.Sprintf("key%03d", rng.Intn(100))
		rec := binary.AppendUvarint(nil, uint64(len(key)))
		rec = append(rec, key...)
		rec = binary.AppendUvarint(rec, uint64(rng.Intn(1000)))
		seqs[i] = append(rec, "payload"...)
	}
	var i int
	next := func(recs [][]byte) ([]byte, []byte) {
		i++
		return recs[i%len(recs)], recs[(i+1)%len(recs)]
	}
	kernels := map[string]func(){
		"CompareKeyPath": func() { CompareKeyPath(next(paths)) },
		"CompareKeySeq":  func() { CompareKeySeq(next(seqs)) },
	}
	for name, k := range map[string]struct {
		k    Kernel
		recs [][]byte
	}{"KeyPath": {KeyPath(), paths}, "KeySeq": {KeySeq(), seqs}, "FixedPrefix": {FixedPrefix(8), seqs}} {
		k := k
		kernels[name+".Start"] = func() { a, _ := next(k.recs); k.k.Start(a) }
		kernels[name+".Walk"] = func() {
			a, b := next(k.recs)
			k.k.Walk(a, b, k.k.Start(a), k.k.Start(b))
		}
		kernels[name+".Less"] = func() {
			a, b := next(k.recs)
			ra, rb := Rec{a, k.k.Start(a)}, Rec{b, k.k.Start(b)}
			k.k.Less(&ra, &rb, true)
		}
		kernels[name+".Next"] = func() { k.k.Next(next(k.recs)) }
	}
	for name, f := range kernels {
		if n := testing.AllocsPerRun(len(paths), f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}

func BenchmarkCompareKeyPath(b *testing.B) {
	recs := benchRecords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CompareKeyPath(recs[i%len(recs)], recs[(i+1)%len(recs)])
	}
}

func benchRecords() [][]byte {
	rng := rand.New(rand.NewSource(3))
	recs := make([][]byte, 256)
	for i := range recs {
		comps := []any{"", 0}
		for d := 0; d < 3+rng.Intn(4); d++ {
			comps = append(comps, fmt.Sprintf("key%03d", rng.Intn(100)), rng.Intn(1000))
		}
		recs[i] = encodePath(comps...)
	}
	return recs
}
