// Package sortkey is the comparison kernel of the sort hot path: the orders
// of the record formats the sorters spill, as zero-allocation comparators,
// and the longest-common-prefix (LCP) bookkeeping with which the sorters
// decide most comparisons without reading a record.
//
// # Order
//
// A key path is a sequence of (key, seq) components (see internal/keypath):
// a uvarint component count, then per component a uvarint key length, the
// key and a uvarint seq. Paths order component by component, keys by bytes
// (the empty key first), seqs numerically, and a path before its
// extensions: the parent-before-descendants order of the key-path
// representation. Whatever follows the last component (the token) is not
// part of the order.
//
// The order is the byte order of a normalized key, which the tests build as
// their oracle: per component a 0x01 tag, the key with 0x00 escaped to
// 0x00 0xFF and terminated by 0x00 0x01, then the seq as one length byte
// and its minimal big-endian bytes; nothing at the end of the path.
//
// # Malformed records
//
// A record that cannot be fully parsed (truncated varint, key length
// overrunning the buffer) does not alias to a valid record. Its normalized
// key is that of its valid prefix followed by
//
//	0xFF ++ raw remaining bytes
//
// 0xFF sorts above a component tag (0x01), above end-of-path (end of
// string), and above every seq length byte (≤ 0x08), so a corrupt record
// sorts strictly after every valid record sharing its parseable prefix;
// two corrupt records order by their raw tails. The result is a total
// order, which is what an in-flight comparator can offer; surfacing
// corruption as an error remains the job of the decoding read path.
//
// # LCPs
//
// A sort that outputs records in order knows, for every record still to
// come, its LCP against the record output last: how many leading
// components the two share. Two records with LCPs against the same
// reference, both at or after it, order without being read when their LCPs
// differ: the one sharing more with the reference comes first. Kernel.Less
// is that rule, Kernel.Walk compares what it leaves undecided, and LCP
// says what an LCP holds.
package sortkey

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
)

// LCP is a record's longest common prefix with a reference record that
// precedes it or equals it, counted in whole components. A byte count
// would not do: a byte LCP can end inside a key-length or seq varint,
// where it does not order the records.
type LCP struct {
	// Head is the first eight bytes of component N's key, big-endian and
	// zero-padded. Past the end of the path it is 0, and for a component
	// that does not parse it is the maximum. Two records with equal N
	// against one reference order as their heads when these differ.
	Head uint64
	// N is the number of leading components equal to the reference's,
	// or Equal when the whole record equals the reference.
	N uint32
	// Off is the byte offset in the record where component N starts.
	Off uint32
}

// Equal is LCP.N of a record equal to its reference.
const Equal = math.MaxUint32

// MaxRecordLen is the longest record an LCP can describe: LCP.Off is 32
// bits.
const MaxRecordLen = math.MaxUint32

// equalLCP is the LCP of a record equal to its reference.
var equalLCP = LCP{N: Equal}

// Kernel is the comparison kernel of one record format: its order, and
// the two functions an LCP sort runs on. All three must be pure and must
// not allocate.
type Kernel struct {
	// Compare is the order, a total order over encoded records.
	Compare func(a, b []byte) int
	// Start returns rec's LCP against a reference that precedes every
	// record and shares no component with any: N 0 and the head of its
	// first component.
	Start func(rec []byte) LCP
	// Walk orders a and b, whose LCPs la and lb against one reference
	// have the same N, reading both from component N on. It returns the
	// order and each record's LCP against the other.
	Walk func(a, b []byte, la, lb LCP) (c int, ta, tb LCP)
}

// Rec is a record with its LCP against the sort's reference.
type Rec struct {
	Bytes []byte
	LCP   LCP
}

// Less reports whether a goes before b, where a.LCP and b.LCP hold against
// one reference at or before both; equal records go in the order aFirst
// gives. The winner's LCP stays as it is, and the loser's becomes its LCP
// against the winner, so both hold against whichever record is output
// next.
//
// The larger N goes first, and neither record is read: the other record's
// component at the smaller N is greater than the reference's, which the
// first record shares. On equal N, differing heads decide. Equal heads
// leave it to Walk.
func (k *Kernel) Less(a, b *Rec, aFirst bool) bool {
	if a.LCP.N != b.LCP.N {
		return a.LCP.N > b.LCP.N
	}
	if a.LCP.Head != b.LCP.Head {
		return a.LCP.Head < b.LCP.Head
	}
	c, ta, tb := k.Walk(a.Bytes, b.Bytes, a.LCP, b.LCP)
	if c < 0 || c == 0 && aFirst {
		b.LCP = tb
		return true
	}
	a.LCP = ta
	return false
}

// Next returns rec's LCP against prev, the record before it in a sorted
// run.
func (k *Kernel) Next(prev, rec []byte) LCP {
	lp, lr := k.Start(prev), k.Start(rec)
	if lp.Head != lr.Head {
		return lr
	}
	_, _, t := k.Walk(prev, rec, lp, lr)
	return t
}

// KeyPath is the kernel for keypath-encoded records (path length, then per
// component a uvarint-prefixed key and a uvarint seq). It is the order of
// keypath.CompareEncoded and keypath.Record.Compare.
func KeyPath() Kernel {
	return Kernel{Compare: CompareKeyPath, Start: keyPathStart, Walk: keyPathWalk}
}

// KeySeq is the kernel for (key, seq)-headed records: a uvarint-prefixed
// key followed by a uvarint seq, with an arbitrary payload after — the
// child-record format of graceful degeneration.
func KeySeq() Kernel {
	return oneKey(CompareKeySeq, func(rec []byte) uint64 { return parseComponent(rec, 0, 0, 1).head() })
}

// FixedPrefix is the kernel for records ordered by their first n raw
// bytes (e.g. the big-endian preorder index of the key sidecar). Records
// shorter than n order by their full length-clamped prefix.
func FixedPrefix(n int) Kernel {
	return oneKey(
		func(a, b []byte) int { return bytes.Compare(clamp(a, n), clamp(b, n)) },
		func(rec []byte) uint64 { return head8(clamp(rec, n)) })
}

// Order is the kernel for any other order: every head word is 0, so every
// comparison between records that differ from the last output goes to cmp.
func Order(cmp func(a, b []byte) int) Kernel {
	return oneKey(cmp, func([]byte) uint64 { return 0 })
}

// oneKey is the kernel of an order with one component: two records share
// it whole or not at all, and head gives its head word.
func oneKey(cmp func(a, b []byte) int, head func(rec []byte) uint64) Kernel {
	return Kernel{
		Compare: cmp,
		Start:   func(rec []byte) LCP { return LCP{Head: head(rec)} },
		Walk: func(a, b []byte, la, lb LCP) (int, LCP, LCP) {
			if la.N == Equal {
				return 0, la, lb
			}
			if c := cmp(a, b); c != 0 {
				return c, la, lb
			}
			return 0, equalLCP, equalLCP
		},
	}
}

func clamp(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// head8 returns the first eight bytes of key, big-endian and zero-padded.
// Where two heads differ they order as the keys do: at the first differing
// byte either both keys have a byte, or the one without it is a prefix of
// the other and pads with 0 below the other's nonzero byte.
func head8(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var h uint64
	for i, b := range key {
		h |= uint64(b) << (56 - 8*i)
	}
	return h
}

// CompareKeys is the sibling order on criterion keys: plain byte order,
// with the empty key (text nodes, unkeyed elements) first. It is the one
// definition of key order every sorter and the structural merge share.
func CompareKeys(a, b string) int {
	switch {
	case a == b:
		return 0
	case a < b:
		return -1
	default:
		return 1
	}
}

// uvarint decodes a varint from buf at pos without an io.ByteReader
// round-trip. ok is false when the varint is truncated or overflows 64
// bits; pos is then unchanged (the failing field's first byte).
func uvarint(buf []byte, pos int) (v uint64, next int, ok bool) {
	var shift uint
	for i := pos; i < len(buf); i++ {
		b := buf[i]
		if b < 0x80 {
			if i-pos > 9 || (i-pos == 9 && b > 1) {
				return 0, pos, false // overflows uint64
			}
			return v | uint64(b)<<shift, i + 1, true
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
		if shift >= 64 {
			return 0, pos, false
		}
	}
	return 0, pos, false
}

// component is one parsed step of an encoded record, or the reason parsing
// stopped.
type component struct {
	state compState
	key   []byte
	seq   uint64
	seqOK bool // false: key parsed but seq truncated (corrupt inside)
	tail  int  // corrupt: offset of the first unparseable field
	next  int  // cursor after this component
}

type compState uint8

const (
	compEnd     compState = iota // past the last component (rank 0)
	compKeyed                    // key parsed; seq per seqOK (rank 1)
	compCorrupt                  // unparseable at the component head (rank 2)
)

// parseComponent parses component i of a record whose header declared n
// components, starting at pos.
func parseComponent(buf []byte, pos int, i, n uint64) component {
	if i >= n {
		return component{state: compEnd, next: pos}
	}
	keyLen, p, ok := uvarint(buf, pos)
	if !ok {
		return component{state: compCorrupt, tail: pos}
	}
	if keyLen > uint64(len(buf)-p) {
		return component{state: compCorrupt, tail: p}
	}
	key := buf[p : p+int(keyLen)]
	pos = p + int(keyLen)
	seq, p, ok := uvarint(buf, pos)
	if !ok {
		return component{state: compKeyed, key: key, tail: pos}
	}
	return component{state: compKeyed, key: key, seq: seq, seqOK: true, next: p}
}

// head is the component's LCP head word.
func (c component) head() uint64 {
	switch c.state {
	case compEnd:
		return 0
	case compKeyed:
		return head8(c.key)
	}
	return math.MaxUint64
}

// compareComponents orders components ca of a and cb of b. done reports
// that the order of the records is settled by them even when c is 0:
// both paths ended, or both are corrupt from here and their tails decide.
func compareComponents(a, b []byte, ca, cb *component) (c int, done bool) {
	if ca.state != cb.state {
		if ca.state < cb.state {
			return -1, true
		}
		return 1, true
	}
	switch ca.state {
	case compEnd:
		return 0, true
	case compCorrupt:
		return bytes.Compare(a[ca.tail:], b[cb.tail:]), true
	}
	if c := bytes.Compare(ca.key, cb.key); c != 0 {
		return c, true
	}
	if !ca.seqOK || !cb.seqOK {
		switch {
		case !ca.seqOK && !cb.seqOK:
			return bytes.Compare(a[ca.tail:], b[cb.tail:]), true
		case !ca.seqOK:
			return 1, true
		default:
			return -1, true
		}
	}
	return cmp.Compare(ca.seq, cb.seq), false
}

// CompareKeyPath orders two keypath-encoded records by path, component-wise
// by (key, seq) with strict path prefixes first, without decoding tokens
// and without allocating. Malformed records take the total order described
// in the package comment. It is the key-path kernel's walk from the first
// component.
func CompareKeyPath(a, b []byte) int {
	c, _, _ := keyPathWalk(a, b, keyPathStart(a), keyPathStart(b))
	return c
}

// keyPathStart is the key-path kernel's Start. A header that does not
// parse makes the whole record a corrupt first component: the normalized
// key is 0xFF ++ the record.
func keyPathStart(rec []byte) LCP {
	n, pos, ok := uvarint(rec, 0)
	if !ok {
		return LCP{Head: math.MaxUint64}
	}
	return LCP{Head: parseComponent(rec, pos, 0, n).head(), Off: uint32(pos)}
}

// keyPathWalk is the key-path kernel's Walk. Records that meet in a sort
// share their leading components, so it starts at the first byte from
// component N on where the two records differ, found eight bytes at a
// time. Every component of a that ends before that byte is byte-identical
// in b, and the encoding is self-delimiting, so those components are equal
// and are skipped without parsing b. The component that holds the
// difference decides, with a fast path for one-byte key lengths; the
// general loop handles long keys, non-minimal varints (equal values in
// different bytes, after which the two offsets part) and malformed
// records.
func keyPathWalk(a, b []byte, la, lb LCP) (int, LCP, LCP) {
	if la.N == Equal {
		return 0, la, lb
	}
	na, _, oka := uvarint(a, 0)
	nb, _, okb := uvarint(b, 0)
	if !oka || !okb {
		// Both LCPs have N 0: a corrupt header is a corrupt first
		// component, whose tail is the whole record.
		var c int
		switch {
		case !oka && !okb:
			c = bytes.Compare(a, b)
		case !oka:
			c = compareCorruptHeader(a, b, int(lb.Off), nb)
		default:
			c = -compareCorruptHeader(b, a, int(la.Off), na)
		}
		if c == 0 {
			return 0, equalLCP, equalLCP
		}
		return c, la, lb
	}
	i := uint64(la.N)
	pa, pb := int(la.Off), int(lb.Off)
	diff := pa + CommonPrefix(a[pa:], b[pb:])
	for ; i < na && i < nb; i++ {
		_, next := shortComponent(a, pa)
		if next == 0 {
			next = componentEnd(a, pa)
		}
		if next == 0 || next > diff {
			break
		}
		pb += next - pa
		pa = next
	}
	if i == na || i == nb {
		// One path ends here and the other does not (a strict prefix
		// sorts first), or both end with every component equal.
		if na == nb {
			return 0, equalLCP, equalLCP
		}
		return cmp.Compare(na, nb),
			LCP{Head: parseComponent(a, pa, i, na).head(), N: uint32(i), Off: uint32(pa)},
			LCP{Head: parseComponent(b, pb, i, nb).head(), N: uint32(i), Off: uint32(pb)}
	}
	// The difference lies in this component. When both sides hold a
	// one-byte key length, it decides the order as (key, seq) without a
	// general parse.
	if sa, ea := shortComponent(a, pa); ea > 0 {
		if sb, eb := shortComponent(b, pb); eb > 0 {
			c := bytes.Compare(a[pa+1:sa], b[pb+1:sb])
			if c == 0 {
				x, _, _ := uvarint(a, sa)
				y, _, _ := uvarint(b, sb)
				c = cmp.Compare(x, y)
			}
			if c != 0 {
				return c,
					LCP{Head: head8(a[pa+1 : sa]), N: uint32(i), Off: uint32(pa)},
					LCP{Head: head8(b[pb+1 : sb]), N: uint32(i), Off: uint32(pb)}
			}
		}
	}
	for ; ; i++ {
		ca := parseComponent(a, pa, i, na)
		cb := parseComponent(b, pb, i, nb)
		c, done := compareComponents(a, b, &ca, &cb)
		if c != 0 {
			return c,
				LCP{Head: ca.head(), N: uint32(i), Off: uint32(pa)},
				LCP{Head: cb.head(), N: uint32(i), Off: uint32(pb)}
		}
		if done {
			return 0, equalLCP, equalLCP
		}
		pa, pb = ca.next, cb.next
	}
}

// compareCorruptHeader orders a record x whose header varint does not
// parse (normalized key 0xFF ++ x) against a record y with a parseable
// header, whose first component starts at py. y's normalized key begins
// with a component tag (0x01), with the corrupt marker when its first
// component is unparseable (0xFF ++ tail), or is empty for a
// zero-component path — so x sorts after y except when both reduce to
// corrupt tails, which order by raw bytes.
func compareCorruptHeader(x, y []byte, py int, ny uint64) int {
	c := parseComponent(y, py, 0, ny)
	if c.state == compCorrupt {
		return bytes.Compare(x, y[c.tail:])
	}
	return 1
}

// shortComponent locates the component at pos when its key length is one
// byte, its seq at most nine (so it cannot overflow), and all of it is in
// buf: the key is buf[pos+1 : seq] and the component ends at end. end is 0
// otherwise.
func shortComponent(buf []byte, pos int) (seq, end int) {
	if pos < len(buf) && buf[pos] < 0x80 {
		seq = pos + 1 + int(buf[pos])
		for i := seq; i < len(buf) && i < seq+9; i++ {
			if buf[i] < 0x80 {
				return seq, i + 1
			}
		}
	}
	return 0, 0
}

// componentEnd returns the offset just past the component at pos, or 0
// when the component does not parse whole.
func componentEnd(buf []byte, pos int) int {
	keyLen, p, ok := uvarint(buf, pos)
	if !ok || keyLen > uint64(len(buf)-p) {
		return 0
	}
	if _, p, ok = uvarint(buf, p+int(keyLen)); !ok {
		return 0
	}
	return p
}

// CommonPrefix returns the length of the longest common prefix of a and
// b, comparing eight bytes at a time.
func CommonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(b[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// CompareKeySeq orders (key, seq)-headed records — keyLen uvarint, key
// bytes, seq uvarint, then an ignored payload — by (key, seq), with the
// same malformed-record total order as CompareKeyPath.
func CompareKeySeq(a, b []byte) int {
	ca := parseComponent(a, 0, 0, 1)
	cb := parseComponent(b, 0, 0, 1)
	c, _ := compareComponents(a, b, &ca, &cb)
	return c
}
