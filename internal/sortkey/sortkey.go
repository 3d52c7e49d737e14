// Package sortkey is the comparison kernel of the sort hot path: an
// order-preserving binary key encoding plus zero-allocation comparators
// over the record formats the sorters spill.
//
// The central idea is the normalized key of sort engineering practice
// (Rahn/Sanders/Singler; also every database sort since System R): map each
// record to a byte string such that
//
//	bytes.Compare(Normalize(a), Normalize(b)) == Compare(a, b)
//
// so the O(N·log N) comparisons of run formation and the O(log k) per
// output record of merging degenerate to raw memcmp over short inline
// prefixes — no decoding, no per-component string allocation, no pointer
// chasing. The comparators here are the fallback for records whose
// normalized prefixes tie; they walk the encoded bytes in place — the
// key-path one from the first byte where the two records differ — and
// never allocate.
//
// # Encoding
//
// A key path is a sequence of (key, seq) components (see internal/keypath).
// Its normalized key is the concatenation, per component, of
//
//	0x01                      component tag
//	escape(key)               0x00 → 0x00 0xFF, all other bytes verbatim
//	0x00 0x01                 key terminator
//	byte(n) ++ BE(seq)[8-n:]  n = minimal big-endian byte length of seq
//
// and nothing at the end of the path. Order preservation falls out of
// three facts. First, the escape is monotone: at the first differing key
// byte both sides emit comparable bytes (0x00 escapes to 0x00 0xFF, which
// still sorts below every unescaped byte ≥ 0x01), and a key that is a
// strict prefix of another terminates with 0x00 0x01, which sorts below
// both an unescaped continuation byte (≥ 0x01 at the first position) and
// an escaped 0x00 (0xFF at the second). Second, the seq encoding is
// length-first big-endian, so numeric order and byte order coincide.
// Third, a record whose path is a strict prefix of another's produces a
// normalized key that is a strict byte prefix, and bytes.Compare orders
// prefixes first — exactly the parent-before-descendants order of the
// key-path representation.
//
// # Malformed records
//
// A record that cannot be fully parsed (truncated varint, key length
// overrunning the buffer) does not alias to a valid record — the historic
// hole where a truncated component compared as the empty key. Instead the
// normalized key of the valid prefix is followed by
//
//	0xFF ++ raw remaining bytes
//
// and the comparators mirror the same rule. 0xFF sorts above a component
// tag (0x01), above end-of-path (end of string), and above every seq
// length byte (≤ 0x08), so a corrupt record sorts strictly after every
// valid record sharing its parseable prefix; two corrupt records order by
// their raw tails. The result is a total order (ties only between records
// whose parseable prefixes and corrupt tails coincide), which is what an
// in-flight comparator can offer — surfacing corruption as an error
// remains the job of the decoding read path.
package sortkey

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math/bits"
)

// Normalized-key byte markers. Their relative order is load-bearing; see
// the package comment.
const (
	tagComponent = 0x01 // precedes every well-formed component
	tagCorrupt   = 0xFF // precedes the raw tail of an unparseable record
)

// Kernel bundles the two halves of a comparison kernel for one record
// format: the zero-allocation comparator and the normalized-key generator
// that agrees with it. Both must be pure functions (safe for concurrent
// use by pool workers).
type Kernel struct {
	// Compare is a total order over encoded records. It must not allocate.
	Compare func(a, b []byte) int
	// AppendKey appends rec's order-preserving normalized key to dst and
	// returns the extended slice: bytes.Compare over generated keys must
	// order exactly as Compare over the records. max > 0 permits stopping
	// early once at least max bytes (beyond dst's initial length) have
	// been appended — the produced key is then a prefix of the full key —
	// for callers that keep only a fixed-size prefix. max <= 0 appends
	// the full key. May be nil, in which case callers fall back to
	// Compare alone.
	AppendKey func(dst, rec []byte, max int) []byte
}

// KeyPath is the kernel for keypath-encoded records (path length, then per
// component a uvarint-prefixed key and a uvarint seq). It is the order of
// keypath.CompareEncoded and keypath.Record.Compare.
func KeyPath() Kernel {
	return Kernel{Compare: CompareKeyPath, AppendKey: AppendKeyPathKey}
}

// KeySeq is the kernel for (key, seq)-headed records: a uvarint-prefixed
// key followed by a uvarint seq, with an arbitrary payload after — the
// child-record format of graceful degeneration.
func KeySeq() Kernel {
	return Kernel{Compare: CompareKeySeq, AppendKey: AppendKeySeqKey}
}

// FixedPrefix is the kernel for records ordered by their first n raw
// bytes (e.g. the big-endian preorder index of the key sidecar). Records
// shorter than n order by their full length-clamped prefix.
func FixedPrefix(n int) Kernel {
	return Kernel{
		Compare: func(a, b []byte) int {
			return bytes.Compare(clamp(a, n), clamp(b, n))
		},
		AppendKey: func(dst, rec []byte, _ int) []byte {
			return append(dst, clamp(rec, n)...)
		},
	}
}

func clamp(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
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

// appendEscaped appends key with 0x00 escaped to 0x00 0xFF, then the
// 0x00 0x01 terminator.
func appendEscaped(dst, key []byte) []byte {
	for {
		i := bytes.IndexByte(key, 0x00)
		if i < 0 {
			dst = append(dst, key...)
			break
		}
		dst = append(dst, key[:i]...)
		dst = append(dst, 0x00, 0xFF)
		key = key[i+1:]
	}
	return append(dst, 0x00, tagComponent)
}

// appendSeq appends the length-first big-endian encoding of v: one byte
// holding the count of significant bytes (0..8), then those bytes.
func appendSeq(dst []byte, v uint64) []byte {
	n := 0
	for t := v; t > 0; t >>= 8 {
		n++
	}
	dst = append(dst, byte(n))
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, byte(v>>(8*uint(i))))
	}
	return dst
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

// compareCorruptHeader orders a record x whose header varint does not
// parse (normalized key 0xFF ++ x) against a record y with a parseable
// header. y's normalized key begins with a component tag (0x01), with the
// corrupt marker when its first component is unparseable (0xFF ++ tail),
// or is empty for a zero-component path — so x sorts after y except when
// both reduce to corrupt tails, which order by raw bytes.
func compareCorruptHeader(x, y []byte, py int, ny uint64) int {
	c := parseComponent(y, py, 0, ny)
	if c.state == compCorrupt {
		return bytes.Compare(x, y[c.tail:])
	}
	return 1
}

// CompareKeyPath orders two keypath-encoded records by path, component-wise
// by (key, seq) with strict path prefixes first, without decoding tokens
// and without allocating. Malformed records take the total order described
// in the package comment. It agrees byte-for-byte with
// bytes.Compare(AppendKeyPathKey(nil, a, 0), AppendKeyPathKey(nil, b, 0)).
//
// Records that meet in a sort are mostly neighbours in path order, which
// share their leading components. So the comparison starts at the first
// byte where the component bytes differ. Every component of a that ends
// before that byte is byte-identical in b, and the encoding is
// self-delimiting, so those components are equal and are skipped without
// parsing b. The headers are not part of that scan: they differ whenever
// the depths do.
func CompareKeyPath(a, b []byte) int {
	na, pa, oka := uvarint(a, 0)
	nb, pb, okb := uvarint(b, 0)
	if !oka || !okb {
		switch {
		case !oka && !okb:
			return bytes.Compare(a, b)
		case !oka:
			return compareCorruptHeader(a, b, pb, nb)
		default:
			return -compareCorruptHeader(b, a, pa, na)
		}
	}
	diff := pa + CommonPrefix(a[pa:], b[pb:])
	i := uint64(0)
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
		return cmp.Compare(na, nb)
	}
	// The difference lies in this component. When both sides hold a
	// one-byte key length, it decides the order as (key, seq) without a
	// general parse.
	if sa, ea := shortComponent(a, pa); ea > 0 {
		if sb, eb := shortComponent(b, pb); eb > 0 {
			if c := bytes.Compare(a[pa+1:sa], b[pb+1:sb]); c != 0 {
				return c
			}
			x, _, _ := uvarint(a, sa)
			y, _, _ := uvarint(b, sb)
			if x != y {
				return cmp.Compare(x, y)
			}
		}
	}
	for ; ; i++ {
		ca := parseComponent(a, pa, i, na)
		cb := parseComponent(b, pb, i, nb)
		if ca.state != cb.state {
			if ca.state < cb.state {
				return -1
			}
			return 1
		}
		switch ca.state {
		case compEnd:
			return 0
		case compCorrupt:
			return bytes.Compare(a[ca.tail:], b[cb.tail:])
		}
		if c := bytes.Compare(ca.key, cb.key); c != 0 {
			return c
		}
		if !ca.seqOK || !cb.seqOK {
			switch {
			case !ca.seqOK && !cb.seqOK:
				return bytes.Compare(a[ca.tail:], b[cb.tail:])
			case !ca.seqOK:
				return 1
			default:
				return -1
			}
		}
		if ca.seq != cb.seq {
			if ca.seq < cb.seq {
				return -1
			}
			return 1
		}
		pa, pb = ca.next, cb.next
	}
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

// AppendKeyPathKey appends the normalized key of a keypath-encoded record.
// See Kernel.AppendKey for the dst/max contract.
func AppendKeyPathKey(dst, rec []byte, max int) []byte {
	base := len(dst)
	n, pos, ok := uvarint(rec, 0)
	if !ok {
		return append(append(dst, tagCorrupt), rec...)
	}
	for i := uint64(0); i < n; i++ {
		if max > 0 && len(dst)-base >= max {
			return dst
		}
		c := parseComponent(rec, pos, i, n)
		if c.state == compCorrupt {
			return append(append(dst, tagCorrupt), rec[c.tail:]...)
		}
		dst = append(dst, tagComponent)
		dst = appendEscaped(dst, c.key)
		if !c.seqOK {
			return append(append(dst, tagCorrupt), rec[c.tail:]...)
		}
		dst = appendSeq(dst, c.seq)
		pos = c.next
	}
	return dst
}

// CompareKeySeq orders (key, seq)-headed records — keyLen uvarint, key
// bytes, seq uvarint, then an ignored payload — by (key, seq), with the
// same malformed-record total order as CompareKeyPath. It agrees with
// bytes.Compare over AppendKeySeqKey.
func CompareKeySeq(a, b []byte) int {
	ca := parseComponent(a, 0, 0, 1)
	cb := parseComponent(b, 0, 0, 1)
	if ca.state != cb.state { // compKeyed vs compCorrupt only
		if ca.state < cb.state {
			return -1
		}
		return 1
	}
	if ca.state == compCorrupt {
		return bytes.Compare(a[ca.tail:], b[cb.tail:])
	}
	if c := bytes.Compare(ca.key, cb.key); c != 0 {
		return c
	}
	if !ca.seqOK || !cb.seqOK {
		switch {
		case !ca.seqOK && !cb.seqOK:
			return bytes.Compare(a[ca.tail:], b[cb.tail:])
		case !ca.seqOK:
			return 1
		default:
			return -1
		}
	}
	switch {
	case ca.seq < cb.seq:
		return -1
	case ca.seq > cb.seq:
		return 1
	default:
		return 0
	}
}

// AppendKeySeqKey appends the normalized key of a (key, seq)-headed record.
// See Kernel.AppendKey for the dst/max contract.
func AppendKeySeqKey(dst, rec []byte, _ int) []byte {
	c := parseComponent(rec, 0, 0, 1)
	if c.state == compCorrupt {
		return append(append(dst, tagCorrupt), rec[c.tail:]...)
	}
	dst = append(dst, tagComponent)
	dst = appendEscaped(dst, c.key)
	if !c.seqOK {
		return append(append(dst, tagCorrupt), rec[c.tail:]...)
	}
	return appendSeq(dst, c.seq)
}
