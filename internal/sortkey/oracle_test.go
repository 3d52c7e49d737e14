package sortkey

import "bytes"

// The normalized keys of the package comment: the tests' oracle for the
// order. bytes.Compare over two records' normalized keys must order them
// as the kernel does.

// Normalized-key byte markers. Their relative order is load-bearing; see
// the package comment.
const (
	tagComponent = 0x01 // precedes every well-formed component
	tagCorrupt   = 0xFF // precedes the raw tail of an unparseable record
)

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

// appendKeyPathKey appends the normalized key of a keypath-encoded record.
func appendKeyPathKey(dst, rec []byte) []byte {
	n, pos, ok := uvarint(rec, 0)
	if !ok {
		return append(append(dst, tagCorrupt), rec...)
	}
	for i := uint64(0); i < n; i++ {
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

// appendKeySeqKey appends the normalized key of a (key, seq)-headed record.
func appendKeySeqKey(dst, rec []byte) []byte {
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
