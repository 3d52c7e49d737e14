// Package fence implements the per-run fence-key sparse index behind the
// range-partitioned merge (DESIGN.md §17).
//
// During run formation the sorter records one Entry per run block: the
// byte offset of the first record that starts in the block and that
// record's full normalized sort key. The entries are serialized with
// Encode into a tiny side stream (em.CatFenceIndex) that rides the same
// hardened backend stack as the run itself, and read back with Decode when
// a merge wants to partition its inputs by key range: the fence keys bound
// where in a run any given splitter key can fall, so a partition's reader
// can re-open the run at a nearby block boundary instead of scanning it
// from the start.
//
// Keys are order-preserving normalized encodings (internal/sortkey), so
// all comparisons here are plain bytes.Compare.
package fence

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"nexsort/internal/em"
	"nexsort/internal/sortkey"
)

// Version is the current fence-index format version byte.
const Version = 1

// magic identifies a serialized fence index.
const magic = "NXFI"

// Entry is one fence: the first record starting in a run block.
type Entry struct {
	// Offset is the absolute byte offset of the record in the run.
	Offset int64
	// Key is the record's full normalized sort key.
	Key []byte
}

// Encode appends the serialized index for entries to dst and returns the
// extended slice. The format is:
//
//	"NXFI" | version byte | uvarint count |
//	  per entry: uvarint offset-delta | uvarint shared-prefix-len |
//	             uvarint suffix-len | suffix bytes
//
// Offsets are delta-coded (they are strictly increasing — at most one
// fence per block) and keys are front-coded against their predecessor,
// which they tend to share long prefixes with in sorted runs; a whole
// index is typically a few bytes per run block.
func Encode(dst []byte, entries []Entry) []byte {
	dst = append(dst, magic...)
	dst = append(dst, Version)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	var prevOff int64
	var prevKey []byte
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, uint64(e.Offset-prevOff))
		share := sortkey.CommonPrefix(prevKey, e.Key)
		dst = binary.AppendUvarint(dst, uint64(share))
		dst = binary.AppendUvarint(dst, uint64(len(e.Key)-share))
		dst = append(dst, e.Key[share:]...)
		prevOff, prevKey = e.Offset, e.Key
	}
	return dst
}

// Decode parses a serialized fence index, validating the magic, version,
// framing, and the index invariants: offsets strictly increasing from a
// first fence at offset 0, keys nondecreasing. Any violation — including
// truncation and trailing garbage — returns a typed *em.CorruptBlockError
// (errors.Is-matchable against em.ErrCorruptBlock), the same taxonomy a
// torn spill block surfaces under.
func Decode(data []byte) ([]Entry, error) {
	if len(data) < len(magic)+1 || string(data[:len(magic)]) != magic {
		return nil, corrupt("bad magic")
	}
	if v := data[len(magic)]; v != Version {
		return nil, corrupt(fmt.Sprintf("unsupported version %d", v))
	}
	rest := data[len(magic)+1:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, corrupt("truncated entry count")
	}
	rest = rest[n:]
	// Each entry costs at least 3 bytes (three uvarints), so a count
	// larger than the remaining payload cannot be honest; reject it before
	// allocating.
	if count > uint64(len(rest))/3+1 {
		return nil, corrupt(fmt.Sprintf("entry count %d exceeds payload", count))
	}
	entries := make([]Entry, 0, count)
	var prevOff int64
	var prevKey []byte
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, corrupt("truncated offset delta")
		}
		rest = rest[n:]
		if i == 0 {
			if delta != 0 {
				return nil, corrupt("first fence not at offset 0")
			}
		} else if delta == 0 {
			return nil, corrupt("offsets not strictly increasing")
		}
		share, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, corrupt("truncated shared-prefix length")
		}
		rest = rest[n:]
		if share > uint64(len(prevKey)) {
			return nil, corrupt("shared prefix longer than previous key")
		}
		suffix, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, corrupt("truncated suffix length")
		}
		rest = rest[n:]
		if suffix > uint64(len(rest)) {
			return nil, corrupt("truncated key suffix")
		}
		key := make([]byte, 0, share+suffix)
		key = append(key, prevKey[:share]...)
		key = append(key, rest[:suffix]...)
		rest = rest[suffix:]
		if bytes.Compare(key, prevKey) < 0 && i > 0 {
			return nil, corrupt("keys not nondecreasing")
		}
		entries = append(entries, Entry{Offset: prevOff + int64(delta), Key: key})
		prevOff += int64(delta)
		prevKey = key
	}
	if len(rest) != 0 {
		return nil, corrupt(fmt.Sprintf("%d trailing bytes", len(rest)))
	}
	return entries, nil
}

// corrupt wraps a fence-format violation in the repo's typed corruption
// error. Block -1 marks it as an index-level finding rather than a device
// block's.
func corrupt(reason string) error {
	return &em.CorruptBlockError{Block: -1, Reason: "fence index: " + reason}
}
