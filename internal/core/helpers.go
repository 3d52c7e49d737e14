package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"nexsort/internal/em"
	"nexsort/internal/extsort"
	"nexsort/internal/keypath"
	"nexsort/internal/sortkey"
	"nexsort/internal/xmltok"
)

// keyPathSortTokens runs a depth-aware key-path external merge sort over an
// annotated token stream describing one subtree, read as views from r,
// handing the sorted token stream to write. Start tags must carry keys:
// directly for start-resolvable criteria, or from the key sidecar, which
// re-keys every start tag in preorder. relLimit > 0 bounds sorting to the
// top relLimit levels: deeper elements degrade to the empty key, so the
// (key, seq) order reduces to document order there.
//
// leave is sortPlan.leave: the blocks the sort leaves free once its input
// is spent, for the deferred merges its output leads to.
func keyPathSortTokens(env *em.Env, r io.ByteReader, sidecar *keySidecar, relLimit, leave int, write func(*xmltok.Encoded) error) error {
	sorter, err := extsort.NewKernel(env, em.CatSubtreeSort, sortkey.KeyPath(), env.Budget.Free())
	if err != nil {
		return err
	}
	defer sorter.Close()

	extract := keypath.NewExtractor()
	var dec xmltok.Decoder
	var rekeyed xmltok.Encoded
	var encBuf, tokBuf []byte
	for pre := int64(0); ; {
		tok, err := dec.ReadEncoded(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if tok.Kind() == xmltok.KindStart {
			key, rekey := tok.Key(), false
			if sidecar != nil {
				if key, err = sidecar.next(pre); err != nil {
					return err
				}
				pre++
				rekey = true
			}
			if relLimit > 0 && extract.Depth()+1 > relLimit+1 {
				key, rekey = nil, true
			}
			if rekey {
				tokBuf = rekeyed.Rekey(tokBuf[:0], tok, key)
				tok = &rekeyed
			} else if !tok.HasKey() {
				return fmt.Errorf("core: external subtree sort saw a keyless start tag <%s>", tok.Name())
			}
		}
		var ok bool
		if encBuf, ok, err = extract.Append(encBuf[:0], tok); err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := sorter.Add(encBuf); err != nil {
			return err
		}
	}
	// The input is spent: its reader's and the sidecar's blocks go back
	// now, for the deferred merges the output leads to. Both closes are
	// idempotent, so the caller's deferred ones stay.
	if c, ok := r.(io.Closer); ok {
		c.Close()
	}
	if sidecar != nil {
		sidecar.Close()
	}
	sorter.LeaveFree(leave)
	it, err := sorter.Sort()
	if err != nil {
		return err
	}
	defer it.Close()
	builder := keypath.NewBuilder(write)
	for {
		raw, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := builder.Add(raw); err != nil {
			return err
		}
	}
	return builder.Finish()
}

// sidecarBlocks is the memory share of the key sidecar's sorter during a
// path-criteria external subtree sort.
const sidecarBlocks = 3

// buildKeySidecar scans the subtree at start once and produces an iterator
// of (preorder index, key) records in preorder. Keys resolve on end tags,
// i.e. in postorder; an external sort on the preorder index restores
// preorder so the second scan can zip keys onto start tags.
func (s *sorter) buildKeySidecar(start int64) (*keySidecar, error) {
	reader, err := s.data.ReadRange(s.env.Budget, start)
	if err != nil {
		return nil, err
	}
	// The sidecar sorts on the first 8 raw bytes — the big-endian preorder
	// index — so each record's head word is its whole key.
	sorter, err := extsort.NewKernel(s.env, em.CatSubtreeSort, sortkey.FixedPrefix(8), sidecarBlocks)
	if err != nil {
		reader.Close()
		return nil, err
	}
	var openPre []int64 // preorder indices of open elements (O(depth))
	pre := int64(0)
	var rec []byte
	var dec xmltok.Decoder
	for {
		tok, err := dec.ReadEncoded(reader)
		if err == io.EOF {
			break
		}
		if err != nil {
			reader.Close()
			sorter.Close()
			return nil, err
		}
		switch tok.Kind() {
		case xmltok.KindStart:
			openPre = append(openPre, pre)
			pre++
		case xmltok.KindEnd:
			idx := openPre[len(openPre)-1]
			openPre = openPre[:len(openPre)-1]
			rec = rec[:0]
			rec = binary.BigEndian.AppendUint64(rec, uint64(idx))
			rec = append(rec, tok.Key()...)
			if err := sorter.Add(rec); err != nil {
				reader.Close()
				sorter.Close()
				return nil, err
			}
		}
	}
	reader.Close()
	it, err := sorter.Sort()
	if err != nil {
		sorter.Close()
		return nil, err
	}
	return &keySidecar{sorter: sorter, it: it}, nil
}

// keySidecar iterates (preorder index, key) records in preorder.
type keySidecar struct {
	sorter *extsort.Sorter
	it     *extsort.Iterator
}

// next returns the key of the element with preorder index pre, which must
// be the next record's. The key is valid until the next call.
func (k *keySidecar) next(pre int64) ([]byte, error) {
	raw, err := k.it.Next()
	if err != nil {
		return nil, fmt.Errorf("core: key sidecar exhausted early: %w", err)
	}
	if len(raw) < 8 {
		return nil, fmt.Errorf("core: corrupt sidecar record")
	}
	if idx := int64(binary.BigEndian.Uint64(raw[:8])); idx != pre {
		return nil, fmt.Errorf("core: key sidecar out of sync: got %d, want %d", idx, pre)
	}
	return raw[8:], nil
}

func (k *keySidecar) Close() {
	k.it.Close()
	k.sorter.Close()
}

// Child records (graceful degeneration): one complete, interior-sorted
// child subtree of the element being degenerated, tagged with its ordering
// key and original sibling sequence number so batches merge by (key, seq).
//
//	keyLen uvarint | key | seq uvarint | encoded subtree tokens
//
// appendChildRecord appends the record of node i of t.
func appendChildRecord(dst []byte, t *tokenTree, i int32, seq int64) ([]byte, error) {
	key := t.key(i)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(seq))
	t.record.b = dst
	err := t.emit(i, &t.record)
	return t.record.b, err
}

// mergeChildRecords writes an element whose children were all cut into
// runs of child records to w: its start tag, the runs merged into its
// sorted child list, and its end tag. The merger takes every free block; a
// leave above 0 has it leave that many free while it streams
// (extsort.Sorter.LeaveFree). The (key, seq) header is exactly sortkey's
// KeySeq format, so the merger compares child records without decoding
// them. Its final merge feeds w directly (SortStream): the merged child
// records are never written to scratch and read back. Each record's
// payload goes to w whole, unscanned: the output sink scans every token it
// writes, and a run's tokens are scanned when the run is read, so a
// corrupt token fails the sort there.
func mergeChildRecords(env *em.Env, start, end []byte, runs []*em.Stream, leave int, w tokenSink) error {
	sorter, err := extsort.NewKernel(env, em.CatSubtreeSort, sortkey.KeySeq(), env.Budget.Free())
	if err != nil {
		return err
	}
	defer sorter.Close()
	for _, run := range runs {
		if err := sorter.AddPresortedRun(run); err != nil {
			return err
		}
	}
	sorter.LeaveFree(leave)
	if err := w.Append(start); err != nil {
		return err
	}
	it, err := sorter.SortStream()
	if err != nil {
		return err
	}
	defer it.Close()
	for {
		raw, err := it.Next()
		if err == io.EOF {
			return w.Append(end)
		}
		if err != nil {
			return err
		}
		pos, err := skipRecordHeader(raw)
		if err != nil {
			return fmt.Errorf("core: corrupt child record: %w", err)
		}
		if err := w.Append(raw[pos:]); err != nil {
			return err
		}
	}
}

// skipRecordHeader returns the offset past a child record's (key, seq)
// header; a length overrunning the record is an error, not an empty key.
func skipRecordHeader(rec []byte) (int, error) {
	keyLen, n := binary.Uvarint(rec)
	if n <= 0 || keyLen > uint64(len(rec)-n) {
		return 0, io.ErrUnexpectedEOF
	}
	pos := n + int(keyLen)
	if _, n = binary.Uvarint(rec[pos:]); n <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	return pos + n, nil
}
