package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"nexsort/internal/em"
	"nexsort/internal/extsort"
	"nexsort/internal/keypath"
	"nexsort/internal/runstore"
	"nexsort/internal/sortkey"
	"nexsort/internal/xmltok"
	"nexsort/internal/xmltree"
)

// keyPathSortTokens runs a depth-aware key-path external merge sort over an
// annotated token stream describing one subtree, writing the sorted token
// stream into a run. Start tokens must carry keys (directly for
// start-resolvable criteria, via keyedSource otherwise). relLimit > 0
// bounds sorting to the top relLimit levels: deeper elements degrade to the
// empty key, so the (key, seq) order reduces to document order there.
func keyPathSortTokens(env *em.Env, src xmltree.TokenSource, relLimit int, w *runstore.Writer) error {
	sorter, err := extsort.NewKernel(env, em.CatSubtreeSort, sortkey.KeyPath(), env.Budget.Free())
	if err != nil {
		return err
	}
	defer sorter.Close()

	extract := keypath.NewExtractor()
	var encBuf []byte
	for {
		tok, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if tok.Kind == xmltok.KindStart {
			if relLimit > 0 && extract.Depth()+1 > relLimit+1 {
				tok = tok.WithKey("")
			} else if !tok.HasKey {
				return fmt.Errorf("core: external subtree sort saw a keyless start tag <%s>", tok.Name)
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

	it, err := sorter.Sort()
	if err != nil {
		return err
	}
	defer it.Close()
	builder := keypath.NewBuilder(w.WriteToken)
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
	// index — which is already a normalized key, so the kernel is a pure
	// fixed-prefix memcmp.
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
		tok, err := dec.ReadToken(reader)
		if err == io.EOF {
			break
		}
		if err != nil {
			reader.Close()
			sorter.Close()
			return nil, err
		}
		switch tok.Kind {
		case xmltok.KindStart:
			openPre = append(openPre, pre)
			pre++
		case xmltok.KindEnd:
			idx := openPre[len(openPre)-1]
			openPre = openPre[:len(openPre)-1]
			rec = rec[:0]
			rec = binary.BigEndian.AppendUint64(rec, uint64(idx))
			rec = append(rec, tok.Key...)
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

func (k *keySidecar) next() (idx int64, key string, err error) {
	raw, err := k.it.Next()
	if err != nil {
		return 0, "", err
	}
	if len(raw) < 8 {
		return 0, "", fmt.Errorf("core: corrupt sidecar record")
	}
	return int64(binary.BigEndian.Uint64(raw[:8])), string(raw[8:]), nil
}

func (k *keySidecar) Close() {
	k.it.Close()
	k.sorter.Close()
}

// keyedSource zips sidecar keys onto the start tags of a second subtree
// scan, so key-path extraction sees a start-resolvable stream.
type keyedSource struct {
	inner   *tokenSource
	sidecar *keySidecar
	pre     int64
}

func (k *keyedSource) Next() (xmltok.Token, error) {
	tok, err := k.inner.Next()
	if err != nil {
		return tok, err
	}
	if tok.Kind == xmltok.KindStart {
		idx, key, err := k.sidecar.next()
		if err != nil {
			return tok, fmt.Errorf("core: key sidecar exhausted early: %w", err)
		}
		if idx != k.pre {
			return tok, fmt.Errorf("core: key sidecar out of sync: got %d, want %d", idx, k.pre)
		}
		k.pre++
		tok = tok.WithKey(key)
	}
	return tok, nil
}

// Child records (graceful degeneration): one complete, interior-sorted
// child subtree of the element being degenerated, tagged with its ordering
// key and original sibling sequence number so batches merge by (key, seq).
//
//	keyLen uvarint | key | seq uvarint | encoded subtree tokens
func encodeChildRecord(dst []byte, node *xmltree.Node, seq int64) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(node.Key)))
	dst = append(dst, node.Key...)
	dst = binary.AppendUvarint(dst, uint64(seq))
	var err error
	emit := func(tok xmltok.Token) error {
		dst = xmltok.AppendToken(dst, tok)
		return nil
	}
	if err = node.EmitTokens(emit); err != nil {
		return nil, err
	}
	return dst, nil
}

// newChildRecordSorter builds the merger for graceful degeneration using
// all remaining budget. The (key, seq) header is exactly sortkey's KeySeq
// format, so the sorter compares child records without decoding them.
func newChildRecordSorter(env *em.Env) (*extsort.Sorter, error) {
	return extsort.NewKernel(env, em.CatSubtreeSort, sortkey.KeySeq(), env.Budget.Free())
}

// drainChildRecords streams sorted child records into a run, stripping the
// (key, seq) header and appending each child's tokens.
func drainChildRecords(sorter *extsort.Sorter, w *runstore.Writer) error {
	it, err := sorter.Sort()
	if err != nil {
		return err
	}
	defer it.Close()
	var dec xmltok.Decoder
	for {
		raw, err := it.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		cur := &sliceCursor{buf: raw}
		if err := skipCursorString(cur); err != nil { // key
			return fmt.Errorf("core: corrupt child record: %w", err)
		}
		if _, err := binary.ReadUvarint(cur); err != nil {
			return fmt.Errorf("core: corrupt child record: %w", err)
		}
		for {
			tok, err := dec.ReadToken(cur)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := w.WriteToken(tok); err != nil {
				return err
			}
		}
	}
}

// sliceCursor is an io.ByteReader and io.Reader over a byte slice.
type sliceCursor struct {
	buf []byte
	pos int
}

func (c *sliceCursor) ReadByte() (byte, error) {
	if c.pos >= len(c.buf) {
		return 0, io.EOF
	}
	b := c.buf[c.pos]
	c.pos++
	return b, nil
}

func (c *sliceCursor) Read(p []byte) (int, error) {
	if c.pos >= len(c.buf) {
		return 0, io.EOF
	}
	n := copy(p, c.buf[c.pos:])
	c.pos += n
	return n, nil
}

// Window returns the unread rest of the slice (xmltok.WindowReader), so
// token decoders read it in place.
func (c *sliceCursor) Window() ([]byte, error) {
	if c.pos >= len(c.buf) {
		return nil, io.EOF
	}
	return c.buf[c.pos:], nil
}

func (c *sliceCursor) Advance(n int) { c.pos += n }

// skipCursorString advances past a uvarint-prefixed string without
// materializing it; a length overrunning the buffer is an error, not an
// empty string.
func skipCursorString(c *sliceCursor) error {
	n, err := binary.ReadUvarint(c)
	if err != nil {
		return err
	}
	if n > uint64(len(c.buf)-c.pos) {
		return io.ErrUnexpectedEOF
	}
	c.pos += int(n)
	return nil
}
