package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"nexsort/internal/compact"
	"nexsort/internal/em"
	"nexsort/internal/runstore"
	"nexsort/internal/xmltok"
	"nexsort/internal/xstack"
)

// outLocSize is the output location stack's record size: run ID plus
// resume offset.
const outLocSize = 16

// outputPhase is lines 13-21 of Figure 4: a depth-first traversal of the
// tree of sorted runs, made iterative with an external-memory output
// location stack so that arbitrarily deep run trees never grow the call
// stack beyond the one resident block the analysis assumes (Lemma 4.13).
func (s *sorter) outputPhase(root runstore.RunID, out io.Writer) error {
	budget := s.env.Budget

	oStack, err := xstack.NewRecordStack(s.env.Dev, em.CatOutputStack, budget, 1, outLocSize)
	if err != nil {
		return err
	}
	defer oStack.Close()

	if err := budget.Grant(1); err != nil {
		return fmt.Errorf("core: output buffer: %w", err)
	}
	defer budget.Release(1)

	cw := em.NewCountingWriter(out, s.env.Dev, em.CatOutput)
	defer cw.Close()
	var xw *xmltok.Writer
	if s.opts.Indent != "" {
		xw = xmltok.NewIndentWriter(cw, s.opts.Indent)
	} else {
		xw = xmltok.NewWriter(cw)
	}

	// With compaction, each token is decoded — through one token decoder
	// for the whole phase, whose name interning carries across tokens —
	// and its names restored before it is written.
	var dec *compact.Decoder
	var tokDec xmltok.Decoder
	if s.dict != nil {
		dec = compact.NewDecoder(s.dict)
	}

	curID := root
	cur, err := s.store.OpenCat(curID, budget, 0, em.CatRunRead)
	if err != nil {
		return err
	}
	loc := make([]byte, outLocSize)
	for {
		tok, err := cur.Next()
		if err == io.EOF {
			cur.Close()
			if oStack.Len() == 0 {
				break
			}
			if err := oStack.Pop(loc); err != nil {
				return err
			}
			curID = runstore.RunID(binary.LittleEndian.Uint64(loc[0:]))
			off := int64(binary.LittleEndian.Uint64(loc[8:]))
			if cur, err = s.store.OpenCat(curID, budget, off, em.CatRunRead); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			cur.Close()
			return err
		}
		if tok.Kind() == xmltok.KindRunPtr {
			// Line 19-20: remember where to resume this run, then jump
			// into the child run at its beginning.
			binary.LittleEndian.PutUint64(loc[0:], uint64(curID))
			binary.LittleEndian.PutUint64(loc[8:], uint64(cur.Offset()))
			if err := oStack.Push(loc); err != nil {
				cur.Close()
				return err
			}
			cur.Close()
			curID = runstore.RunID(tok.Run())
			if cur, err = s.store.OpenCat(curID, budget, 0, em.CatRunRead); err != nil {
				return err
			}
			continue
		}
		if dec != nil {
			err = writeCompacted(xw, &tokDec, dec, tok)
		} else {
			err = xw.WriteEncoded(tok)
		}
		if err != nil {
			cur.Close()
			return err
		}
	}
	if err := xw.Close(); err != nil {
		return err
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	s.report.OutputBytes = cw.BytesWritten()
	return nil
}

// writeCompacted writes one token of a compacted run: decoded, its names
// restored by dec, and serialized without its key.
func writeCompacted(xw *xmltok.Writer, tokDec *xmltok.Decoder, dec *compact.Decoder, tok *xmltok.Encoded) error {
	t, err := dec.Decode(tokDec.Decode(tok))
	if err != nil {
		return err
	}
	return xw.WriteToken(t)
}
