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

// outputPhase is lines 13-21 of Figure 4. Its blocks are the output
// location stack, the output buffer and the one run reader the sink holds
// open at a time. In the paper's layout the sink walks the run tree from
// the root run. In the default layout the root is sorted into the sink,
// which follows each run pointer as it arrives; the root's sort sizes
// itself by what is left once those three blocks are granted.
func (s *sorter) outputPhase(root *docRoot, out io.Writer) error {
	budget := s.env.Budget

	oStack, err := xstack.NewRecordStack(s.env.Dev, em.CatOutputStack, budget, 1, outLocSize)
	if err != nil {
		return err
	}
	defer oStack.Close()

	// The output buffer and the run reader.
	if err := budget.Grant(2); err != nil {
		return fmt.Errorf("core: output buffers: %w", err)
	}
	defer budget.Release(2)

	cw := em.NewCountingWriter(out, s.env.Dev, em.CatOutput)
	defer cw.Close()
	sink := &outputSink{store: s.store, oStack: oStack}
	if s.opts.Indent != "" {
		sink.xw = xmltok.NewIndentWriter(cw, s.opts.Indent)
	} else {
		sink.xw = xmltok.NewWriter(cw)
	}
	if s.dict != nil {
		sink.dec = compact.NewDecoder(s.dict)
	}

	if root.run >= 0 {
		err = sink.follow(root.run)
	} else {
		err = s.sortRoot(root, sink)
	}
	if err != nil {
		return err
	}
	if err := sink.xw.Close(); err != nil {
		return err
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	s.report.OutputBytes = cw.BytesWritten()
	return nil
}

// outputSink is the output phase as a token sink: Append serializes a
// token, and a run pointer is followed into its run tree. Its run readers
// are opened under the one reader block outputPhase grants.
type outputSink struct {
	store  *runstore.Store
	oStack *xstack.RecordStack
	xw     *xmltok.Writer
	// With compaction, dec restores each token's names into new bytes
	// before it is written.
	dec  *compact.Decoder
	view xmltok.Encoded
	loc  [outLocSize]byte
}

// Append writes one encoded token, or the run tree a run pointer leads to.
func (o *outputSink) Append(tok []byte) error {
	if _, ok := o.view.Scan(tok); !ok {
		return fmt.Errorf("core: corrupt token in the output phase")
	}
	if o.view.Kind() == xmltok.KindRunPtr {
		return o.follow(runstore.RunID(o.view.Run()))
	}
	return o.write(&o.view)
}

// write serializes one token that is not a run pointer.
func (o *outputSink) write(tok *xmltok.Encoded) error {
	if o.dec != nil {
		var err error
		if tok, err = o.dec.Decode(tok); err != nil {
			return err
		}
	}
	return o.xw.WriteEncoded(tok)
}

// follow writes the run tree under run id: a depth-first traversal made
// iterative with the output location stack, so that arbitrarily deep run
// trees never grow the call stack beyond the one resident block the
// analysis assumes (Lemma 4.13). The stack is empty on entry and on return.
func (o *outputSink) follow(id runstore.RunID) error {
	cur, err := o.store.OpenCat(id, nil, 0, em.CatRunRead)
	if err != nil {
		return err
	}
	for {
		tok, err := cur.Next()
		if err == io.EOF {
			cur.Close()
			if o.oStack.Len() == 0 {
				return nil
			}
			if err := o.oStack.Pop(o.loc[:]); err != nil {
				return err
			}
			id = runstore.RunID(binary.LittleEndian.Uint64(o.loc[0:]))
			off := int64(binary.LittleEndian.Uint64(o.loc[8:]))
			if cur, err = o.store.OpenCat(id, nil, off, em.CatRunRead); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			cur.Close()
			return err
		}
		if tok.Kind() == xmltok.KindRunPtr {
			// Lines 19-20: remember where to resume this run, then jump
			// into the child run at its beginning.
			binary.LittleEndian.PutUint64(o.loc[0:], uint64(id))
			binary.LittleEndian.PutUint64(o.loc[8:], uint64(cur.Offset()))
			if err := o.oStack.Push(o.loc[:]); err != nil {
				cur.Close()
				return err
			}
			cur.Close()
			id = runstore.RunID(tok.Run())
			if cur, err = o.store.OpenCat(id, nil, 0, em.CatRunRead); err != nil {
				return err
			}
			continue
		}
		if err := o.write(tok); err != nil {
			cur.Close()
			return err
		}
	}
}
