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
// location stack, the output buffer and the one run reader the sink reads
// with at a time. In the paper's layout the sink walks the run tree from
// the root run. In the default layout the root is sorted into the sink,
// which follows each run pointer and runs each deferred merge as it
// arrives; the root's sort and those merges share what is left once those
// three blocks are granted, and the sink parks the readers of the runs it
// leaves for a child run in what they leave free (outputSink.park).
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
	sink := &outputSink{env: s.env, store: s.store, deferred: s.deferred, oStack: oStack, parks: !s.opts.PaperLayout}
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
// token, a run pointer is followed into its run tree, and the pointer of a
// deferred merge runs the merge into the sink. It reads under the one
// reader block outputPhase grants, one run at a time; a parked reader
// holds a block of its own.
type outputSink struct {
	env      *em.Env
	store    *runstore.Store
	deferred []deferredMerge
	oStack   *xstack.RecordStack
	// parked holds, for each location follow pushed on oStack, the reader
	// it left there if park kept it open, else nil; parks is set in the
	// default layout, the only one that parks.
	parked []*runstore.Reader
	parks  bool
	// xw restores each end tag's name from its open elements.
	xw *xmltok.Writer
	// With compaction, dec restores each token's names into new bytes
	// before it is written.
	dec *compact.Decoder
	// tags holds the start and end tags of the deferred merge running,
	// read from its tag run; empty when none runs.
	tags []byte
	view xmltok.Encoded
	loc  [outLocSize]byte
}

// Append writes encoded tokens, scanning each once, and for a pointer what
// it leads to.
func (o *outputSink) Append(toks []byte) error {
	for len(toks) > 0 {
		n, ok := o.view.Scan(toks)
		if !ok {
			return fmt.Errorf("core: corrupt token in the output phase")
		}
		var err error
		if o.view.Kind() == xmltok.KindRunPtr {
			id := runstore.RunID(o.view.Run())
			if runs, ok := findDeferred(o.deferred, id); ok {
				err = o.merge(id, runs)
			} else {
				err = o.follow(id)
			}
		} else {
			err = o.write(&o.view)
		}
		if err != nil {
			return err
		}
		toks = toks[n:]
	}
	return nil
}

// merge runs the deferred merge of the tag run id into the sink: the
// element's start and end tags are read from the tag run under the sink's
// reader block, which is free whenever a pointer reaches the sink, and its
// incomplete runs are merged between them with every free block, where the
// sink's reader block again serves the run pointers in the children. The
// parked readers are closed first, so that the merge starts with the
// blocks it would have had if none had been parked. The
// rule at the end tag (sortingPhase) lets no deferred merge lead to
// another, so merges never nest here, and the end tag waits in tags as the
// root's waits in docRoot; the merges open at once are this one and at
// most the root's, which left it its blocks (sortRoot).
func (o *outputSink) merge(id runstore.RunID, runs []*em.Stream) error {
	if len(o.tags) > 0 {
		return fmt.Errorf("core: deferred merge of run %d inside another", id)
	}
	o.unpark()
	tags, err := o.store.OpenCat(id, nil, 0, em.CatRunRead)
	if err != nil {
		return err
	}
	var n int // the start tag is tags[:n]
	tok, err := tags.Next()
	if err == nil {
		o.tags = append(o.tags, tok.Bytes()...)
		n = len(o.tags)
		if tok, err = tags.Next(); err == nil {
			o.tags = append(o.tags, tok.Bytes()...)
		}
	}
	tags.Close()
	if err == nil {
		err = mergeChildRecords(o.env, o.tags[:n], o.tags[n:], runs, 0, o)
	}
	o.tags = o.tags[:0]
	return err
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
// analysis assumes (Lemma 4.13). A deferred merge in a run is run where its
// pointer stands, with the run's resume location pushed like a child run's.
// The merge may follow the runs its children point to, so follow uses the
// stack above the depth it was entered at, and leaves it at that depth.
// That recursion is bounded as the merges are: no deferred merge leads to
// another (sortingPhase), so the calls nest at most follow, merge, follow,
// under the root's sort, and the merges open at once are one deferred
// merge of at least extsort.MinMemBlocks blocks and at most the root's.
// A failed follow closes every parked reader, so that its caller unwinds
// with the blocks it had.
func (o *outputSink) follow(id runstore.RunID) (err error) {
	defer func() {
		if err != nil {
			o.unpark()
		}
	}()
	base := o.oStack.Len()
	cur, err := o.store.OpenCat(id, nil, 0, em.CatRunRead)
	if err != nil {
		return err
	}
	for {
		tok, err := cur.Next()
		if err == io.EOF {
			cur.Close()
			if o.oStack.Len() == base {
				return nil
			}
			if id, cur, err = o.resume(); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			cur.Close()
			return err
		}
		if tok.Kind() != xmltok.KindRunPtr {
			if err := o.write(tok); err != nil {
				cur.Close()
				return err
			}
			continue
		}
		// Lines 19-20: remember where to resume this run, then jump into
		// the child run at its beginning, or run the deferred merge and
		// resume at once.
		next := runstore.RunID(tok.Run())
		binary.LittleEndian.PutUint64(o.loc[0:], uint64(id))
		binary.LittleEndian.PutUint64(o.loc[8:], uint64(cur.Offset()))
		if err := o.oStack.Push(o.loc[:]); err != nil {
			cur.Close()
			return err
		}
		o.park(cur)
		if runs, ok := findDeferred(o.deferred, next); ok {
			if err := o.merge(next, runs); err != nil {
				return err
			}
			if id, cur, err = o.resume(); err != nil {
				return err
			}
			continue
		}
		id = next
		if cur, err = o.store.OpenCat(id, nil, 0, em.CatRunRead); err != nil {
			return err
		}
	}
}

// park leaves cur, whose location follow has just pushed, for a child run
// or a deferred merge. In the default layout, when the budget grants it a
// block, cur stays open with its current block resident, as a cache of
// that location: once the child run is written, resume carries on with it
// instead of reading the block again (the p(b) of Lemma 4.12). A merge
// closes it first (unpark). Otherwise cur is closed, and resume reopens
// the run at the location.
func (o *outputSink) park(cur *runstore.Reader) {
	if o.parks && o.env.Budget.Grant(1) == nil {
		o.parked = append(o.parked, cur)
		return
	}
	cur.Close()
	o.parked = append(o.parked, nil)
}

// unpark closes every parked reader and returns its block, leaving its
// location for resume to reopen.
func (o *outputSink) unpark() {
	for i, r := range o.parked {
		if r != nil {
			r.Close()
			o.env.Budget.Release(1)
			o.parked[i] = nil
		}
	}
}

// resume pops a location off the output location stack and goes on with
// its run there: with the reader parked at it, which takes over the sink's
// reader block that the child run's reader has given back, or else with
// the run reopened there.
func (o *outputSink) resume() (runstore.RunID, *runstore.Reader, error) {
	if err := o.oStack.Pop(o.loc[:]); err != nil {
		return 0, nil, err
	}
	id := runstore.RunID(binary.LittleEndian.Uint64(o.loc[0:]))
	top := len(o.parked) - 1
	cur := o.parked[top]
	o.parked = o.parked[:top]
	if cur != nil {
		o.env.Budget.Release(1)
		return id, cur, nil
	}
	off := int64(binary.LittleEndian.Uint64(o.loc[8:]))
	cur, err := o.store.OpenCat(id, nil, off, em.CatRunRead)
	return id, cur, err
}
