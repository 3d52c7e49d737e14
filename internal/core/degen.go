package core

import (
	"cmp"
	"fmt"
	"slices"

	"nexsort/internal/em"
	"nexsort/internal/extsort"
	"nexsort/internal/runstore"
)

// Graceful degeneration into external merge sort (Section 3.2).
//
// The unmodified algorithm wastes a pass on flat inputs: the whole document
// is pushed onto the data stack — paging most of it to disk — only to be
// popped right back for the single root-level sort. The fix the paper
// sketches: whenever the open element's accumulated (complete) children
// fill the sort area, sort them in memory immediately and emit an
// incomplete sorted run; the children never ride the data stack to disk.
// At the element's end tag its last children are cut the same way, while
// they are still resident, and its incomplete runs are handed to the merge
// phase of the external sorter as pre-sorted initial runs — "we have
// incorporated the first step of creating initial sorted runs for external
// merge sort into the loop of Line 2" — so a flat document completes with
// the same number of passes as external merge sort.
//
// In the default layout that merge is deferred to the output phase: the
// end tag leaves the element a pointer, and the output sink runs the merge
// straight into the output when it reaches the pointer, so the merged child
// list is never written to a run and read back. A merge runs inside another
// only under the root: an element whose runs lead to a deferred merge is
// merged at its end tag, and the root's sort leaves the merges it leads to
// their blocks (sortRoot).

// maybeCutIncomplete fires the degeneration trigger: when the deepest open
// element's uncut child region reaches the sort area, cut it into an
// incomplete sorted run.
func (s *sorter) maybeCutIncomplete() error {
	if s.opts.PaperLayout || s.path.Len() == 0 {
		return nil
	}
	if err := s.path.Peek(s.pathBuf); err != nil {
		return err
	}
	rec := unmarshalPathRec(s.pathBuf)
	if s.data.Size()-rec.cutMark < s.cutCap {
		return nil
	}
	rec, err := s.cutIncompleteRun(rec, int(s.path.Len()))
	if err != nil {
		return err
	}
	rec.marshal(s.pathBuf)
	return s.path.ReplaceTop(s.pathBuf)
}

// cutIncompleteRun sorts the uncut complete children of the element at
// level ds in memory and replaces them on the data stack with nothing — the
// batch moves to an incomplete sorted run keyed by (child key, sibling
// seq), appended to the element's run list. It returns rec with the child
// sequence numbers the batch used handed out. The trigger cuts the element
// on top of the path stack; the element's end tag cuts its last children
// from the popped record before the end tag is pushed.
func (s *sorter) cutIncompleteRun(rec pathRec, ds int) (pathRec, error) {
	// The cut grants its reader and writer on the scanning goroutine, so
	// the blocks lent to workers come back first.
	if err := s.drainWorkers(); err != nil {
		return rec, err
	}
	// The region is memory-resident by construction (the trigger fires
	// before it can outgrow the data stack's resident window), so the
	// in-memory sort below is modelled as in-place: no extra grant.

	// Depth-limit translation for the element's children: its child list
	// is sorted iff ds <= d.
	d := s.opts.DepthLimit
	listSorted := d == 0 || ds <= d

	t, err := s.loadTree(s.env.Budget, rec.cutMark)
	if err != nil {
		return rec, err
	}
	defer s.returnTree(t)
	// The children sit at level 2 of the element's frame. Below the depth
	// limit nothing reorders: no interior is sorted, and the empty key
	// forces document order.
	maxLevel := 0
	if listSorted {
		maxLevel = sortLevels(relLimitAt(d, ds))
	}
	if err := t.index(2, maxLevel); err != nil {
		return rec, fmt.Errorf("core: sorting subtree: %w", err)
	}
	nodes := t.children(0)
	for i, c := range nodes {
		t.nodes[c].seq = int32(i)
		if !listSorted {
			t.nodes[c].key = span32{}
		}
	}
	t.sortKids(0)

	run := em.NewStream(s.env.Dev, em.CatSubtreeSort)
	w, err := extsort.NewRunWriter(run, s.env.Budget)
	if err != nil {
		return rec, err
	}
	for _, c := range nodes {
		s.recBuf, err = appendChildRecord(s.recBuf[:0], t, c, rec.childBase+int64(t.nodes[c].seq))
		if err != nil {
			w.Close()
			return rec, err
		}
		if err := w.Write(s.recBuf); err != nil {
			w.Close()
			return rec, err
		}
	}
	if err := w.Close(); err != nil {
		return rec, err
	}
	s.incomplete[ds] = append(s.incomplete[ds], run)
	s.report.IncompleteRuns++

	if err := s.data.Truncate(rec.cutMark); err != nil {
		return rec, err
	}
	rec.childBase += int64(len(nodes))
	return rec, nil
}

// deferMerge completes an element whose children were all cut into
// incomplete runs, the last of them at its end tag, without merging them:
// its start and end tags, the only bytes of it left on the data stack, go
// to a run of their own in the run format, which the element collapses to
// a pointer to, as to the run its merge would have written. The output
// phase merges the runs when it reaches the pointer (outputSink.merge).
func (s *sorter) deferMerge(start int64, end []byte, ds int) (runstore.RunID, error) {
	p, err := s.planSort(start, ds)
	if err != nil {
		return 0, err
	}
	s.report.MergedSubtrees++
	if err := s.drainWorkers(); err != nil {
		return 0, err
	}
	if err := s.readStartTag(start); err != nil {
		return 0, err
	}
	id, w, err := s.store.Create(em.CatSubtreeSort, s.env.Budget)
	if err != nil {
		return 0, err
	}
	err = w.Append(s.encBuf)
	if err == nil {
		err = w.Append(namelessEnd)
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	s.deferred = append(s.deferred, deferredMerge{tags: id, runs: p.incRuns})
	return s.collapseSubtree(start, end, id)
}

// deferredMerge is a merge left to the output phase: the tag run its
// element's pointer leads to, and the incomplete runs to merge. The sorter
// appends them as their tag runs are created, so in the order of the runs'
// IDs, which grow.
type deferredMerge struct {
	tags runstore.RunID
	runs []*em.Stream
}

// findDeferred returns the runs of the merge deferred under tag run id, if
// one is.
func findDeferred(deferred []deferredMerge, id runstore.RunID) ([]*em.Stream, bool) {
	i, ok := slices.BinarySearchFunc(deferred, id, func(m deferredMerge, id runstore.RunID) int {
		return cmp.Compare(m.tags, id)
	})
	if !ok {
		return nil, false
	}
	return deferred[i].runs, true
}

// relLimitAt returns the subtree-relative depth limit for an element at
// level ds under global limit d (0 = unlimited).
func relLimitAt(d, ds int) int {
	if d == 0 {
		return 0
	}
	return d - ds + 1
}
