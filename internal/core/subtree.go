package core

import (
	"fmt"
	"io"

	"nexsort/internal/em"
	"nexsort/internal/extsort"
	"nexsort/internal/runstore"
	"nexsort/internal/xmltok"
)

// sortPlan is the route of one subtree sort through Line 11's options,
// decided from the subtree's size and level before any block moves.
type sortPlan struct {
	size int64
	// relLimit is the global depth limit in the subtree's frame: an
	// element at relative level r (subtree root = 1) sits at global level
	// ds+r-1, so child lists are sorted for r <= relLimit = d-ds+1.
	relLimit int
	// noSort marks a subtree at the depth boundary (ds = d+1): it is
	// written to disk unsorted so that it stops inflating ancestors' sorts
	// ("ensuring that we do not carry large subtrees along").
	noSort bool
	// inPlace: under the default layout the cut trigger bounds every
	// element's children, so a subtree no larger than the cut capacity
	// plus a block for its tags is memory-resident and sorts in place,
	// without a second grant.
	inPlace bool
	// incRuns are the element's incomplete runs, to be merged.
	incRuns []*em.Stream
	// leave is what the root's sort leaves free for the deferred merges
	// its output leads to, which run one at a time inside it (sortRoot);
	// 0 for every other sort.
	leave int
}

// planSort routes the sort of the complete subtree starting at start,
// whose root is at level ds, and counts it in the report.
func (s *sorter) planSort(start int64, ds int) (sortPlan, error) {
	// Lifecycle poll at the per-subtree boundary: an in-memory subtree
	// sort moves no blocks, so this is what keeps cancellation prompt
	// through a stretch of small subtrees that never touch the device.
	if err := s.env.Dev.Interrupted(); err != nil {
		return sortPlan{}, err
	}
	p := sortPlan{
		size:     s.data.Size() - start,
		relLimit: relLimitAt(s.opts.DepthLimit, ds),
		incRuns:  s.incomplete[ds],
	}
	delete(s.incomplete, ds)
	if p.size > s.report.MaxSubtreeBytes {
		s.report.MaxSubtreeBytes = p.size
	}
	s.report.SubtreeSorts++
	p.noSort = s.opts.DepthLimit > 0 && p.relLimit <= 0
	p.inPlace = !s.opts.PaperLayout && p.size <= s.cutCap+int64(s.env.Conf.BlockSize)
	return p, nil
}

// sortSubtree is lines 10-12 of Figure 4: pop the complete subtree starting
// at start from the data stack, sort it, write it as a sorted run, and push
// a run-pointer token (carrying the subtree root's ordering key from its end
// tag) back in its place. ds is the subtree root's level, used by
// depth-limited sorting.
func (s *sorter) sortSubtree(start int64, end []byte, ds int) (runstore.RunID, error) {
	p, err := s.planSort(start, ds)
	if err != nil {
		return 0, err
	}
	// The in-place case — no incomplete runs to merge, no depth boundary —
	// is self-contained once the subtree is loaded into a token tree, so
	// it can run on a pool worker while the scan continues with the next
	// sibling. Only the default layout sorts in place, so the paper's
	// layout never dispatches. Every subtree routes exactly as it would at
	// parallelism one, which is what keeps the block-transfer counts
	// parallelism-invariant.
	if p.inPlace && len(p.incRuns) == 0 && !p.noSort {
		runID, ok, err := s.tryDispatchSubtreeSort(start, p.size, p.relLimit)
		if err != nil {
			return 0, err
		}
		if ok {
			s.report.InternalSorts++
			return s.collapseSubtree(start, end, runID)
		}
		// Pool busy, or no room to lend: fall through to the sequential
		// path below.
	}

	// Sequential path. Wait out in-flight workers first: the branches
	// below size themselves by Budget.Free() (the key-path fallback and
	// the child-record merger take everything that is left), so they must
	// see the budget a sequential execution would see.
	if err := s.drainWorkers(); err != nil {
		return 0, err
	}
	runID, w, err := s.store.Create(em.CatSubtreeSort, s.env.Budget)
	if err != nil {
		return 0, err
	}
	err = s.sortInto(p, start, end, w)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return s.collapseSubtree(start, end, runID)
}

// sortRoot is the default layout's root sort: the branch sortSubtree would
// take, written to the output sink instead of a run. It runs once the scan
// has ended and its workers have drained, and never on a worker. The sink
// runs the deferred merges the root's output leads to while the sort holds
// its blocks, so a root that leads to one leaves the blocks a merge starts
// with free; the merge takes every block free then. An in-place sort holds
// the window's frames: the window shrinks to them, which evicts nothing and
// frees the rest of it for those merges. Every other route leaves them
// their blocks in sortInto.
func (s *sorter) sortRoot(root *docRoot, sink tokenSink) error {
	p, err := s.planSort(root.start, 1)
	if err != nil {
		return err
	}
	if root.leads {
		p.leave = extsort.MinMemBlocks
	}
	if p.inPlace && len(p.incRuns) == 0 {
		if err := s.data.SetResident(s.data.Held()); err != nil {
			return err
		}
	}
	return s.sortInto(p, root.start, root.end, sink)
}

// sortInto sorts the subtree at start, whose encoded end tag is end, along
// plan p into w.
func (s *sorter) sortInto(p sortPlan, start int64, end []byte, w tokenSink) (err error) {
	// In the default layout, a subtree that does not sort in place — one
	// whose children were cut into incomplete runs, or one whose tags
	// outgrow the window's slack — gets the sort area the paper's layout
	// gives it: the data stack's window is lent to its sort and taken back
	// afterwards. The stack is read once meanwhile, so one resident block
	// suffices, and the freed blocks buy the merge its fan-in (external
	// merge sort's buffer/merge phase split) or the sort its area.
	if len(p.incRuns) > 0 || !s.opts.PaperLayout && !p.inPlace && !p.noSort {
		window := s.data.Resident()
		if err := s.data.SetResident(1); err != nil {
			return err
		}
		// Regrowing only re-grants budget; it can still fail if an error
		// unwind left blocks granted, and that must surface as an error,
		// not a panic mid-teardown.
		defer func() {
			if rerr := s.data.SetResident(window); rerr != nil && err == nil {
				err = fmt.Errorf("core: restoring data-stack window: %w", rerr)
			}
		}()
	}
	bs := int64(s.env.Conf.BlockSize)
	switch {
	case len(p.incRuns) > 0:
		s.report.MergedSubtrees++
		return s.mergedSubtreeSort(start, end, p.incRuns, p.leave, w)
	case p.noSort:
		s.report.UnsortedRuns++
		return s.copySubtree(start, w)
	case p.inPlace:
		s.report.InternalSorts++
		return s.internalSubtreeSort(start, 0, p.relLimit, w)
	case p.size <= int64(s.env.Budget.Free()-max(1, p.leave))*bs:
		// The encoded subtree fits in the remaining sort area (one block
		// stays reserved for the range reader, whose block is free again
		// while the sorted tree is written): in-memory recursive sort.
		s.report.InternalSorts++
		return s.internalSubtreeSort(start, p.size, p.relLimit, w)
	default:
		s.report.ExternalSorts++
		return s.externalSubtreeSort(start, p.relLimit, p.leave, w)
	}
}

// collapseSubtree replaces the subtree's bytes on the data stack with a
// run-pointer token carrying the root's name and ordering key from its end
// tag — the common tail of both the sequential and the dispatched sort. For
// a dispatched sort the worker owns the token tree it was handed loaded, so
// truncating here is safe even while the sort is in flight.
func (s *sorter) collapseSubtree(start int64, end []byte, runID runstore.RunID) (runstore.RunID, error) {
	var endTok xmltok.Encoded
	if _, ok := endTok.Scan(end); !ok {
		return 0, fmt.Errorf("core: corrupt end tag of a sorted subtree")
	}
	if err := s.data.Truncate(start); err != nil {
		return 0, err
	}
	s.encBuf = endTok.AppendRunPtr(s.encBuf[:0], int64(runID))
	if err := s.pushToken(s.encBuf); err != nil {
		return 0, err
	}
	return runID, nil
}

// copySubtree writes the subtree's tokens to w verbatim (depth-limited
// mode, subtree rooted exactly at level d+1).
func (s *sorter) copySubtree(start int64, w tokenSink) error {
	reader, err := s.data.ReadRange(s.env.Budget, start)
	if err != nil {
		return err
	}
	defer reader.Close()
	var dec xmltok.Decoder
	for {
		tok, err := dec.ReadEncoded(reader)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := w.Append(tok.Bytes()); err != nil {
			return err
		}
	}
}

// internalSubtreeSort is Line 11's common case: copy the subtree's tokens
// into a token tree, sort it, and stream it into w. The tree's memory
// is drawn from the budget at the subtree's encoded size; size 0 skips the
// grant (the default layout, where the bytes are already resident in the
// data stack's window and the sort is modelled as in-place).
func (s *sorter) internalSubtreeSort(start, size int64, relLimit int, w tokenSink) error {
	bs := int64(s.env.Conf.BlockSize)
	blocks := int((size + bs - 1) / bs)
	if err := s.env.Budget.Grant(blocks); err != nil {
		return err
	}
	defer s.env.Budget.Release(blocks)

	t, err := s.loadTree(s.env.Budget, start)
	if err != nil {
		return err
	}
	defer s.returnTree(t)
	return t.sortSubtree(relLimit, w)
}

// loadTree loads the data-stack range [start, Size()) into a token tree
// from takeTree, which the caller returns. The range reader borrows its
// block from budget; nil means the caller's grant already holds it.
func (s *sorter) loadTree(budget *em.Budget, start int64) (*tokenTree, error) {
	reader, err := s.data.ReadRange(budget, start)
	if err != nil {
		return nil, err
	}
	defer reader.Close()
	t := s.takeTree()
	if err := t.load(reader, s.data.Size()-start); err != nil {
		s.returnTree(t)
		return nil, err
	}
	return t, nil
}

// externalSubtreeSort is Line 11's fallback for subtrees larger than the
// sort area: depth-aware key-path external merge sort over the subtree's
// token stream. When the criterion needs subtree passes (path keys), a
// sidecar pass first materializes every element's key — resolved on end
// tags — as (preorder index, key) records, sorts them back into preorder,
// and zips them with a second scan so that start tags carry keys before
// key-path extraction.
func (s *sorter) externalSubtreeSort(start int64, relLimit, leave int, w tokenSink) error {
	allSimple := true
	for _, r := range s.crit.Rules {
		if !r.Source.StartResolvable() {
			allSimple = false
			break
		}
	}

	var sidecar *keySidecar
	if !allSimple {
		var err error
		if sidecar, err = s.buildKeySidecar(start); err != nil {
			return err
		}
		defer sidecar.Close()
	}
	reader, err := s.data.ReadRange(s.env.Budget, start)
	if err != nil {
		return err
	}
	defer reader.Close()
	return keyPathSortTokens(s.env, reader, sidecar, relLimit, leave, w)
}

// mergedSubtreeSort completes a subtree whose children were all cut into
// incomplete sorted runs by graceful degeneration, the last of them at its
// end tag: only its start and end tags are left on the data stack. It
// merges the runs into the element's sorted child list and writes that
// between the two tags. The caller has lent it the data stack's window.
// leave is sortPlan.leave; a root that leads to deferred merges weighs its
// merge's passes against theirs (rootLeave).
func (s *sorter) mergedSubtreeSort(start int64, end []byte, incRuns []*em.Stream, leave int, w tokenSink) error {
	// The start tag is read and its reader closed before the merger takes
	// every free block.
	if err := s.readStartTag(start); err != nil {
		return err
	}
	if leave > 0 {
		leave = rootLeave(s.env.Budget.Free(), len(incRuns), s.deferred)
	}
	return mergeChildRecords(s.env, s.encBuf, end, incRuns, leave, w)
}

// rootLeave is how many of the free blocks a merged root's merger, which
// takes them all, leaves free for the deferred merges that run inside it,
// one at a time. The merges compete for those blocks: the root's merge
// holds a reader block for each run left after its passes and gives the
// rest back, and a deferred merge with more runs than it gets blocks takes
// passes of its own. Every incomplete run holds about the cut capacity, so
// a pass costs about as many runs' worth of transfers as its merge started
// with. Of the root's pass counts that leave a merge at least
// extsort.MinMemBlocks, rootLeave takes the one that costs the fewest passes
// over the root and every deferred merge together, the fewest root passes
// on a tie.
func rootLeave(free, rootRuns int, deferred []deferredMerge) int {
	left := rootRuns
	for left > max(free-extsort.MinMemBlocks, 1) {
		left = mergePass(left, free)
	}
	best, bestCost := 0, -1
	for extra := 0; ; extra++ {
		cost := extra * rootRuns
		for _, m := range deferred {
			cost += mergePassesFor(len(m.runs), free-left) * len(m.runs)
		}
		if bestCost < 0 || cost < bestCost {
			best, bestCost = free-left, cost
		}
		if left == 1 {
			return best
		}
		left = mergePass(left, free)
	}
}

// mergePass is the number of runs a merge pass of an extsort.Sorter
// granted blocks blocks leaves of runs runs.
func mergePass(runs, blocks int) int {
	return (runs + blocks - 2) / (blocks - 1)
}

// mergePassesFor counts the passes a streamed merge of runs runs takes
// with blocks blocks.
func mergePassesFor(runs, blocks int) (passes int) {
	for ; runs > blocks; passes++ {
		runs = mergePass(runs, blocks)
	}
	return passes
}

// readStartTag reads the start tag at start on the data stack into encBuf.
func (s *sorter) readStartTag(start int64) error {
	reader, err := s.data.ReadRange(s.env.Budget, start)
	if err != nil {
		return err
	}
	defer reader.Close()
	var dec xmltok.Decoder
	tok, err := dec.ReadEncoded(reader)
	if err != nil {
		return err
	}
	if tok.Kind() != xmltok.KindStart {
		return fmt.Errorf("core: merged subtree does not begin with a start tag")
	}
	s.encBuf = append(s.encBuf[:0], tok.Bytes()...)
	return nil
}
