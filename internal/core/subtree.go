package core

import (
	"fmt"
	"io"

	"nexsort/internal/em"
	"nexsort/internal/runstore"
	"nexsort/internal/xmltok"
)

// sortSubtree is lines 10-12 of Figure 4: pop the complete subtree starting
// at rec.start from the data stack, sort it, write it as a sorted run, and
// push a run-pointer token (carrying the subtree root's ordering key from
// its end tag) back in its place. ds is the subtree root's level, used by
// depth-limited sorting.
func (s *sorter) sortSubtree(rec pathRec, endTok xmltok.Token, ds int) (runstore.RunID, error) {
	// Lifecycle poll at the per-subtree boundary: an in-memory subtree
	// sort moves no blocks, so this is what keeps cancellation prompt
	// through a stretch of small subtrees that never touch the device.
	if err := s.env.Dev.Interrupted(); err != nil {
		return 0, err
	}
	size := s.data.Size() - rec.start
	if size > s.report.MaxSubtreeBytes {
		s.report.MaxSubtreeBytes = size
	}
	s.report.SubtreeSorts++

	// Translate the global depth limit into the subtree's frame: an
	// element at relative level r (subtree root = 1) sits at global level
	// ds+r-1, so child lists are sorted for r <= relLimit = d-ds+1.
	// relLimit <= 0 means the subtree sits at the boundary (ds = d+1): it
	// is written to disk unsorted so that it stops inflating ancestors'
	// sorts ("ensuring that we do not carry large subtrees along").
	relLimit := 0
	noSort := false
	if s.opts.DepthLimit > 0 {
		relLimit = s.opts.DepthLimit - ds + 1
		if relLimit <= 0 {
			noSort = true
		}
	}

	depthIdx := int(s.path.Len()) + 1 // the closed element's depth index
	incRuns := s.incomplete[depthIdx]
	delete(s.incomplete, depthIdx)

	bs := int64(s.env.Conf.BlockSize)
	// Under the default layout the cut trigger bounds every element's
	// children, so a subtree no larger than the cut capacity plus a block
	// for its tags is memory-resident: it sorts in place, without a second
	// grant.
	inPlace := !s.opts.PaperLayout && size <= s.cutCap+bs
	// The plain in-memory case — no incomplete runs to merge, no depth
	// boundary — is self-contained once the subtree's bytes leave the data
	// stack, so it can run on a pool worker while the scan continues with
	// the next sibling. The admission predicate is the sequential routing
	// verbatim: the in-place case, or in the paper's layout the
	// internal-vs-external test (one block for the run writer, one
	// reserved for the range reader) evaluated against effectiveFree() so
	// that in-flight workers do not perturb it. Every subtree routes
	// exactly as it would at parallelism one, which is what keeps the
	// block-transfer counts parallelism-invariant.
	if len(incRuns) == 0 && !noSort &&
		(inPlace || s.opts.PaperLayout && size <= int64(s.effectiveFree()-2)*bs) {
		runID, ok, err := s.tryDispatchSubtreeSort(rec.start, size, relLimit)
		if err != nil {
			return 0, err
		}
		if ok {
			s.report.InternalSorts++
			return s.collapseSubtree(rec.start, endTok, runID)
		}
		// Pool busy, or no room for a second working set: fall through
		// to the sequential path below.
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

	// In the default layout, a subtree that does not sort in place — one
	// whose children were cut into incomplete runs, or one whose tags
	// outgrow the window's slack — gets the sort area the paper's layout
	// gives it: the data stack's window is lent to its sort and taken back
	// before the subtree collapses. The stack is read once meanwhile, so
	// one resident block suffices, and the freed blocks buy the merge its
	// fan-in (external merge sort's buffer/merge phase split) or the sort
	// its area.
	window := s.data.Resident()
	if len(incRuns) > 0 || !s.opts.PaperLayout && !inPlace && !noSort {
		if err := s.data.SetResident(1); err != nil {
			w.Close()
			return 0, err
		}
	}
	switch {
	case len(incRuns) > 0:
		err = s.mergedSubtreeSort(rec, endTok, incRuns, relLimit, noSort, w)
		s.report.MergedSubtrees++
	case noSort:
		err = s.copySubtree(rec.start, w)
		s.report.UnsortedRuns++
	case inPlace:
		err = s.internalSubtreeSort(rec.start, 0, relLimit, w)
		s.report.InternalSorts++
	case size <= int64(s.env.Budget.Free()-1)*bs:
		// The encoded subtree fits in the remaining sort area (one block
		// stays reserved for the range reader): in-memory recursive sort.
		err = s.internalSubtreeSort(rec.start, size, relLimit, w)
		s.report.InternalSorts++
	default:
		err = s.externalSubtreeSort(rec.start, relLimit, w)
		s.report.ExternalSorts++
	}
	// Regrowing only re-grants budget; it can still fail if an error
	// unwind above left blocks granted, and that must surface as an error,
	// not a panic mid-teardown.
	if rerr := s.data.SetResident(window); rerr != nil && err == nil {
		err = fmt.Errorf("core: restoring data-stack window: %w", rerr)
	}
	if err != nil {
		w.Close()
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return s.collapseSubtree(rec.start, endTok, runID)
}

// collapseSubtree replaces the subtree's bytes on the data stack with a
// run-pointer token carrying the root's ordering key — the common tail of
// both the sequential and the dispatched sort. For a dispatched sort the
// worker still owns its private snapshot, so truncating here is safe even
// while the sort is in flight.
func (s *sorter) collapseSubtree(start int64, endTok xmltok.Token, runID runstore.RunID) (runstore.RunID, error) {
	if err := s.data.Truncate(start); err != nil {
		return 0, err
	}
	ptr := xmltok.Token{
		Kind:   xmltok.KindRunPtr,
		Run:    int64(runID),
		Name:   endTok.Name,
		Key:    endTok.Key,
		HasKey: true,
	}
	if err := s.pushToken(ptr); err != nil {
		return 0, err
	}
	return runID, nil
}

// copySubtree writes the subtree's tokens to the run verbatim (depth-limited
// mode, subtree rooted exactly at level d+1).
func (s *sorter) copySubtree(start int64, w *runstore.Writer) error {
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
// into a token tree, sort it, and stream it into the run. The tree's memory
// is drawn from the budget at the subtree's encoded size; size 0 skips the
// grant (the default layout, where the bytes are already resident in the
// data stack's window and the sort is modelled as in-place).
func (s *sorter) internalSubtreeSort(start, size int64, relLimit int, w *runstore.Writer) error {
	bs := int64(s.env.Conf.BlockSize)
	blocks := int((size + bs - 1) / bs)
	if err := s.env.Budget.Grant(blocks); err != nil {
		return err
	}
	defer s.env.Budget.Release(blocks)

	reader, err := s.data.ReadRange(s.env.Budget, start)
	if err != nil {
		return err
	}
	defer reader.Close()

	t := s.takeTree()
	defer s.returnTree(t)
	return t.sortSubtree(reader, s.data.Size()-start, relLimit, w)
}

// externalSubtreeSort is Line 11's fallback for subtrees larger than the
// sort area: depth-aware key-path external merge sort over the subtree's
// token stream. When the criterion needs subtree passes (path keys), a
// sidecar pass first materializes every element's key — resolved on end
// tags — as (preorder index, key) records, sorts them back into preorder,
// and zips them with a second scan so that start tags carry keys before
// key-path extraction.
func (s *sorter) externalSubtreeSort(start int64, relLimit int, w *runstore.Writer) error {
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
	return keyPathSortTokens(s.env, reader, sidecar, relLimit, w)
}

// mergedSubtreeSort completes a subtree whose earlier children were cut
// into incomplete sorted runs by graceful degeneration: the remaining
// uncut children are interior-sorted in memory into one more batch, and
// everything is merged into the element's complete sorted run. The caller
// has lent it the data stack's window.
func (s *sorter) mergedSubtreeSort(rec pathRec, endTok xmltok.Token, incRuns []*em.Stream, relLimit int, noSort bool, w *runstore.Writer) error {
	reader, err := s.data.ReadRange(s.env.Budget, rec.start)
	if err != nil {
		return err
	}
	defer reader.Close()
	var dec xmltok.Decoder
	startTok, err := dec.ReadEncoded(reader)
	if err != nil {
		return err
	}
	if startTok.Kind() != xmltok.KindStart {
		return fmt.Errorf("core: merged subtree does not begin with a start tag")
	}
	s.encBuf = append(s.encBuf[:0], startTok.Bytes()...)

	sorter, err := newChildRecordSorter(s.env)
	if err != nil {
		return err
	}
	defer sorter.Close()
	for _, run := range incRuns {
		if err := sorter.AddPresortedRun(run); err != nil {
			return err
		}
	}

	// Load, interior-sort and enqueue the uncut tail of the child list one
	// child at a time. The region is below the cut capacity by
	// construction, so this is an in-memory step (its budget was
	// effectively reserved by the trigger). The children sit at level 2
	// of the element's frame; below the depth limit they keep document
	// order, so the empty key makes (key, seq) reduce to the sequence
	// number.
	maxLevel := 0
	if !noSort {
		maxLevel = sortLevels(relLimit)
	}
	t := s.takeTree()
	defer s.returnTree(t)
	for childSeq := rec.childBase; ; childSeq++ {
		last, err := t.loadChild(&dec, reader)
		if err != nil {
			return err
		}
		if last {
			break
		}
		if err := t.index(2, maxLevel); err != nil {
			return fmt.Errorf("core: sorting subtree: %w", err)
		}
		child := t.children(0)[0]
		if noSort {
			t.nodes[child].key = nil
		}
		if s.recBuf, err = appendChildRecord(s.recBuf[:0], t, child, childSeq); err != nil {
			return err
		}
		if err := sorter.Add(s.recBuf); err != nil {
			return err
		}
	}
	reader.Close()

	if err := w.Append(s.encBuf); err != nil {
		return err
	}
	if err := drainChildRecords(sorter, w); err != nil {
		return err
	}
	s.encBuf = xmltok.AppendToken(s.encBuf[:0], xmltok.Token{Kind: xmltok.KindEnd, Name: endTok.Name, Key: endTok.Key, HasKey: endTok.HasKey})
	return w.Append(s.encBuf)
}
