// Range-partitioned parallel merge (DESIGN.md §17).
//
// The serial loser tree funnels every record of the final merge through
// one goroutine; this file removes that Amdahl floor. Run formation emits
// a fence-key sparse index per run (the first normalized key of every run
// block, spilled as a CatFenceIndex side stream). The final merge samples
// those fences to pick P−1 byte-comparable splitters, locates each
// splitter's cut offset in each run with a bounded block-aligned scan,
// and then merges the P disjoint key ranges on independent loser trees —
// dispatched on the worker pool — each writing its own segment of a
// preallocated output stream.
//
// Two invariants carry the whole design:
//
//   - Equal keys never straddle a splitter (a cut is the offset of the
//     first record with key >= splitter, in every run), so each
//     partition's output is a contiguous slice of the serial merge's and
//     the concatenation is byte-identical — the run-index tie-break never
//     has to arbitrate across partitions.
//   - Every run block is entered by exactly one reader (the planner's
//     scan or one partition's range reader), every output block is
//     written exactly once (interior blocks by their partition's segment
//     writer, boundary blocks by the final stitch), and the fence indexes
//     are always read in full — so the logical per-category ledger is
//     identical to the serial merge's at every partition count.
//
// The planner's scan state (cut regions) and the fence entries are plain
// heap bookkeeping like the streams' extent tables: a region is the block
// or two around each cut, O(P·R) blocks total, transient within the merge.
package extsort

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"

	"nexsort/internal/em"
	"nexsort/internal/fence"
)

// Flush finishes run formation without starting the merge: the buffered
// records are cut as a final initial run and every background batch is
// drained. Benchmark harnesses call Flush so that a following Sort times
// the merge phase alone.
func (s *Sorter) Flush() error {
	if s.sorted {
		return fmt.Errorf("extsort: Flush after Sort")
	}
	if err := s.cutRun(); err != nil {
		return err
	}
	return s.drain()
}

// spillFenceIndex serializes a run's fence entries as a CatFenceIndex side
// stream — through the full hardened backend stack, like any other spill —
// and registers it for the partitioned final merge. Callers invoke it
// after the run's own writer has closed, so the index writer's frame rides
// the working set the run writer just returned.
func (s *Sorter) spillFenceIndex(run *em.Stream, entries []fence.Entry) error {
	idx := em.NewStream(s.env.Dev, em.CatFenceIndex)
	w, err := idx.NewWriter(nil)
	if err != nil {
		return err
	}
	defer w.Close()
	if _, err := w.Write(fence.Encode(nil, entries)); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	s.mu.Lock()
	s.fences[run] = idx
	s.mu.Unlock()
	return nil
}

// forgetFences drops the fence-index registrations of consumed runs.
func (s *Sorter) forgetFences(runs []*em.Stream) {
	s.mu.Lock()
	for _, r := range runs {
		delete(s.fences, r)
	}
	s.mu.Unlock()
}

// mergePass merges runs in disjoint fanIn-sized groups into the next
// pass's runs. The groups read and write disjoint streams, so they are
// dispatched concurrently on the worker pool under the same admission rule
// as run formation — a pool slot AND a full extra working-set grant, with
// inline fallback — and each group's output lands in a pre-claimed slot,
// so the pass's result (and every downstream merge decision) is identical
// at every parallelism level.
func (s *Sorter) mergePass(runs []*em.Stream, fanIn int) ([]*em.Stream, error) {
	next := make([]*em.Stream, (len(runs)+fanIn-1)/fanIn)
	for lo, slot := 0, 0; lo < len(runs); lo, slot = lo+fanIn, slot+1 {
		hi := lo + fanIn
		if hi > len(runs) {
			hi = len(runs)
		}
		if hi-lo == 1 {
			next[slot] = runs[lo]
			continue
		}
		if err := s.err(); err != nil {
			break
		}
		if s.env.Pool().TryAcquire() {
			if err := s.env.Budget.Grant(s.memBlocks); err != nil {
				s.env.Pool().Release()
			} else {
				group, slot := runs[lo:hi], slot
				s.wg.Add(1)
				go func() {
					defer s.wg.Done()
					defer s.env.Pool().Release()
					defer s.env.Budget.Release(s.memBlocks)
					defer func() {
						if r := recover(); r != nil {
							s.mu.Lock()
							if s.panicVal == nil {
								s.panicVal = r
							}
							s.mu.Unlock()
						}
					}()
					merged, err := s.mergeRuns(group)
					s.mu.Lock()
					if err != nil {
						if s.firstErr == nil {
							s.firstErr = err
						}
					} else {
						next[slot] = merged
					}
					s.mu.Unlock()
				}()
				continue
			}
		}
		merged, err := s.mergeRuns(runs[lo:hi])
		if err != nil {
			s.mu.Lock()
			if s.firstErr == nil {
				s.firstErr = err
			}
			s.mu.Unlock()
			break
		}
		next[slot] = merged
	}
	s.wg.Wait()
	if err := s.err(); err != nil {
		return nil, err
	}
	return next, nil
}

// finalMerge produces the last merged run: range-partitioned when
// partitioning is enabled and every input run has a fence index, on the
// serial loser tree otherwise (no keyer, an AddPresortedRun input, or
// MergeParallel unset) — byte for byte the same output either way.
func (s *Sorter) finalMerge(runs []*em.Stream) (*em.Stream, error) {
	if len(runs) == 1 {
		return runs[0], nil
	}
	if s.fenceOn {
		idxs := make([]*em.Stream, len(runs))
		ok := true
		s.mu.Lock()
		for i, r := range runs {
			if idxs[i] = s.fences[r]; idxs[i] == nil {
				ok = false
				break
			}
		}
		s.mu.Unlock()
		if ok {
			return s.mergeRunsPartitioned(runs, idxs)
		}
	}
	return s.mergeRuns(runs)
}

// readFenceIndex reads an index side stream back in full and decodes it.
func readFenceIndex(idx *em.Stream) ([]fence.Entry, error) {
	r, err := idx.NewReader(nil, 0)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	data := make([]byte, idx.Size())
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	return fence.Decode(data)
}

// scanRegion is a block-aligned span of a run the planner read while
// locating cut offsets: start is an absolute byte offset (a multiple of
// the block size), buf the raw bytes [start, start+len(buf)). The blocks a
// region covers are read exactly once — partitions whose boundaries fall
// inside a region reuse its bytes as in-memory fragments instead of
// touching the device again.
type scanRegion struct {
	start int64
	buf   []byte
}

// runCut is one partition boundary inside a run: the byte offset of the
// partition's first record, plus the index of the scan region holding the
// bytes around it (-1 when no scan was needed — a cut at offset 0, or the
// run-end marker).
type runCut struct {
	off int64
	reg int
}

// runPlan is one run's partitioning: P+1 cuts (first is offset 0, last the
// run size) and the scan regions read to locate them. Regions are
// disjoint, ordered, and block-aligned at their starts, so the device
// ranges between them — what the partitions' range readers consume — are
// block-aligned too.
type runPlan struct {
	run     *em.Stream
	size    int64
	cuts    []runCut
	regions []scanRegion
}

// runPiece is a partition's slice of one run, in up to three parts: bytes
// already in memory from the planner's scan (head), a block-aligned device
// range no scan touched, and more scanned bytes (tail). Record decoding
// reads across the seams via chainSource.
type runPiece struct {
	head, tail       []byte
	devStart, devEnd int64
}

// pieces assembles partition p's slice [cuts[p], cuts[p+1]) of the run.
func (pl *runPlan) pieces(p int) runPiece {
	lo, hi := pl.cuts[p], pl.cuts[p+1]
	var pc runPiece
	if lo.off == hi.off {
		return pc
	}
	if lo.reg >= 0 {
		r := pl.regions[lo.reg]
		if hi.reg == lo.reg {
			pc.head = r.buf[lo.off-r.start : hi.off-r.start]
			return pc
		}
		pc.head = r.buf[lo.off-r.start:]
		pc.devStart = r.start + int64(len(r.buf))
	} else {
		pc.devStart = lo.off // 0: a cut that needed no scan
	}
	if hi.reg >= 0 {
		r := pl.regions[hi.reg]
		pc.devEnd = r.start
		pc.tail = r.buf[:hi.off-r.start]
	} else {
		pc.devEnd = hi.off // the run-end marker
	}
	return pc
}

// runScanner incrementally reads one block-aligned region of a run and
// parses records to locate cut offsets.
type runScanner struct {
	rd     *em.StreamReader
	bs     int64
	start  int64 // absolute offset of buf[0]; block-aligned
	size   int64 // run size
	buf    []byte
	parse  int // position in buf: a record boundary (or the opening fence offset)
	atEnd  bool
	regIdx int // index this region will take in runPlan.regions
	keyBuf []byte
}

// openScanner starts a region at the block containing absolute offset at,
// with parsing positioned on at (a known record boundary: a fence).
func (s *Sorter) openScanner(run *em.Stream, at int64, regIdx int) (*runScanner, error) {
	bs := int64(s.env.Conf.BlockSize)
	start := at / bs * bs
	rd, err := run.NewReader(nil, start)
	if err != nil {
		return nil, err
	}
	return &runScanner{
		rd: rd, bs: bs, start: start, size: run.Size(),
		parse: int(at - start), regIdx: regIdx,
	}, nil
}

// finish closes the scanner's reader and appends its region to the plan.
func (sc *runScanner) finish(pl *runPlan) {
	pl.regions = append(pl.regions, scanRegion{start: sc.start, buf: sc.buf})
	sc.rd.Close()
}

// extend grows the region by one block (or the run's short tail),
// reporting io.EOF once the run is fully buffered.
func (sc *runScanner) extend() error {
	if sc.atEnd {
		return io.EOF
	}
	have := sc.start + int64(len(sc.buf))
	want := min(sc.bs, sc.size-have)
	if want <= 0 {
		sc.atEnd = true
		return io.EOF
	}
	off := len(sc.buf)
	sc.buf = append(sc.buf, make([]byte, want)...)
	if _, err := io.ReadFull(sc.rd, sc.buf[off:]); err != nil {
		return err
	}
	if sc.start+int64(len(sc.buf)) == sc.size {
		sc.atEnd = true
	}
	return nil
}

// ensure makes at least n bytes available at the parse position.
func (sc *runScanner) ensure(n int) error {
	for len(sc.buf)-sc.parse < n {
		if err := sc.extend(); err != nil {
			return err
		}
	}
	return nil
}

// peekUvarint decodes the record-length varint at the parse position
// without consuming it, extending the region as needed. io.EOF means the
// parse position sits cleanly at the run's end.
func (sc *runScanner) peekUvarint() (uint64, int, error) {
	for {
		// A fresh scanner's region buffer may not reach the parse position
		// yet (it opens at the block boundary below a fence offset).
		if sc.parse <= len(sc.buf) {
			v, n := binary.Uvarint(sc.buf[sc.parse:])
			if n > 0 {
				return v, n, nil
			}
			if n < 0 {
				return 0, 0, fmt.Errorf("extsort: corrupt run: bad record length at %d", sc.start+int64(sc.parse))
			}
		}
		if err := sc.extend(); err != nil {
			if err == io.EOF {
				if sc.parse == len(sc.buf) {
					return 0, 0, io.EOF
				}
				return 0, 0, fmt.Errorf("extsort: truncated record length at %d", sc.start+int64(sc.parse))
			}
			return 0, 0, err
		}
	}
}

// findCut scans forward to the first record whose full normalized key is
// >= splitter and returns its absolute offset; reaching the run end
// cleanly returns the run size. The parse position is left AT the found
// record — the next (larger) splitter's scan resumes there, and the same
// record can be the cut for several splitters.
func (sc *runScanner) findCut(s *Sorter, splitter []byte) (int64, error) {
	for {
		recLen, lenN, err := sc.peekUvarint()
		if err == io.EOF {
			return sc.size, nil
		}
		if err != nil {
			return 0, err
		}
		if recLen > maxRecordLen {
			return 0, fmt.Errorf("extsort: corrupt run: record length %d", recLen)
		}
		if err := sc.ensure(lenN + int(recLen)); err != nil {
			if err == io.EOF {
				return 0, fmt.Errorf("extsort: truncated record at %d", sc.start+int64(sc.parse))
			}
			return 0, err
		}
		rec := sc.buf[sc.parse+lenN : sc.parse+lenN+int(recLen)]
		sc.keyBuf = s.keyer(sc.keyBuf[:0], rec, 0)
		if bytes.Compare(sc.keyBuf, splitter) >= 0 {
			return sc.start + int64(sc.parse), nil
		}
		sc.parse += lenN + int(recLen)
	}
}

// planRun locates every splitter's cut offset in one run. Splitters arrive
// in increasing order, so at most one scan region is open at a time; a new
// region opens only when the next splitter's fence lies beyond the open
// region's bytes, which keeps regions disjoint and ordered, with the gap
// blocks between them left for the partitions' range readers.
func (s *Sorter) planRun(run *em.Stream, entries []fence.Entry, splitters [][]byte) (_ *runPlan, retErr error) {
	pl := &runPlan{run: run, size: run.Size()}
	pl.cuts = append(pl.cuts, runCut{off: 0, reg: -1})
	var sc *runScanner
	defer func() {
		if retErr != nil && sc != nil {
			sc.finish(pl) // error path: the reader must still close
		}
	}()
	for _, sp := range splitters {
		// The last fence with key < sp: records before it are all < sp,
		// so the scan can start at that record.
		fi := sort.Search(len(entries), func(i int) bool {
			return bytes.Compare(entries[i].Key, sp) >= 0
		}) - 1
		if fi < 0 {
			// Even the run's first record is >= sp: cut at 0, nothing read.
			pl.cuts = append(pl.cuts, runCut{off: 0, reg: -1})
			continue
		}
		fenceOff := entries[fi].Offset
		if sc == nil || fenceOff >= sc.start+int64(len(sc.buf)) {
			if sc != nil {
				sc.finish(pl)
				sc = nil
			}
			nsc, err := s.openScanner(run, fenceOff, len(pl.regions))
			if err != nil {
				return nil, err
			}
			sc = nsc
		} else if off := fenceOff - sc.start; off > int64(sc.parse) {
			// Fast-forward within the open region: the fence is a known
			// record boundary ahead of the parse position.
			sc.parse = int(off)
		}
		cut, err := sc.findCut(s, sp)
		if err != nil {
			return nil, err
		}
		pl.cuts = append(pl.cuts, runCut{off: cut, reg: sc.regIdx})
	}
	if sc != nil {
		sc.finish(pl)
		sc = nil
	}
	pl.cuts = append(pl.cuts, runCut{off: pl.size, reg: -1})
	return pl, nil
}

// chainSource concatenates record byte sources; decoding reads across the
// seams transparently.
type chainSource struct {
	srcs []recordByteSource
	cur  int
}

func (c *chainSource) Read(p []byte) (int, error) {
	for c.cur < len(c.srcs) {
		n, err := c.srcs[c.cur].Read(p)
		if err == io.EOF {
			c.cur++
			if n > 0 {
				return n, nil
			}
			continue
		}
		return n, err
	}
	return 0, io.EOF
}

func (c *chainSource) ReadByte() (byte, error) {
	for c.cur < len(c.srcs) {
		b, err := c.srcs[c.cur].ReadByte()
		if err == io.EOF {
			c.cur++
			continue
		}
		return b, err
	}
	return 0, io.EOF
}

// mergePartition merges one key-range partition of every run into its
// segment [off, end) of the output stream. Readers are built in run order,
// so cursor index — the loser tree's tie-break — ranks exactly as the
// serial merge's run order does.
func (s *Sorter) mergePartition(plans []*runPlan, p int, out *em.Stream, off, end int64) (retErr error) {
	readers := make([]*runReader, len(plans))
	for i, pl := range plans {
		pc := pl.pieces(p)
		var srcs []recordByteSource
		var closeFn func()
		if len(pc.head) > 0 {
			srcs = append(srcs, &sliceCursor{buf: pc.head})
		}
		if pc.devEnd > pc.devStart {
			sr, err := pl.run.NewRangeReader(nil, pc.devStart, pc.devEnd)
			if err != nil {
				for _, r := range readers[:i] {
					r.close()
				}
				return err
			}
			closeFn = func() { sr.Close() }
			srcs = append(srcs, sr)
		}
		if len(pc.tail) > 0 {
			srcs = append(srcs, &sliceCursor{buf: pc.tail})
		}
		readers[i] = &runReader{src: &chainSource{srcs: srcs}, closeFn: closeFn}
	}
	m, err := newStreamMergerReaders(s, readers)
	if err != nil {
		return err
	}
	defer m.close()
	w, err := out.NewSegmentWriter(nil, off, end)
	if err != nil {
		return err
	}
	defer func() {
		if retErr != nil {
			w.Close() //nolint:errcheck // best-effort frame return on the error path
		}
	}()
	var lenBuf [binary.MaxVarintLen64]byte
	for {
		rec, err := m.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		n := binary.PutUvarint(lenBuf[:], uint64(len(rec)))
		if _, err := w.Write(lenBuf[:n]); err != nil {
			return err
		}
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	return w.Close()
}

// mergeRunsPartitioned is the range-partitioned final merge. See the file
// comment for the two invariants (equal-key confinement → byte-identical
// output; exactly-once block access → partition-count-invariant ledger).
func (s *Sorter) mergeRunsPartitioned(runs, idxs []*em.Stream) (*em.Stream, error) {
	// 1. Fence indexes → weighted samples. Every index is read in full
	// regardless of the partition count (P=1 included), so index reads and
	// the sample count are partition-count-invariant.
	entries := make([][]fence.Entry, len(runs))
	var samples []fence.Sample
	for i, idx := range idxs {
		es, err := readFenceIndex(idx)
		if err != nil {
			return nil, err
		}
		entries[i] = es
		size := runs[i].Size()
		for j, e := range es {
			end := size
			if j+1 < len(es) {
				end = es[j+1].Offset
			}
			samples = append(samples, fence.Sample{Key: e.Key, Weight: end - e.Offset})
		}
	}
	s.env.Stats.AddSplitterSamples(s.cat, int64(len(samples)))
	splitters := fence.SelectSplitters(samples, s.mergeParallel)

	// 2. Cut offsets per run.
	plans := make([]*runPlan, len(runs))
	for i, run := range runs {
		pl, err := s.planRun(run, entries[i], splitters)
		if err != nil {
			return nil, err
		}
		plans[i] = pl
	}

	// 3. Output segmentation. Record bytes pass through a merge unchanged
	// (length prefixes included), so each partition's output size is the
	// sum of its input slices — exact, not estimated.
	nParts := len(splitters) + 1
	offs := make([]int64, nParts+1)
	for p := 0; p < nParts; p++ {
		var sz int64
		for _, pl := range plans {
			sz += pl.cuts[p+1].off - pl.cuts[p].off
		}
		offs[p+1] = offs[p] + sz
	}
	out := em.NewStream(s.env.Dev, s.cat)
	if err := out.PreallocateSegmented(offs[nParts]); err != nil {
		return nil, err
	}

	// 4. Merge the partitions, pool-dispatched. The merge phase holds the
	// sorter's whole base grant and a partition needs one frame per
	// nonempty device range plus the segment writer's, so worker frames
	// ride that grant under sorter-local accounting (the inline working
	// set stays reserved); admission is that headroom plus a pool slot,
	// with inline fallback. Where a partition runs can never change its
	// bytes or its block transfers.
	maxNeed := len(runs) + 1
	var admMu sync.Mutex
	avail := s.memBlocks - maxNeed
	for p := 0; p < nParts; p++ {
		if err := s.err(); err != nil {
			break
		}
		need := 1
		for _, pl := range plans {
			if pc := pl.pieces(p); pc.devEnd > pc.devStart {
				need++
			}
		}
		admitted := false
		if s.env.Pool().TryAcquire() {
			admMu.Lock()
			granted := avail >= need
			if granted {
				avail -= need
			}
			admMu.Unlock()
			if granted {
				p := p
				s.wg.Add(1)
				go func() {
					defer s.wg.Done()
					defer s.env.Pool().Release()
					defer func() {
						admMu.Lock()
						avail += need
						admMu.Unlock()
					}()
					defer func() {
						if r := recover(); r != nil {
							s.mu.Lock()
							if s.panicVal == nil {
								s.panicVal = r
							}
							s.mu.Unlock()
						}
					}()
					if err := s.mergePartition(plans, p, out, offs[p], offs[p+1]); err != nil {
						s.mu.Lock()
						if s.firstErr == nil {
							s.firstErr = err
						}
						s.mu.Unlock()
					}
				}()
				admitted = true
			} else {
				s.env.Pool().Release()
			}
		}
		if !admitted {
			if err := s.mergePartition(plans, p, out, offs[p], offs[p+1]); err != nil {
				s.mu.Lock()
				if s.firstErr == nil {
					s.firstErr = err
				}
				s.mu.Unlock()
				break
			}
		}
	}
	s.wg.Wait()
	if err := s.err(); err != nil {
		return nil, err
	}

	// 5. Stitch the boundary blocks and seal.
	if err := out.FinishSegmented(); err != nil {
		return nil, err
	}
	s.env.Stats.AddPartitionedMerges(s.cat, 1)
	s.forgetFences(runs)
	return out, nil
}
