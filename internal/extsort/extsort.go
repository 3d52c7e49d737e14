// Package extsort implements classic external merge sort over opaque byte
// records — the well-established O((N/B)·log_{M/B}(N/B)) algorithm of
// Aggarwal and Vitter that the paper's competitor is built on — plus, on
// top of it, the key-path XML sorter the paper benchmarks NEXSORT against.
//
// The engine follows the textbook structure exactly:
//
//  1. Run formation: records accumulate in a buffer of M−1 memory blocks
//     (one block is reserved for the run writer); when the buffer fills it
//     is sorted in memory and written out as an initial run.
//  2. Merging: runs are merged (M−1)-way — M−1 input blocks plus one output
//     block — in passes until a single run remains.
//
// All run I/O goes through an em.Env and is charged to a configurable
// category, so the baseline's cost is measured in exactly the same currency
// as NEXSORT's. The same engine also serves as NEXSORT's Line 11 fallback
// for subtrees too large to sort in memory.
package extsort

import (
	"encoding/binary"
	"fmt"
	"io"

	"nexsort/internal/em"
	"nexsort/internal/sortkey"
)

// Compare is a total order over encoded records.
type Compare func(a, b []byte) int

// entry is one buffered record, its bytes in the batch arena, with its LCP
// slot. Run formation sorts the batch's indices, so the entries never move.
type entry = sortkey.Rec

// Sorter sorts byte records within a fixed block budget. Create with New,
// feed with Add, then call Sort once; the returned iterator yields records
// in ascending order. Close releases the budget.
//
// A Sorter runs entirely on its caller's goroutine; Add, Sort and Close
// must not be called concurrently.
type Sorter struct {
	env *em.Env
	cat em.Category
	k   sortkey.Kernel

	memBlocks int
	bufLimit  int // record bytes buffered before a run is cut

	entries []entry
	// order and aux are run formation's index arrays, reused across
	// batches (sortEntries).
	order, aux []int32
	arena      *recArena // frame-backed storage behind entry records
	bufBytes   int
	runs       []*em.Stream

	initialRuns   int
	mergePasses   int
	totalRecords  int64
	totalBytes    int64
	streamFinal   bool // SortStream: never materialize the final merge
	leave         int  // LeaveFree: blocks of the budget the caller needs free while draining
	streamedFinal bool
	sorted        bool
	closed        bool
}

// Stats reports how the sort executed, for experiment harnesses: the paper
// reads merge-pass transitions directly off its Figure 6 curve.
type Stats struct {
	Records     int64
	RecordBytes int64
	InitialRuns int
	MergePasses int
	Spilled     bool // false when everything fit in the buffer
	// StreamedFinalMerge reports that the final merge was delivered
	// through the Iterator instead of being materialized as one more run:
	// the caller asked for it (SortStream), or Device.NearFull fired.
	StreamedFinalMerge bool
}

// MinMemBlocks is the smallest grant a sorter takes: two input/buffer
// blocks plus one output block is the smallest merge that makes progress.
const MinMemBlocks = 3

// New creates a sorter that may use memBlocks blocks of main memory,
// granted from env's budget immediately; memBlocks must be at least
// MinMemBlocks. Every comparison goes through cmp (sortkey.Order); callers
// whose record format has a kernel should prefer NewKernel, whose LCPs
// decide most comparisons without reading a record.
func New(env *em.Env, cat em.Category, cmp Compare, memBlocks int) (*Sorter, error) {
	return NewKernel(env, cat, sortkey.Order(cmp), memBlocks)
}

// NewKernel creates a sorter driven by a comparison kernel: k's order is
// the record order, and run formation and the merges run on its LCPs (see
// internal/sortkey). The kernel changes how comparisons execute, never
// their outcome, so output bytes and I/O counts depend only on the order.
func NewKernel(env *em.Env, cat em.Category, k sortkey.Kernel, memBlocks int) (*Sorter, error) {
	if memBlocks < MinMemBlocks {
		return nil, fmt.Errorf("extsort: need at least %d memory blocks, got %d", MinMemBlocks, memBlocks)
	}
	if err := env.Budget.Grant(memBlocks); err != nil {
		return nil, fmt.Errorf("extsort: %w", err)
	}
	return &Sorter{
		env:       env,
		cat:       cat,
		k:         k,
		memBlocks: memBlocks,
		bufLimit:  (memBlocks - 1) * env.Conf.BlockSize,
		arena:     newRecArena(env.Dev.Frames(), memBlocks-1),
	}, nil
}

// Add buffers one record (copied into the batch arena), cutting an initial
// run when the buffer is full. Records larger than the buffer still sort
// correctly: they form single-record runs.
func (s *Sorter) Add(rec []byte) error {
	if s.sorted {
		return fmt.Errorf("extsort: Add after Sort")
	}
	if len(rec) > sortkey.MaxRecordLen {
		return fmt.Errorf("extsort: a record of %d bytes is over the %d-byte limit", len(rec), sortkey.MaxRecordLen)
	}
	s.entries = append(s.entries, entry{Bytes: s.arena.alloc(rec)})
	s.bufBytes += len(rec)
	s.totalRecords++
	s.totalBytes += int64(len(rec))
	if s.bufBytes >= s.bufLimit {
		return s.cutRun()
	}
	return nil
}

// recArena carves record copies out of pool frames, replacing the
// one-allocation-per-record pattern with bump allocation inside recycled
// block buffers. The arena holds at most maxFrames frames — the M−1 buffer
// blocks of the sorter's grant, which is exactly what bufLimit lets the
// records fill — and backs one batch: the batch's runs are cut from it,
// then release() recycles the frames wholesale. Oversized records (and the
// rare overflow when per-frame fragmentation exceeds the slack) fall back
// to plain allocations that die with the batch.
type recArena struct {
	pool      *em.FramePool
	maxFrames int
	frames    []em.Frame
	cur       []byte // unused tail of the most recent frame
}

func newRecArena(pool *em.FramePool, maxFrames int) *recArena {
	return &recArena{pool: pool, maxFrames: maxFrames}
}

// alloc returns a copy of rec with storage carved from the arena.
func (a *recArena) alloc(rec []byte) []byte {
	n := len(rec)
	if n > a.pool.FrameSize() || (len(a.frames) == a.maxFrames && len(a.cur) < n) {
		cp := make([]byte, n)
		copy(cp, rec)
		return cp
	}
	if len(a.cur) < n {
		f := a.pool.Acquire()
		a.frames = append(a.frames, f)
		a.cur = f.Bytes()
	}
	out := a.cur[:n:n]
	copy(out, rec)
	a.cur = a.cur[n:]
	return out
}

// release recycles the arena's frames, invalidating every record allocated
// from it, and leaves the arena empty and reusable.
func (a *recArena) release() {
	for _, f := range a.frames {
		a.pool.Release(f)
	}
	a.frames = a.frames[:0]
	a.cur = nil
}

// cutRun sorts the buffer and spills it as an initial run.
func (s *Sorter) cutRun() error {
	if len(s.entries) == 0 {
		return nil
	}
	order := s.sortEntries()
	run := em.NewStream(s.env.Dev, s.cat)
	w, err := NewRunWriter(run, nil) // accounted under this sorter's grant
	if err != nil {
		return err
	}
	// Close on every path: the writer's buffer frame must go back to the
	// pool even when the spill fails mid-run.
	defer w.Close()
	for _, i := range order {
		if err := w.Write(s.entries[i].Bytes); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	s.initialRuns++
	s.entries = s.entries[:0]
	s.arena.release()
	s.bufBytes = 0
	return nil
}

// sortEntries orders the batch by a binary LCP merge sort (Ng & Kakehi,
// "Merging string sequences by longest common prefixes") and returns its
// indices in order. Every record starts with its LCP against nothing
// (Kernel.Start). Each merge outputs the smaller head, whose LCP is then
// against the record before it in the merged run; the next record of its
// input holds its LCP against the same record, its predecessor there; and
// the other head's LCP became one against it in the match. So every match
// is between two records with LCPs against the last output, which
// Kernel.Less decides mostly without reading either. Ties go to the left
// input, so the sort is stable. The entries stay where Add put them and
// carry their LCPs; only indices move, between two arrays kept across
// batches.
func (s *Sorter) sortEntries() []int32 {
	n := len(s.entries)
	if cap(s.order) < n {
		s.order = make([]int32, n, cap(s.entries))
		s.aux = make([]int32, n, cap(s.entries))
	}
	src, dst := s.order[:n], s.aux[:n]
	for i := range s.entries {
		e := &s.entries[i]
		e.LCP = s.k.Start(e.Bytes)
		src[i] = int32(i)
	}
	for w := 1; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			s.merge(src[lo:mid], src[mid:hi], dst[lo:hi])
		}
		src, dst = dst, src
	}
	return src
}

// merge merges the sorted index runs a and b into out.
func (s *Sorter) merge(a, b, out []int32) {
	i, j, o := 0, 0, 0
	for i < len(a) && j < len(b) {
		if s.k.Less(&s.entries[a[i]], &s.entries[b[j]], true) {
			out[o] = a[i]
			i++
		} else {
			out[o] = b[j]
			j++
		}
		o++
	}
	o += copy(out[o:], a[i:])
	copy(out[o:], b[j:])
}

// AddPresortedRun registers an externally produced, already-sorted run of
// records written by a RunWriter; the merge phase treats it exactly like an
// initial run the sorter cut itself. NEXSORT's graceful-degeneration mode
// hands its incomplete sorted runs to the final merge this way — the
// paper's "we have incorporated the first step of creating initial sorted
// runs for external merge sort into the loop of Line 2".
func (s *Sorter) AddPresortedRun(run *em.Stream) error {
	if s.sorted {
		return fmt.Errorf("extsort: AddPresortedRun after Sort")
	}
	// Flush buffered records first, so runs stay in the order they arrived.
	if err := s.cutRun(); err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	s.initialRuns++
	return nil
}

// SortStream is Sort with the final merge taken as a stream: the iterator
// is the merge itself, never a merged run written to scratch and read
// back. The streamed merge holds one reader block per run and no writer
// block, so it takes up to memBlocks runs, one more than a materialized
// pass, and never costs an extra pass.
func (s *Sorter) SortStream() (*Iterator, error) {
	s.streamFinal = true
	return s.Sort()
}

// LeaveFree asks Sort or SortStream to leave at least n blocks of the
// budget free while the caller drains the iterator, for a caller that needs
// them then. The sorter keeps what its grant can spare of that: records
// that never left memory stay there if they fit in it, and the merge passes
// use the whole grant until the runs left fit one reader block each in it
// (one run, unless the final merge streams). Every block of the grant the
// iterator does not hold then goes back to the budget.
func (s *Sorter) LeaveFree(n int) {
	s.leave = n
}

// lend gives back every block of the grant beyond the held blocks the
// iterator needs, when LeaveFree asked for blocks.
func (s *Sorter) lend(held int) {
	if s.leave > 0 && held < s.memBlocks {
		s.env.Budget.Release(s.memBlocks - held)
		s.memBlocks = held
	}
}

// Sort finishes run formation, runs the merge passes, and returns an
// iterator over the sorted records. The iterator becomes invalid once the
// sorter is closed.
func (s *Sorter) Sort() (*Iterator, error) {
	if s.sorted {
		return nil, fmt.Errorf("extsort: Sort called twice")
	}
	s.sorted = true
	// Lifecycle poll before the CPU-heavy phases: the in-memory fast path
	// and a large batch sort perform no device operations for a while, so
	// without this check a cancellation could only be observed once the
	// merge started moving blocks.
	if err := s.env.Dev.Interrupted(); err != nil {
		return nil, err
	}
	// keep is what the sorter may hold while its output is drained.
	keep := s.memBlocks
	if s.leave > 0 {
		keep -= max(0, s.leave-s.env.Budget.Free())
		if keep < 1 {
			return nil, fmt.Errorf("extsort: cannot leave %d blocks free holding %d", s.leave, s.memBlocks)
		}
	}
	// Fast path: everything fit in memory, no run was ever cut. The records
	// hold their arena's frames, and their bytes' worth of blocks when
	// oversized ones were allocated apart.
	bs := s.env.Conf.BlockSize
	if held := max((s.bufBytes+bs-1)/bs, len(s.arena.frames)); len(s.runs) == 0 && held <= keep {
		order := s.sortEntries()
		s.lend(held)
		return &Iterator{mem: s.entries, order: order}, nil
	}
	if err := s.cutRun(); err != nil {
		return nil, err
	}
	fanIn := s.memBlocks - 1
	for len(s.runs) > 1 {
		// A streamed final merge: asked for by SortStream, or graceful
		// degradation under scratch pressure when the device is near its
		// quota. Once few enough runs remain that each can hold one reader
		// block within this sorter's grant, skip materializing the merged
		// run and hand the caller the merge instead. Dropping the output
		// block raises the feasible fan-in from M−1 to M, and the pass that
		// would have cost the full data size in writes (plus rereads)
		// costs nothing — the last scratch the run needed was the runs it
		// already has.
		if (s.streamFinal || s.env.Dev.NearFull()) && len(s.runs) <= keep {
			s.lend(len(s.runs))
			m, err := newStreamMerger(s, s.runs)
			if err != nil {
				return nil, err
			}
			s.streamedFinal = true
			return &Iterator{run: m}, nil
		}
		next, err := s.mergePass(s.runs, fanIn)
		if err != nil {
			return nil, err
		}
		s.runs = next
		s.mergePasses++
	}
	s.lend(1)
	r, err := newRunReader(s.runs[0])
	if err != nil {
		return nil, err
	}
	return &Iterator{run: r}, nil
}

// mergeCursor tracks one input run during a k-way merge: its reader and
// its current record with that record's LCP against the merge's last
// output, or against nothing before the first.
type mergeCursor struct {
	sortkey.Rec
	r      *runReader
	idx    int
	eof    bool
	closed bool
}

// streamMerger yields the k-way loser-tree merge of a set of runs record
// by record, without materializing the merged run. mergeRuns pumps one
// into a run writer during ordinary merge passes; the graceful-degradation
// path hands one directly to the Iterator as the final merge, spending k
// reader blocks and zero scratch writes. Selection order — the kernel's
// order, then run index on ties — is identical either way, so which path
// delivered a record can never change the output bytes.
//
// The tree is an LCP tree of losers (Bingmann, Eberle & Sanders,
// "Engineering parallel string sorting"): every match on the path a new
// record replays is between two records with LCPs against the winner just
// output. The new record's LCP is against its predecessor in its run,
// which is that winner; each loser on the path lost to that winner and
// holds its LCP against it. So Kernel.Less decides most matches without
// reading a record, and the loser keeps its LCP against the match's
// winner. LCPs live in memory only, so runs hold the records' bytes alone.
type streamMerger struct {
	s       *Sorter
	cursors []mergeCursor
	tree    *sortkey.LoserTree
	started bool
	closed  bool
}

// newStreamMerger opens a reader per run and primes the loser tree. Cursor
// index follows run order and breaks ties between equal records. On error
// every already-opened reader is closed.
func newStreamMerger(s *Sorter, runs []*em.Stream) (*streamMerger, error) {
	m := &streamMerger{s: s, cursors: make([]mergeCursor, 0, len(runs))}
	for i, run := range runs {
		r, err := newRunReader(run)
		if err != nil {
			m.close()
			return nil, err
		}
		m.cursors = append(m.cursors, mergeCursor{r: r, idx: i})
	}
	for i := range m.cursors {
		if err := m.load(&m.cursors[i]); err != nil {
			m.close()
			return nil, err
		}
	}
	m.tree = sortkey.NewLoserTree(len(m.cursors), m.less)
	return m, nil
}

// load advances a cursor to its run's next record and sets the record's
// LCP: against nothing before the merge starts, and afterwards against the
// record it replaces, the winner just output. At EOF the reader is closed
// immediately (its buffer frame goes back to the pool while the merge
// continues) and the cursor is marked exhausted.
func (m *streamMerger) load(cur *mergeCursor) error {
	rec, err := cur.r.next()
	if err == io.EOF {
		cur.r.close()
		cur.closed = true
		cur.eof = true
		cur.Bytes = nil
		return nil
	}
	if err != nil {
		return err
	}
	if m.started {
		cur.LCP = m.s.k.Next(cur.Bytes, rec)
	} else {
		cur.LCP = m.s.k.Start(rec)
	}
	cur.Bytes = rec
	return nil
}

// less ranks cursors for the loser tree: exhausted runs after every live
// one, then the kernel's order, then run index.
func (m *streamMerger) less(a, b int32) bool {
	ca, cb := &m.cursors[a], &m.cursors[b]
	if ca.eof || cb.eof {
		if ca.eof != cb.eof {
			return !ca.eof
		}
		return ca.idx < cb.idx
	}
	return m.s.k.Less(&ca.Rec, &cb.Rec, ca.idx < cb.idx)
}

// next returns the merge's next record, or io.EOF when every run is
// drained. The returned slice is valid until the following next call —
// the previous winner is advanced lazily, here, so the record handed out
// last time stays untouched in its reader buffer until then.
func (m *streamMerger) next() ([]byte, error) {
	if m.started {
		cur := &m.cursors[m.tree.Winner()]
		if !cur.eof {
			if err := m.load(cur); err != nil {
				return nil, err
			}
			m.tree.Fix()
		}
	}
	m.started = true
	cur := &m.cursors[m.tree.Winner()]
	if cur.eof {
		return nil, io.EOF
	}
	return cur.Bytes, nil
}

// close releases every still-open reader so their buffer frames return to
// the pool. Idempotent.
func (m *streamMerger) close() {
	if m.closed {
		return
	}
	m.closed = true
	for i := range m.cursors {
		if m.cursors[i].r != nil && !m.cursors[i].closed {
			m.cursors[i].r.close()
			m.cursors[i].closed = true
		}
	}
}

// mergeRuns merges the given runs into a single new run, selecting the
// minimum with a tree of losers (see internal/sortkey): ⌈log₂k⌉ matches
// per record against the binary heap's two-per-level sift. Exhausted runs
// stay in the tree ranked after every live one, so the merge ends when the
// winner is at EOF.
func (s *Sorter) mergeRuns(runs []*em.Stream) (_ *em.Stream, retErr error) {
	if len(runs) == 1 {
		return runs[0], nil
	}
	m, err := newStreamMerger(s, runs)
	if err != nil {
		return nil, err
	}
	defer m.close()
	out := em.NewStream(s.env.Dev, s.cat)
	w, err := NewRunWriter(out, nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		// On failure, close the writer so its buffer frame returns to the
		// pool; the half-written run is abandoned.
		if retErr != nil {
			w.Close()
		}
	}()
	for {
		rec, err := m.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// mergePass merges runs in disjoint fanIn-sized groups, in run order, into
// the next pass's runs; the final pass is the one whose single group holds
// every run.
func (s *Sorter) mergePass(runs []*em.Stream, fanIn int) ([]*em.Stream, error) {
	next := make([]*em.Stream, 0, (len(runs)+fanIn-1)/fanIn)
	for lo := 0; lo < len(runs); lo += fanIn {
		merged, err := s.mergeRuns(runs[lo:min(lo+fanIn, len(runs))])
		if err != nil {
			return nil, err
		}
		next = append(next, merged)
	}
	return next, nil
}

// Stats returns execution statistics. Valid after Sort.
func (s *Sorter) Stats() Stats {
	return Stats{
		Records:            s.totalRecords,
		RecordBytes:        s.totalBytes,
		InitialRuns:        s.initialRuns,
		MergePasses:        s.mergePasses,
		Spilled:            s.initialRuns > 0,
		StreamedFinalMerge: s.streamedFinal,
	}
}

// Close releases the sorter's memory grant. The current batch arena (still
// referenced by Iterator.mem on the in-memory fast path) is recycled first.
func (s *Sorter) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.arena.release()
	s.entries = nil
	s.env.Budget.Release(s.memBlocks)
}

// recordSource is a stream of sorted records behind an Iterator: a single
// materialized run (runReader) or the streaming final merge (streamMerger).
type recordSource interface {
	next() ([]byte, error)
	close()
}

// Iterator yields sorted records: the batch's entries in order, or a
// record source.
type Iterator struct {
	mem   []entry
	order []int32
	i     int
	run   recordSource
}

// Next returns the next record, or io.EOF. The returned slice is valid
// until the following Next call.
func (it *Iterator) Next() ([]byte, error) {
	if it.run != nil {
		return it.run.next()
	}
	if it.i >= len(it.order) {
		return nil, io.EOF
	}
	rec := it.mem[it.order[it.i]].Bytes
	it.i++
	return rec, nil
}

// Close releases the iterator's reader.
func (it *Iterator) Close() {
	if it.run != nil {
		it.run.close()
	}
}

// A run is a sequence of records, each framed as uvarint length | record.
// The sorter's own runs and the presorted runs AddPresortedRun takes are
// written by RunWriter and read by runReader.

// RunWriter appends framed records to a run.
type RunWriter struct {
	w      *em.StreamWriter
	lenBuf [binary.MaxVarintLen64]byte
}

// NewRunWriter opens run for writing. Its one buffer block is granted from
// budget; nil leaves it to a grant the caller already holds.
func NewRunWriter(run *em.Stream, budget *em.Budget) (*RunWriter, error) {
	w, err := run.NewWriter(budget)
	if err != nil {
		return nil, err
	}
	return &RunWriter{w: w}, nil
}

// Write appends one record.
func (w *RunWriter) Write(rec []byte) error {
	n := binary.PutUvarint(w.lenBuf[:], uint64(len(rec)))
	if _, err := w.w.Write(w.lenBuf[:n]); err != nil {
		return err
	}
	_, err := w.w.Write(rec)
	return err
}

// Close seals the run and releases the writer's buffer block. It may be
// called again after a failure; later calls do nothing.
func (w *RunWriter) Close() error { return w.w.Close() }

// runReader streams framed records out of a run. It reads into two
// buffers in turn, so a record stays valid until the call after next: the
// merge reads each record's LCP against the one before it.
type runReader struct {
	src       *em.BlockReader
	size      int64 // the run's length in bytes
	buf, prev []byte
}

func newRunReader(run *em.Stream) (*runReader, error) {
	sr, err := run.NewReader(nil, 0)
	if err != nil {
		return nil, err
	}
	return &runReader{src: sr, size: run.Size()}, nil
}

func (r *runReader) next() ([]byte, error) {
	n, err := binary.ReadUvarint(r.src)
	if err != nil {
		return nil, err // io.EOF at a record boundary is the clean end
	}
	// A record never runs past its run's end, so a longer length is
	// corrupt, and must not size the buffer.
	if left := r.size - r.src.Offset(); n > uint64(left) {
		return nil, fmt.Errorf("extsort: corrupt run: record length %d with %d bytes left", n, left)
	}
	if n > sortkey.MaxRecordLen {
		return nil, fmt.Errorf("extsort: a record of %d bytes is over the %d-byte limit", n, sortkey.MaxRecordLen)
	}
	r.buf, r.prev = r.prev, r.buf
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.src, r.buf); err != nil {
		return nil, fmt.Errorf("extsort: truncated record: %w", err)
	}
	return r.buf, nil
}

func (r *runReader) close() { r.src.Close() }
