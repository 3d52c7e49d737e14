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
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"nexsort/internal/em"
	"nexsort/internal/sortkey"
)

// Compare is a total order over encoded records.
type Compare func(a, b []byte) int

// keyPrefixLen is the inline normalized-key prefix kept next to every
// buffered record and merge cursor. Comparisons hit this fixed-size,
// zero-padded array first — one memcmp, no pointer chase — and fall back
// to the full comparator only on a prefix tie; the zero padding keeps the
// truncated comparison decisive (a differing padded prefix always agrees
// with the full key order, see internal/sortkey).
//
// The prefix decides comparisons on shallow keys, such as the
// two-component paths of a flat document, where about 16% of run
// formation's comparisons tie. Deep key paths tie far more often, because
// records that meet in a sort share their leading components and any
// prefix that starts at byte 0 holds only those: 97% of merge sort's
// run-formation comparisons tie on the benchmark's hier document, 89% on
// its site document, and 36% of NEXSORT's on site. Those ties are the
// comparator's job, which starts at the first differing byte.
const keyPrefixLen = 16

// entry is one buffered record: the normalized-key prefix inline, then
// the record bytes in the batch arena. Run formation sorts a flat []entry
// with slices.SortFunc — cache-friendly sequential key access, no
// reflection-based swapping.
type entry struct {
	key [keyPrefixLen]byte
	rec []byte
}

// Sorter sorts byte records within a fixed block budget. Create with New,
// feed with Add, then call Sort once; the returned iterator yields records
// in ascending order. Close releases the budget.
//
// A Sorter runs entirely on its caller's goroutine; Add, Sort and Close
// must not be called concurrently.
type Sorter struct {
	env *em.Env
	cat em.Category
	cmp Compare
	// keyer generates normalized-key prefixes (sortkey.Kernel.AppendKey);
	// nil means every comparison goes through cmp directly.
	keyer func(dst, rec []byte, max int) []byte

	memBlocks int
	bufLimit  int // record bytes buffered before a run is cut

	entries  []entry
	keyBuf   []byte    // reused normalized-key scratch for Add
	arena    *recArena // frame-backed storage behind entry records
	bufBytes int
	runs     []*em.Stream

	initialRuns   int
	mergePasses   int
	totalRecords  int64
	totalBytes    int64
	streamFinal   bool // SortStream: never materialize the final merge
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

// New creates a sorter that may use memBlocks blocks of main memory,
// granted from env's budget immediately. memBlocks must be at least 3 (two
// input/buffer blocks plus one output block is the smallest merge that
// makes progress). Every comparison goes through cmp; callers with an
// order-preserving normalized-key encoding should prefer NewKernel, which
// turns most comparisons into inline-prefix memcmps.
func New(env *em.Env, cat em.Category, cmp Compare, memBlocks int) (*Sorter, error) {
	return NewKernel(env, cat, sortkey.Kernel{Compare: cmp}, memBlocks)
}

// NewKernel creates a sorter driven by a comparison kernel: k.Compare is
// the record order, and k.AppendKey (when non-nil) supplies the
// order-preserving normalized keys whose first keyPrefixLen bytes are
// cached inline with every buffered record and merge cursor. The kernel
// changes how comparisons execute, never their outcome, so output bytes
// and I/O counts are identical to a plain New sorter with the same order.
func NewKernel(env *em.Env, cat em.Category, k sortkey.Kernel, memBlocks int) (*Sorter, error) {
	if memBlocks < 3 {
		return nil, fmt.Errorf("extsort: need at least 3 memory blocks, got %d", memBlocks)
	}
	if err := env.Budget.Grant(memBlocks); err != nil {
		return nil, fmt.Errorf("extsort: %w", err)
	}
	return &Sorter{
		env:       env,
		cat:       cat,
		cmp:       k.Compare,
		keyer:     k.AppendKey,
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
	e := entry{rec: s.arena.alloc(rec)}
	if s.keyer != nil {
		s.keyBuf = s.keyer(s.keyBuf[:0], rec, keyPrefixLen)
		copy(e.key[:], s.keyBuf) // zero-padded when the key is shorter
	}
	s.entries = append(s.entries, e)
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

// cutRun sorts the buffer and spills it as a length-prefixed initial run.
func (s *Sorter) cutRun() error {
	if len(s.entries) == 0 {
		return nil
	}
	s.sortEntries(s.entries)
	run := em.NewStream(s.env.Dev, s.cat)
	w, err := run.NewWriter(nil) // accounted under this sorter's grant
	if err != nil {
		return err
	}
	// Close on every path: the writer's buffer frame must go back to the
	// pool even when the spill fails mid-run.
	defer w.Close()
	var lenBuf [binary.MaxVarintLen64]byte
	for _, e := range s.entries {
		n := binary.PutUvarint(lenBuf[:], uint64(len(e.rec)))
		if _, err := w.Write(lenBuf[:n]); err != nil {
			return err
		}
		if _, err := w.Write(e.rec); err != nil {
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

// sortEntries orders one batch in place. With a keyer, most comparisons
// resolve on the inline prefixes — a fixed-size memcmp over data the sort
// is already touching — and only prefix ties pay for the full comparator.
// Without one, the order is cmp alone. Either way the order is the total
// order of the kernel, so run contents are independent of which path
// resolved each comparison.
func (s *Sorter) sortEntries(entries []entry) {
	if s.keyer == nil {
		slices.SortFunc(entries, func(a, b entry) int { return s.cmp(a.rec, b.rec) })
		return
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if c := bytes.Compare(a.key[:], b.key[:]); c != 0 {
			return c
		}
		return s.cmp(a.rec, b.rec)
	})
}

// AddPresortedRun registers an externally produced, already-sorted run of
// length-prefixed records; the merge phase treats it exactly like an
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
	// Fast path: everything fit in memory, no run was ever cut.
	if len(s.runs) == 0 {
		s.sortEntries(s.entries)
		return &Iterator{mem: s.entries}, nil
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
		if (s.streamFinal || s.env.Dev.NearFull()) && len(s.runs) <= s.memBlocks {
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
	r, err := newRunReader(s.runs[0])
	if err != nil {
		return nil, err
	}
	return &Iterator{run: r}, nil
}

// mergeCursor tracks one input run during a k-way merge: its reader, the
// current record, and that record's normalized-key prefix cached inline so
// the loser tree's matches are one memcmp over data already in the cursor
// slice — no pointer chase into the run buffers on the compare path.
type mergeCursor struct {
	key    [keyPrefixLen]byte
	r      *runReader
	rec    []byte
	idx    int
	eof    bool
	closed bool
}

// streamMerger yields the k-way loser-tree merge of a set of runs record
// by record, without materializing the merged run. mergeRuns pumps one
// into a run writer during ordinary merge passes; the graceful-degradation
// path hands one directly to the Iterator as the final merge, spending k
// reader blocks and zero scratch writes. Selection order — comparator,
// then run index on ties — is identical either way, so which path
// delivered a record can never change the output bytes.
type streamMerger struct {
	s       *Sorter
	cursors []mergeCursor
	tree    *sortkey.LoserTree
	kbuf    []byte
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

// load advances a cursor to its run's next record, refreshing the inline
// key prefix; at EOF the reader is closed immediately (its buffer frame
// goes back to the pool while the merge continues) and the cursor is
// marked exhausted.
func (m *streamMerger) load(cur *mergeCursor) error {
	rec, err := cur.r.next()
	if err == io.EOF {
		cur.r.close()
		cur.closed = true
		cur.eof = true
		cur.rec = nil
		return nil
	}
	if err != nil {
		return err
	}
	cur.rec = rec
	if m.s.keyer != nil {
		m.kbuf = m.s.keyer(m.kbuf[:0], rec, keyPrefixLen)
		n := copy(cur.key[:], m.kbuf)
		for i := n; i < keyPrefixLen; i++ {
			cur.key[i] = 0
		}
	}
	return nil
}

// less ranks cursors for the loser tree: exhausted runs after every live
// one, then key prefix, then full comparator, then run index.
func (m *streamMerger) less(a, b int32) bool {
	ca, cb := &m.cursors[a], &m.cursors[b]
	if ca.eof != cb.eof {
		return !ca.eof
	}
	if ca.eof {
		return ca.idx < cb.idx
	}
	if m.s.keyer != nil {
		if c := bytes.Compare(ca.key[:], cb.key[:]); c != 0 {
			return c < 0
		}
	}
	if c := m.s.cmp(ca.rec, cb.rec); c != 0 {
		return c < 0
	}
	return ca.idx < cb.idx
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
	return cur.rec, nil
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
	w, err := out.NewWriter(nil)
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
	var lenBuf [binary.MaxVarintLen64]byte
	for {
		rec, err := m.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		n := binary.PutUvarint(lenBuf[:], uint64(len(rec)))
		if _, err := w.Write(lenBuf[:n]); err != nil {
			return nil, err
		}
		if _, err := w.Write(rec); err != nil {
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

// Iterator yields sorted records. Exactly one of mem/run is set.
type Iterator struct {
	mem []entry
	i   int
	run recordSource
}

// Next returns the next record, or io.EOF. The returned slice is valid
// until the following Next call.
func (it *Iterator) Next() ([]byte, error) {
	if it.run != nil {
		return it.run.next()
	}
	if it.i >= len(it.mem) {
		return nil, io.EOF
	}
	rec := it.mem[it.i].rec
	it.i++
	return rec, nil
}

// Close releases the iterator's reader.
func (it *Iterator) Close() {
	if it.run != nil {
		it.run.close()
	}
}

// runReader streams length-prefixed records out of a run.
type runReader struct {
	src *em.StreamReader
	buf []byte
}

func newRunReader(run *em.Stream) (*runReader, error) {
	sr, err := run.NewReader(nil, 0)
	if err != nil {
		return nil, err
	}
	return &runReader{src: sr}, nil
}

// maxRecordLen bounds decoded record lengths against corruption; records
// legitimately reach subtree size, so the cap is generous.
const maxRecordLen = 1 << 30

func (r *runReader) next() ([]byte, error) {
	n, err := binary.ReadUvarint(r.src)
	if err != nil {
		return nil, err // io.EOF at a record boundary is the clean end
	}
	if n > maxRecordLen {
		return nil, fmt.Errorf("extsort: corrupt run: record length %d", n)
	}
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
