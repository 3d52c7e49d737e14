package em

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Stats accumulates block-I/O counts by Category. Each counter is an
// independent per-category atomic, so concurrent sort workers, stream
// writers and hardening layers charge transfers without contending on a
// lock — the Device issues I/O from many goroutines at Parallelism > 1. A
// single Stats is typically shared by a Device and the
// CountingReader/CountingWriter wrapping the input and output files, so
// that TotalIOs reflects the complete cost of an algorithm run.
//
// Aggregates (Total*, Snapshot, String) sum the atomics individually;
// taken while I/O is still in flight they can straddle a concurrent
// update, but every figure reported by the sorters is read after the
// worker pool has drained, where the counts are exact — and, by the
// determinism guarantee (DESIGN.md), identical at every parallelism level.
// The byte accounting is split into two ledgers. The logical side —
// reads/writes and readBytes/writeBytes — is the paper's model: whole
// blocks, charged by the Device (and the counting reader/writer at the
// user-file boundary), invariant under parallelism and under every
// hardening layer. The physical side — physReads/physWrites and their
// bytes — is charged by the innermost backend layer and counts what
// actually crossed the device boundary: checksum trailers widen it,
// spill compression shrinks it, retries repeat it. Every I/O-count
// invariant in the test suites holds on the logical side; the physical
// side is where compression's 2-4× byte reduction becomes visible.
type Stats struct {
	reads    [numCategories]atomic.Int64
	writes   [numCategories]atomic.Int64
	readB    [numCategories]atomic.Int64
	writeB   [numCategories]atomic.Int64
	physR    [numCategories]atomic.Int64
	physW    [numCategories]atomic.Int64
	physRB   [numCategories]atomic.Int64
	physWB   [numCategories]atomic.Int64
	retries  [numCategories]atomic.Int64
	ckFails  [numCategories]atomic.Int64
	canceled [numCategories]atomic.Int64
	exhaust  [numCategories]atomic.Int64
	// Partitioned-merge counters (DESIGN.md §17). They describe the
	// range-partitioned final merge — how many merges took the partitioned
	// path and how many fence-key samples fed splitter selection — and are
	// never folded into the logical Reads/Writes ledger: a partitioned
	// merge moves exactly the blocks the serial loser tree would.
	pmerges   [numCategories]atomic.Int64
	splitSamp [numCategories]atomic.Int64
}

// NewStats returns an empty Stats.
func NewStats() *Stats { return &Stats{} }

// AddReads records n block reads under category c.
func (s *Stats) AddReads(c Category, n int64) { s.reads[c].Add(n) }

// AddWrites records n block writes under category c.
func (s *Stats) AddWrites(c Category, n int64) { s.writes[c].Add(n) }

// AddReadBytes records n logical bytes read under category c. Charged in
// whole blocks wherever AddReads is charged, so per category
// readBytes == reads × blockSize.
func (s *Stats) AddReadBytes(c Category, n int64) { s.readB[c].Add(n) }

// AddWriteBytes records n logical bytes written under category c.
func (s *Stats) AddWriteBytes(c Category, n int64) { s.writeB[c].Add(n) }

// AddPhysReads records n physical device reads under category c; charged
// by the innermost backend layer, one per operation that reached the
// device (retried attempts included).
func (s *Stats) AddPhysReads(c Category, n int64) { s.physR[c].Add(n) }

// AddPhysWrites records n physical device writes under category c.
func (s *Stats) AddPhysWrites(c Category, n int64) { s.physW[c].Add(n) }

// AddPhysReadBytes records n bytes physically read from the device under
// category c — the transferred size after trailers and compression, not
// the logical block size.
func (s *Stats) AddPhysReadBytes(c Category, n int64) { s.physRB[c].Add(n) }

// AddPhysWriteBytes records n bytes physically written to the device under
// category c.
func (s *Stats) AddPhysWriteBytes(c Category, n int64) { s.physWB[c].Add(n) }

// AddRetries records n retried backend operations under category c. The
// retry layer calls this once per re-attempt, so the counter measures
// wasted transfers caused by transient faults.
func (s *Stats) AddRetries(c Category, n int64) { s.retries[c].Add(n) }

// AddChecksumFailures records n blocks that failed checksum verification
// under category c.
func (s *Stats) AddChecksumFailures(c Category, n int64) { s.ckFails[c].Add(n) }

// AddCanceled records n block operations the Device refused because the
// run's lifecycle had ended (cancellation or deadline), under category c.
// A refused operation performs no transfer, so it is never also counted in
// Reads/Writes; the counter measures how much work cancellation cut short.
func (s *Stats) AddCanceled(c Category, n int64) { s.canceled[c].Add(n) }

// AddExhausted records n block writes that failed because the scratch
// device was out of space (quota or real ENOSPC), under category c.
func (s *Stats) AddExhausted(c Category, n int64) { s.exhaust[c].Add(n) }

// AddPartitionedMerges records n merges that ran as range-partitioned
// loser-tree fans under category c. Charged once per merge, never per
// partition, so the counter is invariant in Config.MergeParallel.
func (s *Stats) AddPartitionedMerges(c Category, n int64) { s.pmerges[c].Add(n) }

// AddSplitterSamples records n fence-key samples fed into splitter
// selection under category c. Every partitioned merge reads every input
// run's full fence index regardless of the partition count, so this too is
// invariant in Config.MergeParallel.
func (s *Stats) AddSplitterSamples(c Category, n int64) { s.splitSamp[c].Add(n) }

// Reads returns the number of block reads recorded under category c.
func (s *Stats) Reads(c Category) int64 { return s.reads[c].Load() }

// Writes returns the number of block writes recorded under category c.
func (s *Stats) Writes(c Category) int64 { return s.writes[c].Load() }

// IOs returns reads+writes recorded under category c.
func (s *Stats) IOs(c Category) int64 { return s.reads[c].Load() + s.writes[c].Load() }

// TotalReads returns the total block reads across all categories.
func (s *Stats) TotalReads() int64 {
	var t int64
	for i := range s.reads {
		t += s.reads[i].Load()
	}
	return t
}

// TotalWrites returns the total block writes across all categories.
func (s *Stats) TotalWrites() int64 {
	var t int64
	for i := range s.writes {
		t += s.writes[i].Load()
	}
	return t
}

// TotalIOs returns the total block transfers across all categories. This is
// the paper's primary performance metric.
func (s *Stats) TotalIOs() int64 { return s.TotalReads() + s.TotalWrites() }

// ReadBytes returns the logical bytes read under category c.
func (s *Stats) ReadBytes(c Category) int64 { return s.readB[c].Load() }

// WriteBytes returns the logical bytes written under category c.
func (s *Stats) WriteBytes(c Category) int64 { return s.writeB[c].Load() }

// PhysReads returns the physical device reads recorded under category c.
func (s *Stats) PhysReads(c Category) int64 { return s.physR[c].Load() }

// PhysWrites returns the physical device writes recorded under category c.
func (s *Stats) PhysWrites(c Category) int64 { return s.physW[c].Load() }

// PhysReadBytes returns the bytes physically read under category c.
func (s *Stats) PhysReadBytes(c Category) int64 { return s.physRB[c].Load() }

// PhysWriteBytes returns the bytes physically written under category c.
func (s *Stats) PhysWriteBytes(c Category) int64 { return s.physWB[c].Load() }

// TotalReadBytes returns logical bytes read across all categories.
func (s *Stats) TotalReadBytes() int64 {
	var t int64
	for i := range s.readB {
		t += s.readB[i].Load()
	}
	return t
}

// TotalWriteBytes returns logical bytes written across all categories.
func (s *Stats) TotalWriteBytes() int64 {
	var t int64
	for i := range s.writeB {
		t += s.writeB[i].Load()
	}
	return t
}

// TotalPhysReadBytes returns physically read bytes across all categories.
func (s *Stats) TotalPhysReadBytes() int64 {
	var t int64
	for i := range s.physRB {
		t += s.physRB[i].Load()
	}
	return t
}

// TotalPhysWriteBytes returns physically written bytes across all
// categories.
func (s *Stats) TotalPhysWriteBytes() int64 {
	var t int64
	for i := range s.physWB {
		t += s.physWB[i].Load()
	}
	return t
}

// Retries returns the retried operations recorded under category c.
func (s *Stats) Retries(c Category) int64 { return s.retries[c].Load() }

// ChecksumFailures returns the checksum failures recorded under category c.
func (s *Stats) ChecksumFailures(c Category) int64 { return s.ckFails[c].Load() }

// TotalRetries returns retried operations across all categories.
func (s *Stats) TotalRetries() int64 {
	var t int64
	for i := range s.retries {
		t += s.retries[i].Load()
	}
	return t
}

// TotalChecksumFailures returns checksum failures across all categories.
func (s *Stats) TotalChecksumFailures() int64 {
	var t int64
	for i := range s.ckFails {
		t += s.ckFails[i].Load()
	}
	return t
}

// Canceled returns the lifecycle-refused operations recorded under
// category c.
func (s *Stats) Canceled(c Category) int64 { return s.canceled[c].Load() }

// Exhausted returns the out-of-space write failures recorded under
// category c.
func (s *Stats) Exhausted(c Category) int64 { return s.exhaust[c].Load() }

// TotalCanceled returns lifecycle-refused operations across all categories.
func (s *Stats) TotalCanceled() int64 {
	var t int64
	for i := range s.canceled {
		t += s.canceled[i].Load()
	}
	return t
}

// TotalExhausted returns out-of-space failures across all categories.
func (s *Stats) TotalExhausted() int64 {
	var t int64
	for i := range s.exhaust {
		t += s.exhaust[i].Load()
	}
	return t
}

// PartitionedMerges returns the range-partitioned merges recorded under
// category c.
func (s *Stats) PartitionedMerges(c Category) int64 { return s.pmerges[c].Load() }

// SplitterSamples returns the fence-key splitter samples recorded under
// category c.
func (s *Stats) SplitterSamples(c Category) int64 { return s.splitSamp[c].Load() }

// TotalPartitionedMerges returns range-partitioned merges across all
// categories.
func (s *Stats) TotalPartitionedMerges() int64 {
	var t int64
	for i := range s.pmerges {
		t += s.pmerges[i].Load()
	}
	return t
}

// TotalSplitterSamples returns fence-key splitter samples across all
// categories.
func (s *Stats) TotalSplitterSamples() int64 {
	var t int64
	for i := range s.splitSamp {
		t += s.splitSamp[i].Load()
	}
	return t
}

// Reset zeroes every counter. Not for concurrent use with in-flight I/O.
func (s *Stats) Reset() {
	for i := 0; i < int(numCategories); i++ {
		s.reads[i].Store(0)
		s.writes[i].Store(0)
		s.readB[i].Store(0)
		s.writeB[i].Store(0)
		s.physR[i].Store(0)
		s.physW[i].Store(0)
		s.physRB[i].Store(0)
		s.physWB[i].Store(0)
		s.retries[i].Store(0)
		s.ckFails[i].Store(0)
		s.canceled[i].Store(0)
		s.exhaust[i].Store(0)
		s.pmerges[i].Store(0)
		s.splitSamp[i].Store(0)
	}
}

// Snapshot returns a copy of the per-category counters, keyed by category
// name, for reporting. Categories with zero activity are omitted.
func (s *Stats) Snapshot() map[string]IOCount {
	out := make(map[string]IOCount)
	for i := 0; i < int(numCategories); i++ {
		c := IOCount{
			Reads:             s.reads[i].Load(),
			Writes:            s.writes[i].Load(),
			ReadBytes:         s.readB[i].Load(),
			WriteBytes:        s.writeB[i].Load(),
			PhysReads:         s.physR[i].Load(),
			PhysWrites:        s.physW[i].Load(),
			PhysReadBytes:     s.physRB[i].Load(),
			PhysWriteBytes:    s.physWB[i].Load(),
			Retries:           s.retries[i].Load(),
			ChecksumFailures:  s.ckFails[i].Load(),
			Canceled:          s.canceled[i].Load(),
			Exhausted:         s.exhaust[i].Load(),
			PartitionedMerges: s.pmerges[i].Load(),
			SplitterSamples:   s.splitSamp[i].Load(),
		}
		if c == (IOCount{}) {
			continue
		}
		out[Category(i).String()] = c
	}
	return out
}

// IOCount is the per-category counter set in a Snapshot: block transfers
// plus the hardening layer's retry and checksum-failure counts.
type IOCount struct {
	Reads  int64
	Writes int64
	// ReadBytes and WriteBytes are the logical transfer volumes: whole
	// blocks, exactly Reads/Writes × blockSize — the paper's model,
	// invariant under parallelism and hardening.
	ReadBytes  int64
	WriteBytes int64
	// PhysReads/PhysWrites count operations that reached the physical
	// device (retried attempts included); zero on devices built without
	// the hardening stack.
	PhysReads  int64
	PhysWrites int64
	// PhysReadBytes and PhysWriteBytes are the bytes that actually crossed
	// the device boundary: widened by checksum trailers, shrunk by spill
	// compression.
	PhysReadBytes  int64
	PhysWriteBytes int64
	// Retries counts backend operations that were re-attempted after a
	// transient fault; zero on a healthy device.
	Retries int64
	// ChecksumFailures counts blocks whose stored checksum did not match
	// on read; zero unless the device corrupted data.
	ChecksumFailures int64
	// Canceled counts block operations the Device refused after the run's
	// lifecycle ended; zero on an uncanceled run.
	Canceled int64
	// Exhausted counts block writes that failed for lack of scratch space;
	// zero unless the device filled up (quota or ENOSPC).
	Exhausted int64
	// PartitionedMerges counts merges that ran as range-partitioned
	// loser-tree fans (one per merge, not per partition); never a block
	// transfer. Zero unless Config.MergeParallel > 0.
	PartitionedMerges int64
	// SplitterSamples counts fence-key samples fed into splitter
	// selection; invariant in the partition count because every
	// partitioned merge reads every input fence index in full. Zero
	// unless Config.MergeParallel > 0.
	SplitterSamples int64
}

// Total returns reads+writes.
func (c IOCount) Total() int64 { return c.Reads + c.Writes }

// String renders the full breakdown as a single line, with categories in a
// stable order, e.g. "input r=100 w=0; output r=0 w=100; total=200".
func (s *Stats) String() string {
	snap := s.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	var total int64
	for _, name := range names {
		c := snap[name]
		fmt.Fprintf(&b, "%s r=%d w=%d", name, c.Reads, c.Writes)
		if c.PhysReadBytes > 0 || c.PhysWriteBytes > 0 {
			fmt.Fprintf(&b, " lbytes=%d/%d pbytes=%d/%d",
				c.ReadBytes, c.WriteBytes, c.PhysReadBytes, c.PhysWriteBytes)
		}
		if c.Retries > 0 {
			fmt.Fprintf(&b, " retry=%d", c.Retries)
		}
		if c.ChecksumFailures > 0 {
			fmt.Fprintf(&b, " ckfail=%d", c.ChecksumFailures)
		}
		if c.PartitionedMerges > 0 || c.SplitterSamples > 0 {
			fmt.Fprintf(&b, " pmerge=%d samp=%d", c.PartitionedMerges, c.SplitterSamples)
		}
		if c.Canceled > 0 {
			fmt.Fprintf(&b, " canceled=%d", c.Canceled)
		}
		if c.Exhausted > 0 {
			fmt.Fprintf(&b, " exhausted=%d", c.Exhausted)
		}
		b.WriteString("; ")
		total += c.Total()
	}
	fmt.Fprintf(&b, "total=%d", total)
	return b.String()
}
