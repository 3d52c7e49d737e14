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
// Reads and writes are the paper's model: whole blocks, charged by the
// Device (and the counting reader/writer at the user-file boundary),
// invariant under parallelism and under every hardening layer. The other
// counters tally what the hardening layers and the lifecycle did.
type Stats struct {
	reads    [numCategories]atomic.Int64
	writes   [numCategories]atomic.Int64
	retries  [numCategories]atomic.Int64
	ckFails  [numCategories]atomic.Int64
	canceled [numCategories]atomic.Int64
	exhaust  [numCategories]atomic.Int64
}

// NewStats returns an empty Stats.
func NewStats() *Stats { return &Stats{} }

// AddReads records n block reads under category c.
func (s *Stats) AddReads(c Category, n int64) { s.reads[c].Add(n) }

// AddWrites records n block writes under category c.
func (s *Stats) AddWrites(c Category, n int64) { s.writes[c].Add(n) }

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

// Reset zeroes every counter. Not for concurrent use with in-flight I/O.
func (s *Stats) Reset() {
	for i := 0; i < int(numCategories); i++ {
		s.reads[i].Store(0)
		s.writes[i].Store(0)
		s.retries[i].Store(0)
		s.ckFails[i].Store(0)
		s.canceled[i].Store(0)
		s.exhaust[i].Store(0)
	}
}

// Snapshot returns a copy of the per-category counters, keyed by category
// name, for reporting. Categories with zero activity are omitted.
func (s *Stats) Snapshot() map[string]IOCount {
	out := make(map[string]IOCount)
	for i := 0; i < int(numCategories); i++ {
		c := IOCount{
			Reads:            s.reads[i].Load(),
			Writes:           s.writes[i].Load(),
			Retries:          s.retries[i].Load(),
			ChecksumFailures: s.ckFails[i].Load(),
			Canceled:         s.canceled[i].Load(),
			Exhausted:        s.exhaust[i].Load(),
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
	// Reads and Writes are whole-block transfers, the paper's model; the
	// bytes they moved are Reads and Writes times the block size.
	Reads  int64
	Writes int64
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
		if c.Retries > 0 {
			fmt.Fprintf(&b, " retry=%d", c.Retries)
		}
		if c.ChecksumFailures > 0 {
			fmt.Fprintf(&b, " ckfail=%d", c.ChecksumFailures)
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
