package bench

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"time"

	"nexsort/internal/em"
	"nexsort/internal/extsort"
	"nexsort/internal/sortkey"
)

// PMergeConfig parameterizes the range-partitioned merge experiment: the
// sorter kernel driven straight at its merge phase on the file backend,
// sweeping the final-merge partition count under simulated device latency.
type PMergeConfig struct {
	Scale Scale
	// ScratchDir hosts the spill device file. The experiment measures
	// overlap against a real device seam, so the directory is required.
	ScratchDir string
	Seed       int64
	// MemBlocks fixes the sorter's working set (default 256 blocks: at the
	// default block size that forms enough runs to merge-bind the final
	// pass while leaving admission headroom for eight partition workers).
	MemBlocks int
	// BlockSize is the device block size (default 4096: small blocks make
	// the merge transfer-bound, which is the regime the partitioned merge
	// exists for).
	BlockSize int
	// Latency is the simulated per-operation device service time, layered
	// beneath the hardening stack with em.LatencyBackend (default 300µs).
	// Zero keeps the raw file backend.
	Latency time.Duration
}

// PMergeRow is one measured partition count. Parallel=0 is the serial
// loser-tree baseline; Speedup compares merge-phase wall clock against it.
// Output bytes and the logical ledger are hard-checked, not reported: every
// partition count must produce the serial merge's bytes and count exactly
// its logical block transfers.
type PMergeRow struct {
	// Parallel is the MergeParallel setting (0 = serial baseline).
	Parallel int
	Records  int64
	Runs     int

	TotalIOs          int64
	PartitionedMerges int64
	SplitterSamples   int64
	// MergeSeconds is the final-merge phase's wall clock alone: run
	// formation is flushed and fenced before the clock starts.
	MergeSeconds float64
	// Speedup is the serial merge wall clock over this row's (1.0 for the
	// baseline itself; higher is better).
	Speedup float64
}

// pmergeParallel is the swept partition-count ladder.
var pmergeParallel = []int{0, 1, 2, 4, 8}

// pmergeRecord deterministically generates record i of n: a random-ish
// 16-hex-digit key under a shared prefix (so front-coding and fence keys
// both see realistic structure) plus padding that varies the record length.
func pmergeRecord(rng *rand.Rand, i int64) []byte {
	return []byte(fmt.Sprintf("employee\x00%016x\x00pad-%0*d", rng.Uint64(), 20+i%40, i))
}

// PMerge measures the range-partitioned final merge (DESIGN.md §17): the
// same record workload run-formed identically at every partition count,
// with the clock started only when the merge begins. Two properties are
// enforced rather than reported: the merged record stream must hash
// identically at every partition count (serial baseline included), and the
// logical per-category ledger must be identical across partition counts —
// with the serial baseline differing only by the fence-index side stream.
func PMerge(cfg PMergeConfig) ([]PMergeRow, error) {
	if cfg.ScratchDir == "" {
		return nil, fmt.Errorf("bench: the pmerge experiment measures the file backend and needs a scratch directory")
	}
	mem := cfg.MemBlocks
	if mem == 0 {
		mem = 256
	}
	bs := cfg.BlockSize
	if bs == 0 {
		bs = 4096
	}
	latency := cfg.Latency
	if latency == 0 {
		latency = 300 * time.Microsecond
	}
	n := cfg.Scale.n(300000)

	var rows []PMergeRow
	var baseWall float64
	var baseHash uint64
	var baseBytes int64
	var serialLedger, partLedger map[string]logicalIO
	for _, p := range pmergeParallel {
		emCfg := em.Config{
			BlockSize:  bs,
			MemBlocks:  mem,
			ScratchDir: cfg.ScratchDir,
			// The pool holds Parallelism-1 worker slots; one more than the
			// widest partition ladder keeps admission out of the picture —
			// this experiment sweeps the partition count, not the pool. The
			// device is latency-bound, so the workers overlap sleeps even on
			// a single CPU.
			Parallelism:   len(pmergeParallel) + pmergeParallel[len(pmergeParallel)-1],
			MergeParallel: p,
		}
		if latency > 0 {
			emCfg.WrapBackend = func(b em.Backend) em.Backend {
				return em.NewLatencyBackend(b, latency, latency)
			}
		}
		env, err := em.NewEnv(emCfg)
		if err != nil {
			return nil, err
		}
		row, err := pmergeOnce(env, n, cfg.Seed, p)
		env.Close()
		if err != nil {
			return nil, err
		}

		if p == 0 {
			baseWall, baseHash, baseBytes = row.wall, row.hash, row.bytes
			serialLedger = row.ledger
			row.row.Speedup = 1
		} else {
			if row.hash != baseHash || row.bytes != baseBytes {
				return nil, fmt.Errorf("bench: MergeParallel=%d changed the output (%d bytes hash %x, serial %d bytes hash %x)",
					p, row.bytes, row.hash, baseBytes, baseHash)
			}
			// Partitioned rows must match each other exactly, and match the
			// serial baseline on everything but the fence side stream.
			if partLedger == nil {
				partLedger = row.ledger
			} else if err := sameLedger(partLedger, row.ledger); err != nil {
				return nil, fmt.Errorf("bench: MergeParallel=%d moved the logical ledger: %w", p, err)
			}
			noFence := make(map[string]logicalIO, len(row.ledger))
			for cat, c := range row.ledger {
				if cat != em.CatFenceIndex.String() {
					noFence[cat] = c
				}
			}
			if err := sameLedger(serialLedger, noFence); err != nil {
				return nil, fmt.Errorf("bench: MergeParallel=%d moved the non-fence ledger vs serial: %w", p, err)
			}
			if row.wall > 0 {
				row.row.Speedup = baseWall / row.wall
			}
		}
		rows = append(rows, row.row)
	}
	return rows, nil
}

// pmergeOutcome carries one run's row plus the hard-check inputs.
type pmergeOutcome struct {
	row    PMergeRow
	wall   float64
	hash   uint64
	bytes  int64
	ledger map[string]logicalIO
}

// pmergeOnce forms runs, then times Sort() — the merge phase — and drains
// the iterator through a hash.
func pmergeOnce(env *em.Env, n, seed int64, p int) (*pmergeOutcome, error) {
	s, err := extsort.NewKernel(env, em.CatMergeRun, sortkey.KeySeq(), env.Budget.Free())
	if err != nil {
		return nil, err
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(seed + 977))
	for i := int64(0); i < n; i++ {
		if err := s.Add(pmergeRecord(rng, i)); err != nil {
			return nil, err
		}
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	runs := s.Runs()

	start := time.Now()
	it, err := s.Sort()
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	defer it.Close()

	h := fnv.New64a()
	var outBytes int64
	for {
		rec, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		h.Write(rec)
		outBytes += int64(len(rec))
	}

	snap := env.Stats.Snapshot()
	var total int64
	for _, c := range snap {
		total += c.Reads + c.Writes
	}
	return &pmergeOutcome{
		row: PMergeRow{
			Parallel:          p,
			Records:           n,
			Runs:              runs,
			TotalIOs:          total,
			PartitionedMerges: env.Stats.TotalPartitionedMerges(),
			SplitterSamples:   env.Stats.TotalSplitterSamples(),
			MergeSeconds:      wall,
		},
		wall:   wall,
		hash:   h.Sum64(),
		bytes:  outBytes,
		ledger: logicalLedger(snap),
	}, nil
}

// PMergeTable renders the partitioned-merge experiment.
func PMergeTable(rows []PMergeRow) *Table {
	t := &Table{
		Title:  "Range-partitioned merge — merge-phase wall clock vs partition count on the file backend, simulated device latency (not a paper figure)",
		Header: []string{"merge-parallel", "records", "runs", "total I/Os", "pmerges", "samples", "merge wall(s)", "speedup"},
	}
	for _, r := range rows {
		name := fmt.Sprintf("%d", r.Parallel)
		if r.Parallel == 0 {
			name = "serial"
		}
		t.Rows = append(t.Rows, []string{
			name, d64(r.Records), fmt.Sprintf("%d", r.Runs),
			d64(r.TotalIOs), d64(r.PartitionedMerges), d64(r.SplitterSamples),
			f3(r.MergeSeconds), fmt.Sprintf("%.2fx", r.Speedup),
		})
	}
	return t
}

// logicalIO is the logical projection of one category's ledger: the
// counted block transfers and their bytes, exactly the fields the paper's
// accounting is made of. Physical counters are deliberately absent.
type logicalIO struct {
	Reads, Writes         int64
	ReadBytes, WriteBytes int64
}

// logicalLedger projects the per-category I/O map onto its logical fields.
func logicalLedger(ios map[string]em.IOCount) map[string]logicalIO {
	out := make(map[string]logicalIO, len(ios))
	for cat, c := range ios {
		out[cat] = logicalIO{
			Reads: c.Reads, Writes: c.Writes,
			ReadBytes: c.ReadBytes, WriteBytes: c.WriteBytes,
		}
	}
	return out
}

// sameLedger reports the first category whose logical ledger differs from
// the reference run's.
func sameLedger(want, got map[string]logicalIO) error {
	for cat, w := range want {
		if g := got[cat]; g != w {
			return fmt.Errorf("category %s: %+v in the reference run, %+v here", cat, w, g)
		}
	}
	for cat := range got {
		if _, ok := want[cat]; !ok && got[cat] != (logicalIO{}) {
			return fmt.Errorf("category %s: absent in the reference run, %+v here", cat, got[cat])
		}
	}
	return nil
}
