// Package nexsort is an external-memory XML sorting library: a faithful,
// production-quality implementation of "NEXSORT: Sorting XML in External
// Memory" (Silberstein & Yang, ICDE 2004).
//
// A fully sorted XML document has the children of every non-leaf element
// ordered by a user-supplied criterion. Sorting XML this way is
// fundamentally easier than sorting a flat file — the hierarchy constrains
// the legal orderings — and NEXSORT exploits that: it detects complete
// subtrees while scanning the input, sorts each one exactly once into an
// on-disk run, and stitches the run tree together with a single output
// traversal. Its I/O cost, O(N/B + (N/B)·log_{M/B}(min{kt,N}/B)), matches
// the problem's lower bound up to a constant factor and beats external
// merge sort whenever the document has real hierarchy.
//
// # Quick start
//
//	crit := &nexsort.Criterion{Rules: []nexsort.Rule{
//	    {Tag: "employee", Source: nexsort.ByAttr("ID")},
//	    {Tag: "", Source: nexsort.ByAttr("name")},
//	}}
//	result, err := nexsort.SortFile("in.xml", "sorted.xml",
//	    nexsort.DefaultConfig(), nexsort.Options{Criterion: crit})
//
// Sorted documents merge in one pass with Merge — the XML analogue of a
// sort-merge join (the paper's motivating application) — and sorted batch
// updates apply with ApplyUpdates.
//
// The library also ships the paper's baselines (key-path external merge
// sort, in-memory recursive sort), its workload generators, and an
// external-memory substrate with exact per-category I/O accounting, so
// every figure and table of the paper can be regenerated; see the
// EXPERIMENTS.md file and cmd/nexbench.
package nexsort

import (
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"nexsort/internal/core"
	"nexsort/internal/em"
	"nexsort/internal/extsort"
	"nexsort/internal/keys"
	"nexsort/internal/xmltok"
	"nexsort/internal/xmltree"
)

// Criterion is an ordering specification: rules matched by element tag
// name, each naming where the sort key comes from.
type Criterion = keys.Criterion

// Rule binds a key source to the elements it applies to; Tag "" matches
// every element.
type Rule = keys.Rule

// Source identifies where an element's sort key comes from.
type Source = keys.Source

// ByAttr orders elements by the value of the named attribute.
func ByAttr(name string) Source { return keys.ByAttr(name) }

// ByTag orders elements by their tag name.
func ByTag() Source { return keys.ByTag() }

// ByText orders elements by their first direct text child.
func ByText() Source { return keys.ByText() }

// ByPath orders elements by the first direct text of the first descendant
// reached through the given chain of child tag names, e.g.
// ByPath("personalInfo", "name", "lastName").
func ByPath(chain ...string) Source { return keys.ByPath(chain...) }

// ByAttrOrTag orders every element by the named attribute, falling back to
// document order when the attribute is absent.
func ByAttrOrTag(attr string) *Criterion { return keys.ByAttrOrTag(attr) }

// IOCount is the read/write pair reported for one I/O category, plus the
// hardening layers' retry and checksum-failure tallies.
type IOCount = em.IOCount

// RetryPolicy bounds how the spill device re-attempts transiently faulted
// block transfers; see Config.Retry.
type RetryPolicy = em.RetryPolicy

// ErrCorruptBlock is the sentinel wrapped by every checksum-verification
// failure. errors.Is(err, ErrCorruptBlock) — or IsCorrupt — identifies a
// sort that failed because the scratch device returned damaged data.
var ErrCorruptBlock = em.ErrCorruptBlock

// IsCorrupt reports whether err means a spill block failed checksum
// verification (bit rot or a torn write on the scratch device).
func IsCorrupt(err error) bool { return em.IsCorrupt(err) }

// IsTransient reports whether err is a transient device fault: the kind of
// error that a Config.Retry policy re-attempts, surfaced only once the
// retry budget is exhausted.
func IsTransient(err error) bool { return em.IsTransient(err) }

// ErrScratchExhausted is the sentinel wrapped by every scratch-space
// failure: the scratch device hit Config.ScratchQuotaBlocks, or the
// filesystem underneath returned ENOSPC. errors.Is(err,
// ErrScratchExhausted) — or IsExhausted — identifies a sort that failed
// for want of spill space rather than because of bad input or a device
// fault.
var ErrScratchExhausted = em.ErrScratchExhausted

// IsExhausted reports whether err means the sort ran out of scratch space
// (quota or real ENOSPC). Exhaustion is permanent for the run: retrying in
// place cannot help, but re-running with a larger quota, more memory, or a
// roomier scratch volume can.
func IsExhausted(err error) bool { return em.IsExhausted(err) }

// Algorithm selects the sorting algorithm.
type Algorithm int

// Algorithms.
const (
	// NEXSORT is the paper's contribution and the default.
	NEXSORT Algorithm = iota
	// MergeSort is the competitor: key-path external merge sort.
	MergeSort
	// InMemory is the internal-memory recursive sort — simple and fast
	// when the document fits in RAM, the baseline NEXSORT generalizes.
	InMemory
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case NEXSORT:
		return "nexsort"
	case MergeSort:
		return "mergesort"
	case InMemory:
		return "inmemory"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Config sets the external-memory environment: the block size B and the
// main-memory budget M of the standard I/O model.
type Config struct {
	// BlockSize is the disk block size in bytes. The paper's testbed uses
	// 64 KiB. Defaults to DefaultBlockSize when zero.
	BlockSize int
	// MemoryBytes is the main memory available to the sort, in bytes
	// (rounded down to whole blocks). The paper's experiments sweep 3-32
	// MB. Defaults to DefaultMemoryBytes when zero.
	MemoryBytes int64
	// ScratchDir hosts the spill device file. Empty selects the system
	// temp directory; set InMemory to avoid disk entirely.
	ScratchDir string
	// InMemory backs the spill device with memory (tests, small inputs).
	InMemory bool
	// VerifyChecksums stores a CRC-32C trailer with every spill block and
	// verifies it on read: torn writes and bit rot on the scratch device
	// surface as typed errors (IsCorrupt) instead of silently corrupted
	// output. Costs 8 bytes of scratch per block and one CRC pass per
	// transfer; the counted block transfers are unchanged.
	VerifyChecksums bool
	// Retry re-attempts spill transfers that fail with a transient device
	// error (IsTransient) under bounded exponential backoff, optionally
	// re-reading blocks that failed checksum verification. The zero
	// policy disables retrying. Re-attempts are tallied per category in
	// the Result's I/O breakdown.
	Retry RetryPolicy
	// Parallelism bounds the goroutines a NEXSORT sort may use: the
	// scanning goroutine plus Parallelism-1 pooled workers that sort and
	// spill independent sibling subtrees in the background, admitted only
	// when the memory budget has room for their working sets. Merge sort
	// runs on one goroutine. 0 defaults to GOMAXPROCS; 1 forces sequential
	// execution. The output and the per-category block-transfer counts are
	// identical at every setting — parallelism buys wall-clock time only.
	Parallelism int
	// ScratchQuotaBlocks caps the scratch device at this many blocks.
	// Writes past the quota fail with ErrScratchExhausted (IsExhausted);
	// as the device approaches the cap the sorters degrade gracefully
	// first — the merge-sort baseline streams its final merge instead of
	// materializing one more run. Default 0 (unlimited), the paper's
	// model.
	ScratchQuotaBlocks int64
}

// Defaults for Config.
const (
	DefaultBlockSize   = 64 << 10
	DefaultMemoryBytes = 8 << 20
)

// DefaultConfig returns the paper-like default environment: 64 KiB blocks,
// 8 MiB of sort memory, scratch in the system temp directory.
func DefaultConfig() Config { return Config{} }

func (c Config) normalize() (em.Config, error) {
	bs := c.BlockSize
	if bs == 0 {
		bs = DefaultBlockSize
	}
	memBytes := c.MemoryBytes
	if memBytes == 0 {
		memBytes = DefaultMemoryBytes
	}
	blocks := int(memBytes / int64(bs))
	dir := c.ScratchDir
	if dir == "" && !c.InMemory {
		dir = os.TempDir()
	}
	cfg := em.Config{
		BlockSize:          bs,
		MemBlocks:          blocks,
		ScratchDir:         dir,
		InMemory:           c.InMemory,
		VerifyChecksums:    c.VerifyChecksums,
		Retry:              c.Retry,
		Parallelism:        c.Parallelism,
		ScratchQuotaBlocks: c.ScratchQuotaBlocks,
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// Options configures a sort.
type Options struct {
	// Criterion is the ordering specification; nil preserves document
	// order (useful only for testing the machinery).
	Criterion *Criterion
	// Algorithm selects NEXSORT (default), the merge-sort baseline, or
	// the in-memory recursive sort.
	Algorithm Algorithm
	// Threshold is NEXSORT's sort threshold t in bytes; 0 picks twice the
	// block size, the paper's experimentally good setting.
	Threshold int
	// DepthLimit stops recursive sorting below the given level (root =
	// level 1); 0 sorts head to toe.
	DepthLimit int
	// Compact applies the paper's Section 3.2 compaction (name
	// dictionary, end-tag elision) to the working structures.
	Compact bool
	// PaperLayout runs NEXSORT in the memory layout of the paper's
	// Section 3.1 and its evaluation: one resident data-stack block, and
	// the key-path external merge sort for any subtree larger than the
	// sort area. The default is Section 3.2's graceful degeneration into
	// external merge sort, which keeps nearly all of memory as the data
	// stack's window and cuts an open element's accumulated children into
	// incomplete sorted runs, so a flat document needs no more passes than
	// merge sort. Output bytes are the same either way; block transfers
	// are not.
	PaperLayout bool
	// RecordOrder, when non-empty, stamps each output element with an
	// attribute of this name holding its original sibling position
	// (zero-padded): sorting the result by that attribute later restores
	// the original document — the paper's order-preserving merge recipe.
	// NEXSORT algorithm only.
	RecordOrder string
	// SortChildrenOf switches the MergeSort algorithm to XSort semantics
	// (Section 2's related work): only the child lists of the named
	// elements are sorted, nothing recursively. Requires Algorithm ==
	// MergeSort — XSort "is implemented as standard external merge sort".
	SortChildrenOf []string
	// Indent pretty-prints the output with the given unit per level.
	Indent string
}

// Result reports a completed sort.
type Result struct {
	// Algorithm is the algorithm that ran.
	Algorithm Algorithm
	// Elements is N, the number of elements in the input.
	Elements int64
	// InputBytes and OutputBytes are document sizes.
	InputBytes  int64
	OutputBytes int64
	// IOs is the per-category breakdown of block transfers.
	IOs map[string]IOCount
	// TotalIOs is the sum over IOs — the paper's primary metric.
	TotalIOs int64
	// SimulatedSeconds converts TotalIOs through a 2003-era disk cost
	// model, for comparing curve shapes with the paper's figures.
	SimulatedSeconds float64
	// WallSeconds is the measured wall-clock time.
	WallSeconds float64

	// NEXSORT holds algorithm-specific detail when Algorithm == NEXSORT.
	NEXSORT *core.Report
	// MergeSort holds detail when Algorithm == MergeSort.
	MergeSort *extsort.XMLReport
}

// SortContext is Sort bounded by ctx: cancellation or a passed deadline is
// observed within a bounded number of block operations — the environment's
// device refuses further transfers, retry backoffs wake immediately, and
// the input/output streams are guarded — and
// the sort unwinds through its usual typed-error paths, releasing every
// frame and all scratch state. The returned error satisfies errors.Is
// against context.Canceled / context.DeadlineExceeded; nothing of the
// partial output should be used.
func SortContext(ctx context.Context, in io.Reader, out io.Writer, cfg Config, opts Options) (*Result, error) {
	emCfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	env, err := em.NewEnvContext(ctx, emCfg)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	res, err := sortInEnv(env, &ctxReader{ctx: ctx, r: in}, &ctxWriter{ctx: ctx, w: out}, opts)
	if err != nil {
		// Prefer the context's own error over the wrapped transport error:
		// if the context is over, that is the reason the sort stopped,
		// whatever layer happened to notice first.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	return res, nil
}

// ctxReader fails reads once the context is cancelled. The sorters read
// the input in a tight streaming loop, so cancellation takes effect within
// one buffered block.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// ctxWriter fails writes once the context is cancelled, covering the
// output phase after the input has been fully consumed.
type ctxWriter struct {
	ctx context.Context
	w   io.Writer
}

func (c *ctxWriter) Write(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.w.Write(p)
}

// Sort sorts the XML document read from in and writes the sorted document
// to out.
func Sort(in io.Reader, out io.Writer, cfg Config, opts Options) (*Result, error) {
	emCfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	env, err := em.NewEnv(emCfg)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	return sortInEnv(env, in, out, opts)
}

// sortInEnv runs a sort inside an existing environment; the benchmark
// harness uses it to keep full control of the accounting.
func sortInEnv(env *em.Env, in io.Reader, out io.Writer, opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{Algorithm: opts.Algorithm}
	if len(opts.SortChildrenOf) > 0 && opts.Algorithm != MergeSort {
		return nil, fmt.Errorf("nexsort: SortChildrenOf (XSort semantics) requires Algorithm == MergeSort")
	}
	if opts.RecordOrder != "" && opts.Algorithm != NEXSORT {
		return nil, fmt.Errorf("nexsort: RecordOrder requires Algorithm == NEXSORT")
	}
	switch opts.Algorithm {
	case NEXSORT:
		rep, err := core.Sort(env, in, out, core.Options{
			Criterion:   opts.Criterion,
			Threshold:   opts.Threshold,
			DepthLimit:  opts.DepthLimit,
			Compact:     opts.Compact,
			PaperLayout: opts.PaperLayout,
			RecordOrder: opts.RecordOrder,
			Indent:      opts.Indent,
		})
		if err != nil {
			return nil, err
		}
		res.NEXSORT = rep
		res.Elements = rep.Elements
		res.InputBytes = rep.InputBytes
		res.OutputBytes = rep.OutputBytes

	case MergeSort:
		crit := opts.Criterion
		if crit == nil {
			crit = &Criterion{}
		}
		rep, err := extsort.SortXML(env, crit, in, out, extsort.XMLOptions{
			DepthLimit:     opts.DepthLimit,
			Compact:        opts.Compact,
			Indent:         opts.Indent,
			SortChildrenOf: opts.SortChildrenOf,
		})
		if err != nil {
			return nil, err
		}
		res.MergeSort = rep
		res.Elements = rep.Elements
		res.InputBytes = rep.InputBytes
		res.OutputBytes = rep.OutputBytes

	case InMemory:
		rep, err := sortInMemory(env, in, out, opts)
		if err != nil {
			return nil, err
		}
		res.Elements = rep.elements
		res.InputBytes = rep.inputBytes
		res.OutputBytes = rep.outputBytes

	default:
		return nil, fmt.Errorf("nexsort: unknown algorithm %v", opts.Algorithm)
	}
	res.WallSeconds = time.Since(start).Seconds()
	res.IOs = env.Stats.Snapshot()
	res.TotalIOs = env.Stats.TotalIOs()
	res.SimulatedSeconds = em.DefaultCostModel().Seconds(res.TotalIOs, env.Conf.BlockSize)
	return res, nil
}

// SortFile is Sort over file paths. Paths ending in ".gz" are read and
// written gzip-compressed transparently (XML interchange files commonly
// ship compressed); the I/O accounting measures the uncompressed stream,
// matching the model's element counts. If the sort fails after the output
// file was created, the partial output is removed: a path either holds a
// complete sorted document or does not exist.
func SortFile(inPath, outPath string, cfg Config, opts Options) (*Result, error) {
	return sortFile(inPath, outPath, func(in io.Reader, out io.Writer) (*Result, error) {
		return Sort(in, out, cfg, opts)
	})
}

// SortFileContext is SortFile bounded by ctx, with SortContext's
// cancellation semantics. The no-partial-output guarantee holds on the
// cancellation path too: a canceled sort removes whatever it had written
// to outPath before returning the context's error.
func SortFileContext(ctx context.Context, inPath, outPath string, cfg Config, opts Options) (*Result, error) {
	return sortFile(inPath, outPath, func(in io.Reader, out io.Writer) (*Result, error) {
		return SortContext(ctx, in, out, cfg, opts)
	})
}

// sortFile handles the path plumbing shared by SortFile and
// SortFileContext: open (ungzip) the input, create the output, run the
// sort, and remove the output on any failure — including cancellation.
func sortFile(inPath, outPath string, run func(io.Reader, io.Writer) (*Result, error)) (*Result, error) {
	in, err := os.Open(inPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	var reader io.Reader = in
	if strings.HasSuffix(inPath, ".gz") {
		gz, err := gzip.NewReader(in)
		if err != nil {
			return nil, fmt.Errorf("nexsort: %s: %w", inPath, err)
		}
		defer gz.Close()
		reader = gz
	}

	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	var writer io.Writer = out
	var gzw *gzip.Writer
	if strings.HasSuffix(outPath, ".gz") {
		gzw = gzip.NewWriter(out)
		writer = gzw
	}

	res, err := run(reader, writer)
	if gzw != nil {
		if closeErr := gzw.Close(); err == nil {
			err = closeErr
		}
	}
	if closeErr := out.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		os.Remove(outPath)
		return nil, err
	}
	return res, nil
}

// inMemoryReport carries the in-memory sorter's counters.
type inMemoryReport struct {
	elements    int64
	inputBytes  int64
	outputBytes int64
}

// sortInMemory is the internal-memory recursive sort of the paper's
// Section 1: read everything, sort the tree, write it out. I/O is charged
// for the streaming read and write; the tree itself is deliberately
// unbudgeted — the whole point of this baseline is that it assumes the
// document fits in memory.
func sortInMemory(env *em.Env, in io.Reader, out io.Writer, opts Options) (*inMemoryReport, error) {
	cr := em.NewCountingReader(in, env.Dev, em.CatInput)
	defer cr.Close()
	tree, err := xmltree.Parse(cr)
	if err != nil {
		return nil, err
	}
	cr.Finish()
	crit := opts.Criterion
	if crit == nil {
		crit = &Criterion{}
	}
	tree.ComputeKeys(crit)
	tree.SortToDepth(opts.DepthLimit)

	cw := em.NewCountingWriter(out, env.Dev, em.CatOutput)
	defer cw.Close()
	var xw *xmltok.Writer
	if opts.Indent != "" {
		xw = xmltok.NewIndentWriter(cw, opts.Indent)
	} else {
		xw = xmltok.NewWriter(cw)
	}
	if err := tree.WriteXML(xw); err != nil {
		return nil, err
	}
	if err := xw.Close(); err != nil {
		return nil, err
	}
	if err := cw.Flush(); err != nil {
		return nil, err
	}
	return &inMemoryReport{
		elements:    int64(tree.CountElements()),
		inputBytes:  cr.BytesRead(),
		outputBytes: cw.BytesWritten(),
	}, nil
}
