// Command nexsort sorts an XML document in external memory.
//
//	nexsort -by 'region=@name,branch=@name,employee=@ID' -in big.xml -out sorted.xml
//
// The ordering criterion (-by) uses the spec syntax of
// nexsort.ParseCriterion: comma-separated tag=source rules where source is
// @attr, name(), text(), or a/b/text(). The algorithm, block size, memory
// budget, sort threshold, depth limit, compaction, and the paper's
// Section 3.1 layout in place of the default graceful degeneration are all
// flags, so the tool doubles as a workbench for the paper's experiments.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"nexsort"
	"nexsort/internal/ioguard"
)

func main() {
	var (
		inPath    = flag.String("in", "", "input XML file (default stdin)")
		outPath   = flag.String("out", "", "output file (default stdout)")
		by        = flag.String("by", "", "ordering criterion, e.g. 'employee=@ID,*=name()' (required)")
		algo      = flag.String("algo", "nexsort", "algorithm: nexsort | mergesort | inmemory")
		blockSize = flag.Int("block", nexsort.DefaultBlockSize, "block size in bytes")
		memBytes  = flag.Int64("mem", nexsort.DefaultMemoryBytes, "main-memory budget in bytes")
		threshold = flag.Int("threshold", 0, "NEXSORT sort threshold t in bytes (0 = 2 blocks)")
		depth     = flag.Int("depth", 0, "depth limit (0 = sort head to toe)")
		compactF  = flag.Bool("compact", false, "enable Section 3.2 compaction")
		paperLay  = flag.Bool("paper-layout", false, "run NEXSORT in the paper's Section 3.1 layout (one resident data-stack block, no graceful degeneration), and merge sort with the paper's materialized final merge")
		xsort     = flag.String("xsort", "", "XSort mode: only sort the child lists of these comma-separated tags (mergesort algorithm only)")
		recSeq    = flag.String("record-order", "", "stamp each element with this attribute holding its original sibling position (nexsort only)")
		indent    = flag.String("indent", "", "pretty-print output with this unit")
		scratch   = flag.String("scratch", "", "scratch directory (default system temp)")
		stats     = flag.Bool("stats", false, "print the I/O accounting to stderr")
		verify    = flag.Bool("verify-checksums", false, "checksum every spill block and verify on read (detects torn writes and bit rot)")
		retries   = flag.Int("retries", 0, "re-attempt transiently faulted spill transfers up to this many times (0 disables)")
		retryBase = flag.Duration("retry-delay", 0, "backoff before the first retry, doubling per attempt")
		retryMax  = flag.Duration("retry-max-delay", 0, "cap on the retry backoff (0 = uncapped)")
		quota     = flag.Int64("scratch-quota", 0, "fail with a scratch-exhausted error once spill storage exceeds this many blocks (0 = unlimited)")
		parallel  = flag.Int("parallel", 0, "NEXSORT's worker parallelism: the default layout's in-place subtree sorts overlap with the input scan on up to this many goroutines (0 = GOMAXPROCS, 1 = sequential; -paper-layout and merge sort always run on one goroutine); output and I/O counts are identical at every setting")
	)
	flag.Parse()

	if *by == "" {
		fmt.Fprintln(os.Stderr, "nexsort: -by is required (e.g. -by '@ID')")
		flag.Usage()
		os.Exit(2)
	}
	crit, err := nexsort.ParseCriterion(*by)
	if err != nil {
		fatal(err)
	}
	var algorithm nexsort.Algorithm
	switch *algo {
	case "nexsort":
		algorithm = nexsort.NEXSORT
	case "mergesort":
		algorithm = nexsort.MergeSort
	case "inmemory":
		algorithm = nexsort.InMemory
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}

	in := os.Stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	var out io.Writer = os.Stdout
	if *outPath != "" {
		if err := ioguard.CheckOutput(*outPath, in); err != nil {
			fatal(err)
		}
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		out = f
	}

	cfg := nexsort.Config{
		BlockSize:       *blockSize,
		MemoryBytes:     *memBytes,
		ScratchDir:      *scratch,
		VerifyChecksums: *verify,
		Retry: nexsort.RetryPolicy{
			MaxRetries:        *retries,
			BaseDelay:         *retryBase,
			MaxDelay:          *retryMax,
			RetryCorruptReads: *verify && *retries > 0,
		},
		Parallelism:        *parallel,
		ScratchQuotaBlocks: *quota,
	}
	opts := nexsort.Options{
		Criterion:   crit,
		Algorithm:   algorithm,
		Threshold:   *threshold,
		DepthLimit:  *depth,
		Compact:     *compactF,
		PaperLayout: *paperLay,
		RecordOrder: *recSeq,
		Indent:      *indent,
	}
	if *xsort != "" {
		for _, tag := range strings.Split(*xsort, ",") {
			if tag = strings.TrimSpace(tag); tag != "" {
				opts.SortChildrenOf = append(opts.SortChildrenOf, tag)
			}
		}
	}
	res, err := nexsort.Sort(in, out, cfg, opts)
	if err != nil {
		if *outPath != "" {
			os.Remove(*outPath) // same contract as SortFile: no partial results
		}
		fatal(err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "algorithm=%v elements=%d in=%dB out=%dB\n",
			res.Algorithm, res.Elements, res.InputBytes, res.OutputBytes)
		fmt.Fprintf(os.Stderr, "total I/Os=%d wall=%.3fs simulated=%.2fs\n",
			res.TotalIOs, res.WallSeconds, res.SimulatedSeconds)
		cats := make([]string, 0, len(res.IOs))
		for c := range res.IOs {
			cats = append(cats, c)
		}
		sort.Strings(cats)
		for _, c := range cats {
			n := res.IOs[c]
			line := fmt.Sprintf("  %-14s reads=%-8d writes=%d", c, n.Reads, n.Writes)
			if n.Retries > 0 {
				line += fmt.Sprintf(" retries=%d", n.Retries)
			}
			if n.ChecksumFailures > 0 {
				line += fmt.Sprintf(" checksum-failures=%d", n.ChecksumFailures)
			}
			fmt.Fprintln(os.Stderr, line)
		}
		if res.NEXSORT != nil {
			r := res.NEXSORT
			fmt.Fprintf(os.Stderr, "subtree sorts=%d (internal=%d external=%d merged=%d incomplete-runs=%d unsorted=%d) run blocks=%d scratch blocks=%d threshold=%dB\n",
				r.SubtreeSorts, r.InternalSorts, r.ExternalSorts, r.MergedSubtrees, r.IncompleteRuns, r.UnsortedRuns, r.RunBlocks, r.ScratchBlocks, r.Threshold)
		}
		if res.MergeSort != nil {
			r := res.MergeSort
			fmt.Fprintf(os.Stderr, "key-path records=%d (%dB, input %dB) initial runs=%d merge passes=%d\n",
				r.Records, r.RecordBytes, r.InputBytes, r.InitialRuns, r.MergePasses)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nexsort:", err)
	os.Exit(1)
}
