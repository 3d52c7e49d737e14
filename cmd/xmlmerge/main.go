// Command xmlmerge performs structural merge of two XML documents — the
// sort-merge join of the paper's Example 1.1.
//
//	xmlmerge -by 'region=@name,branch=@name,employee=@ID' \
//	    -left personnel.xml -right payroll.xml -out merged.xml
//
// By default the inputs are sorted first (with NEXSORT, into temporary
// files) and then merged in one pass. Pass -presorted when both inputs are
// already sorted by the same criterion to skip straight to the single-pass
// merge. -update switches to batch-update semantics: the right document's
// attribute values win on matched elements.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nexsort"
	"nexsort/internal/ioguard"
)

func main() {
	var (
		leftPath  = flag.String("left", "", "left (base) document (required)")
		rightPath = flag.String("right", "", "right (update) document (required)")
		outPath   = flag.String("out", "", "output file (default stdout)")
		by        = flag.String("by", "", "matching criterion, e.g. 'employee=@ID' (required)")
		presorted = flag.Bool("presorted", false, "inputs are already sorted; merge directly")
		update    = flag.Bool("update", false, "batch-update semantics: right side wins attribute conflicts")
		indent    = flag.String("indent", "", "pretty-print output with this unit")
		blockSize = flag.Int("block", nexsort.DefaultBlockSize, "block size for the sorting step")
		memBytes  = flag.Int64("mem", nexsort.DefaultMemoryBytes, "memory budget for the sorting step")
		scratch   = flag.String("scratch", "", "scratch directory (default system temp)")
		stats     = flag.Bool("stats", false, "print merge statistics to stderr")
	)
	flag.Parse()

	if *leftPath == "" || *rightPath == "" || *by == "" {
		fmt.Fprintln(os.Stderr, "xmlmerge: -left, -right and -by are required")
		flag.Usage()
		os.Exit(2)
	}
	crit, err := nexsort.ParseCriterion(*by)
	if err != nil {
		fatal(err)
	}

	left, err := os.Open(*leftPath)
	if err != nil {
		fatal(err)
	}
	defer left.Close()
	right, err := os.Open(*rightPath)
	if err != nil {
		fatal(err)
	}
	defer right.Close()

	var out io.Writer = os.Stdout
	if *outPath != "" {
		if err := ioguard.CheckOutput(*outPath, left, right); err != nil {
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

	opts := nexsort.MergeOptions{PreferRight: *update, Indent: *indent}
	var rep *nexsort.MergeReport
	if *presorted {
		rep, err = nexsort.Merge(left, right, crit, out, opts)
	} else {
		cfg := nexsort.Config{BlockSize: *blockSize, MemoryBytes: *memBytes, ScratchDir: *scratch}
		_, _, rep, err = nexsort.SortAndMerge(left, right, crit, out, cfg, opts)
	}
	if err != nil {
		if *outPath != "" {
			os.Remove(*outPath) // no partial results, as MergeFiles
		}
		fatal(err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "xmlmerge: %d + %d elements in, %d matched pairs, %d elements out\n",
			rep.ElementsLeft, rep.ElementsRight, rep.Matched, rep.OutputElements)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmlmerge:", err)
	os.Exit(1)
}
