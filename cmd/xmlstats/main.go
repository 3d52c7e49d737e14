// Command xmlstats profiles an XML document in one streaming pass and
// predicts sorting costs for a given environment: the document's shape
// parameters (N, k, height, per-level fan-outs), the Section 4 analytic
// bounds evaluated for those parameters, and the exact Lemma 4.3 counting
// bound — so a user can see, before sorting anything, how much cheaper the
// hierarchy makes their document than a flat file of the same size.
//
//	xmlstats -in big.xml -block 65536 -mem 8388608
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nexsort/internal/stats"
	"nexsort/internal/theory"
)

func main() {
	var (
		inPath    = flag.String("in", "", "input XML file (default stdin)")
		blockSize = flag.Int64("block", 64<<10, "block size in bytes, for the bound predictions")
		memBytes  = flag.Int64("mem", 8<<20, "memory budget in bytes, for the bound predictions")
		levels    = flag.Bool("levels", false, "print the per-level profile")
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	d, err := stats.Scan(in)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("elements           %d\n", d.Elements)
	fmt.Printf("text nodes         %d\n", d.TextNodes)
	fmt.Printf("bytes              %d\n", d.Bytes)
	fmt.Printf("height             %d\n", d.Height)
	fmt.Printf("max fan-out (k)    %d\n", d.MaxFanout)
	fmt.Printf("avg element size   %.1f bytes\n", d.AvgElementBytes)
	if *levels {
		fmt.Println("level  elements  max fan-out")
		for _, lv := range d.Levels {
			fmt.Printf("%5d  %8d  %d\n", lv.Level, lv.Elements, lv.MaxFanout)
		}
	}

	b := int64(float64(*blockSize) / d.AvgElementBytes) // elements per block
	if b < 1 {
		b = 1
	}
	m := *memBytes / *blockSize // memory blocks
	if m < 2 {
		m = 2
	}
	n, k := d.Elements, int64(d.MaxFanout)

	fmt.Printf("\nbound predictions at B=%d bytes (%d elements/block), M=%d blocks:\n", *blockSize, b, m)
	fmt.Printf("  XML lower bound (Thm 4.4)    %.0f block I/Os\n", theory.AsymptoticLowerBound(n, b, m, k))
	fmt.Printf("  flat-file bound (A&V)        %.0f block I/Os\n", theory.FlatFileLowerBound(n, b, m))
	xmlT := theory.MinIOs(theory.MaxOutcomes(n, k), n, b, m)
	flatT := theory.MinIOs(theory.Factorial(minN(n, 200000)), minN(n, 200000), b, m)
	fmt.Printf("  exact counting bound (XML)   %d block I/Os\n", xmlT)
	if n <= 200000 {
		fmt.Printf("  exact counting bound (flat)  %d block I/Os\n", flatT)
	}
}

// minN caps the factorial's size; N! for huge N is expensive to even hold.
func minN(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xmlstats:", err)
	os.Exit(1)
}
