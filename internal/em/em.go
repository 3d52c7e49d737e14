// Package em implements the external-memory substrate that every algorithm
// in this repository runs on. It plays the role that TPIE (the Transparent
// Parallel I/O Environment) plays in the NEXSORT paper: a block-granular
// storage layer with explicit, per-category accounting of every I/O, plus an
// enforced main-memory budget expressed in blocks.
//
// The substrate has four pieces:
//
//   - Device: block-addressed storage backed by a real file (or by memory in
//     tests), through which all reads and writes flow. Each block transfer
//     increments a counter in Stats under a Category chosen by the caller, so
//     the cost breakdown of Section 4.2 of the paper (input, subtree sorts,
//     data-stack paging, path-stack paging, run reads, output-location-stack
//     paging, output) is directly measurable.
//
//   - Budget: a main-memory allocator measured in blocks. Components Grant
//     blocks before buffering data in memory and Release them afterwards;
//     exceeding the budget is an error, so the "M blocks of internal memory"
//     parameter of the I/O model is enforced rather than advisory.
//
//   - Stream: an append-only sequence of blocks on a Device with sequential
//     and positional readers. Sorted runs and the key-path baseline's
//     intermediate runs are Streams.
//
//   - CountingReader / CountingWriter: wrappers that charge block-granular
//     I/O for data that lives outside the Device (the original input XML
//     file and the final output document), so end-to-end I/O counts include
//     the scan of the input and the write of the output.
//
// All counters use the standard external-memory model notation: N elements,
// B elements per block, M blocks of main memory, and I/O cost measured in
// block transfers.
package em

import (
	"errors"
	"fmt"
)

// Category labels the purpose of an I/O so that Stats can reproduce the
// cost breakdown used in the paper's analysis (Lemmas 4.9-4.13).
type Category int

// I/O categories. They correspond one-to-one to the cost components listed
// in Section 4.2 of the paper, plus categories for the baseline sorter.
const (
	// CatInput is the initial scan of the input XML document.
	CatInput Category = iota
	// CatSubtreeSort covers I/Os performed while sorting individual
	// subtrees, including writing their sorted runs (Lemma 4.9).
	CatSubtreeSort
	// CatDataStack is paging of the data stack (Lemma 4.10).
	CatDataStack
	// CatPathStack is paging of the path stack (Lemma 4.11).
	CatPathStack
	// CatRunRead is reading blocks of sorted runs during the output phase
	// (Lemma 4.12).
	CatRunRead
	// CatOutputStack is paging of the output location stack (Lemma 4.13).
	CatOutputStack
	// CatOutput is writing the final sorted document.
	CatOutput
	// CatMergeRun covers run formation and merge passes of the external
	// merge sort baseline.
	CatMergeRun
	// CatScratch is miscellaneous scratch I/O not attributed elsewhere.
	CatScratch

	numCategories
)

// String returns a short human-readable name for the category.
func (c Category) String() string {
	switch c {
	case CatInput:
		return "input"
	case CatSubtreeSort:
		return "subtree-sort"
	case CatDataStack:
		return "data-stack"
	case CatPathStack:
		return "path-stack"
	case CatRunRead:
		return "run-read"
	case CatOutputStack:
		return "output-stack"
	case CatOutput:
		return "output"
	case CatMergeRun:
		return "merge-run"
	case CatScratch:
		return "scratch"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Categories returns every defined category in order. It is used by
// reporting code to print complete cost breakdowns.
func Categories() []Category {
	cats := make([]Category, numCategories)
	for i := range cats {
		cats[i] = Category(i)
	}
	return cats
}

// ErrBudgetExceeded is returned by Budget.Grant when a grant would push
// memory use beyond the configured number of blocks.
var ErrBudgetExceeded = errors.New("em: main-memory budget exceeded")

// ErrClosed is returned by operations on a closed Device.
var ErrClosed = errors.New("em: device closed")
