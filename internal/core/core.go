// Package core implements NEXSORT — Nested data and XML Sorting — the
// external-memory XML sorting algorithm of Silberstein and Yang (ICDE
// 2004), following the pseudo-code of the paper's Figure 4.
//
// The algorithm runs in two phases:
//
// Sorting phase. The input document is scanned once in its natural
// depth-first order. Every token is pushed onto an external-memory data
// stack; the start location of each open element is pushed onto an
// external-memory path stack. When an end tag arrives, the element's start
// location l is popped; if the complete subtree above l is at least the
// sort threshold t bytes (or the root has just closed), the subtree is
// popped, sorted — in memory when it fits, with depth-aware key-path
// external merge sort otherwise — and written to disk as a sorted run. The
// subtree on the data stack is replaced by a single run-pointer token
// carrying the subtree root's ordering key (the collapse of Figure 2). By
// the end of the scan the document has become a tree of sorted runs
// connected by pointers (Figure 3).
//
// Output phase. A token sink serializes the sorted document and follows
// each run pointer into its run tree depth first — made iterative with an
// external-memory output location stack, exactly as lines 13-21 of Figure
// 4 prescribe. In the paper's layout the sink walks the tree from the root
// run. In the default layout the root is never written as a run: once the
// scan has ended, it is sorted straight into the sink.
//
// The default layout is the one of Section 3.2's graceful degeneration into
// external merge sort: nearly all of the budget is the data stack's
// resident window, and when the open element's accumulated children fill
// it they are cut into an incomplete sorted run, as are its last children
// at its end tag, so a flat document needs no more passes than external
// merge sort. The merge of those runs is deferred to the output phase: the
// element becomes a pointer, and the sink runs the merge into the output
// when it reaches it. Options.PaperLayout selects the layout of Section 3.1
// that the paper evaluates instead: one resident data-stack block, no cuts,
// and a root run. The output is the same either way.
//
// The other extensions of Section 3.2 are available through Options:
// depth-limited sorting, complex (subtree-pass) ordering criteria via the
// keys package's streaming evaluators, and the compaction codecs of the
// compact package.
package core

import (
	"fmt"

	"nexsort/internal/em"
	"nexsort/internal/keys"
)

// MinMemBlocks is the smallest memory budget NEXSORT accepts, in either
// layout: two blocks for the path stack (Lemma 4.11's assumption), two for
// the ordering-expression spill stack, one for the input buffer, and the
// data stack's resident window plus reader, writer and sort area. The
// paper's layout keeps one window block and leaves at least four blocks of
// sort area so the external fallback's merge makes progress. The default
// layout gives the window all but eight blocks, so at the floor a cut
// sorts three blocks of children. An element's incomplete-run merge that
// runs at its end tag, which takes the window back, has five blocks. The
// deferred merges and the root's sort run after the scan, when the path
// stack, the spill stack and the input buffer have given their blocks to
// the output phase's three, and share eight: a deferred merge inside the
// root's sort holds at least three, and the root's merger at least one.
const MinMemBlocks = 12

// Options configures a sort.
type Options struct {
	// Criterion is the ordering specification. Nil (or an empty
	// criterion) gives every element the empty key, which — with the
	// document-position tie-break — reproduces the input order; supply
	// rules to sort meaningfully.
	Criterion *keys.Criterion
	// Threshold is t, the sort threshold in bytes: a complete subtree is
	// sorted into a run only when at least this large. Zero selects the
	// paper's experimental setting of twice the block size ("we set the
	// threshold to be roughly twice the block size, which works well for
	// most inputs").
	Threshold int
	// DepthLimit enables depth-limited sorting (Section 3.2): child
	// lists of elements at levels 1..DepthLimit are sorted, deeper
	// subtrees are treated as atomic units. 0 sorts head to toe.
	DepthLimit int
	// Compact enables the XML compaction techniques of Section 3.2 on the
	// sorter's working structures: tag and attribute names are replaced
	// by dictionary aliases and end-tag names are elided on the data
	// stack (the default layout's runs hold none either way), then
	// restored during the output phase — the setting the paper's own
	// evaluation uses for both algorithms.
	// Input and output documents are plain XML either way.
	Compact bool
	// PaperLayout selects the memory layout of Section 3.1, the one the
	// paper evaluates: one resident data-stack block, the rest of the
	// budget a sort area, the key-path external merge sort for any subtree
	// larger than that area, and a root run that the output phase starts
	// from. The default (false) is Section 3.2's graceful degeneration
	// into external merge sort: the data stack keeps all but eight blocks
	// resident, and when the open element's accumulated children fill that
	// window they are sorted into an incomplete run at once instead of
	// riding the stack to disk and back; the element's end tag cuts its
	// last children the same way, and the output phase merges its
	// incomplete runs straight into the output. The root is sorted
	// straight into the output phase once the scan has ended.
	// Output bytes are identical in both layouts; the I/O ledger is not.
	PaperLayout bool
	// RecordOrder, when non-empty, stamps every element with an attribute
	// of this name holding its original position among its siblings
	// (zero-padded, so lexicographic order is numeric order). This is the
	// paper's device for order-preserving applications: "recording an
	// additional sequence number attribute for each child element and
	// performing a final sort according to this sequence number" restores
	// the original element order exactly. Text nodes cannot carry
	// attributes (a limit the paper's recipe shares): restoring moves a
	// parent's text children ahead of its element children, preserving
	// order within each group.
	RecordOrder string
	// Indent pretty-prints the output with the given unit; empty writes
	// compact XML.
	Indent string
}

// Report describes a completed sort.
type Report struct {
	// Elements is N, the number of elements in the input.
	Elements int64
	// TextNodes is the number of character-data nodes.
	TextNodes int64
	// Height is the deepest element nesting observed.
	Height int
	// InputBytes and OutputBytes are the document sizes.
	InputBytes  int64
	OutputBytes int64

	// SubtreeSorts is x, the number of subtree sorts performed
	// (Lemma 4.7 bounds it by O(N/t)).
	SubtreeSorts int
	// InternalSorts counts subtree sorts served by the in-memory
	// recursive sorter; ExternalSorts counts key-path merge-sort
	// fallbacks (Line 11's two options).
	InternalSorts int
	ExternalSorts int
	// UnsortedRuns counts subtrees written to disk without sorting
	// (depth-limited mode, subtrees rooted exactly at level d+1).
	UnsortedRuns int
	// IncompleteRuns counts incomplete sorted runs cut by graceful
	// degeneration, including the cut of an element's last children at
	// its end tag.
	IncompleteRuns int
	// MergedSubtrees counts subtree sorts that merged incomplete runs,
	// those deferred to the output phase included.
	MergedSubtrees int

	// MaxSubtreeBytes is the largest subtree handed to a single sort; the
	// analysis bounds it by min(kt, N) elements.
	MaxSubtreeBytes int64
	// RunBlocks is the total number of device blocks occupied by sorted
	// runs (Lemma 4.8 bounds it by O(N/B)). The default layout writes no
	// root run, so a document whose only sort is the root's has none, and
	// an element whose merge is deferred has a run of its two tags only.
	RunBlocks int
	// ScratchBlocks is the total scratch-device footprint (runs plus
	// paged-out stack blocks) — the disk space a capacity planner must
	// provision beyond input and output.
	ScratchBlocks int64
	// Threshold is the effective t used.
	Threshold int

	// IOs is the per-category I/O breakdown at completion.
	IOs map[string]em.IOCount
}

// validate checks options against the environment.
func (o *Options) validate(env *em.Env) (keysCrit *keys.Criterion, threshold int, err error) {
	if env.Budget.Total() < MinMemBlocks {
		return nil, 0, fmt.Errorf("core: memory budget %d blocks below NEXSORT's minimum %d",
			env.Budget.Total(), MinMemBlocks)
	}
	crit := o.Criterion
	if crit == nil {
		crit = &keys.Criterion{}
	}
	if crit.StateSize() > env.Conf.BlockSize {
		return nil, 0, fmt.Errorf("core: criterion state (%d bytes, KeyCap-driven) exceeds the %d-byte block size; lower Criterion.KeyCap",
			crit.StateSize(), env.Conf.BlockSize)
	}
	t := o.Threshold
	if t == 0 {
		t = 2 * env.Conf.BlockSize
	}
	if t < 1 {
		return nil, 0, fmt.Errorf("core: sort threshold %d out of range", t)
	}
	if o.DepthLimit < 0 {
		return nil, 0, fmt.Errorf("core: depth limit %d out of range", o.DepthLimit)
	}
	return crit, t, nil
}
