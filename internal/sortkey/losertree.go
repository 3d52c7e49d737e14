package sortkey

// LoserTree is a tournament tree of k leaves — Knuth's tree of losers
// (TAOCP §5.4.1) — the selection structure for k-way merging. Against the
// binary heap it replaces, it halves the comparison count: popping the
// minimum and refilling its leaf replays exactly the leaf-to-root path,
// ⌈log₂k⌉ matches, where a heap's sift-down spends two comparisons per
// level. The caller owns the leaf items and the order; the tree stores
// only int32 leaf indices in one flat array — no interface dispatch, no
// per-node pointers — and the caller's less function closes over whatever
// inline state (cached normalized-key prefixes) makes a match one memcmp.
//
// Protocol: build with NewLoserTree, then loop { w := Winner(); consume
// leaf w; advance leaf w (or mark it exhausted, ordering it after every
// live leaf); Fix() }. The tree never inspects items itself, so "advance"
// and "exhausted" are entirely the caller's notion.
//
// Invariants (checked by the tests):
//   - node[j] for internal j holds the leaf that LOST the match at j; the
//     winner continues upward, so node[0] is the overall winner.
//   - every root-to-leaf path's losers, plus the overall winner, partition
//     the leaves: each leaf appears exactly once in the structure.
//   - after Fix, node[0] is a minimum of all leaves under less.
//
// Comparisons() counts less invocations: k-1 to build, plus at most
// ⌈log₂k⌉ per Fix — the n·⌈log₂k⌉ merge bound the bench harness
// cross-checks.
type LoserTree struct {
	k int
	// node[1..k-1] hold the losers of the internal matches of an implicit
	// complete binary tree whose leaves sit at slots k..2k-1 (leaf i at
	// slot k+i); node[0] holds the overall winner.
	node []int32
	less func(a, b int32) bool
	cmps int64
}

// NewLoserTree builds the tree over leaves 0..k-1 with k-1 comparisons.
// k must be at least 1. less must be a strict weak ordering; for merge
// determinism it should totalize ties (e.g. by leaf index).
func NewLoserTree(k int, less func(a, b int32) bool) *LoserTree {
	t := &LoserTree{k: k, less: less, node: make([]int32, k)}
	if k == 1 {
		t.node[0] = 0
		return t
	}
	// Play the tournament bottom-up: winners[j] is the winner of the
	// subtree rooted at slot j; the loser stays in node[j].
	winners := make([]int32, 2*k)
	for i := 0; i < k; i++ {
		winners[k+i] = int32(i)
	}
	for j := k - 1; j >= 1; j-- {
		a, b := winners[2*j], winners[2*j+1]
		t.cmps++
		if t.less(b, a) {
			a, b = b, a
		}
		winners[j], t.node[j] = a, b
	}
	t.node[0] = winners[1]
	return t
}

// Winner returns the current minimum leaf.
func (t *LoserTree) Winner() int32 { return t.node[0] }

// Fix replays the winner's leaf-to-root path after the caller changed
// (advanced or exhausted) that leaf's item. No other leaf may have
// changed since the last Fix.
func (t *LoserTree) Fix() {
	cur := t.node[0]
	for j := (t.k + int(cur)) >> 1; j >= 1; j >>= 1 {
		t.cmps++
		if t.less(t.node[j], cur) {
			cur, t.node[j] = t.node[j], cur
		}
	}
	t.node[0] = cur
}

// Comparisons returns the number of less invocations so far.
func (t *LoserTree) Comparisons() int64 { return t.cmps }
