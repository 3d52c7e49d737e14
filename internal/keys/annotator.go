package keys

import (
	"fmt"

	"nexsort/internal/xmltok"
)

// SpillStack is the external-memory stack the Annotator spills matcher
// states to when the document is deeper than its in-memory window. It is
// satisfied by *xstack.RecordStack; records have Criterion.StateSize bytes.
type SpillStack interface {
	Push(rec []byte) error
	Pop(dst []byte) error
	Len() int64
}

// Annotator turns a raw token stream into an annotated one: start tags gain
// the element's key when it is resolvable from the tag alone, and every end
// tag gains the element's final key. Downstream sorters consume keys from
// the annotated tokens and never re-evaluate ordering expressions — the
// paper's "result can be pushed onto the data stack with the end tag and
// used for sorting".
//
// The annotator works on encoded tokens: it reads names, attributes and
// text from the parser's views, and re-keys a tag by appending its bytes
// with the key (Encoded.Rekey). Each matcher copies its key into a buffer
// the annotator recycles, so annotation allocates nothing per token once
// the buffers exist.
//
// The annotator holds matchers for the innermost W open elements in memory,
// where W ≥ MaxPathDepth()+1 — by construction, no token can affect a
// matcher further than MaxPathDepth()+1 levels above it, so matchers below
// the window are frozen. When the document nests deeper than W, frozen
// matchers spill to the provided external stack (pass nil to keep
// everything in memory, appropriate for the merge-sort baseline whose
// key-path buffer is in memory anyway).
type Annotator struct {
	c      *Criterion
	window []Matcher // innermost element's matcher last
	wcap   int
	depth  int // total open elements (window + spilled)
	spill  SpillStack
	buf    []byte   // scratch record for spill transfers
	keys   [][]byte // key buffers of matchers that are gone, for reuse
	enc    []byte   // the re-keyed token
	view   xmltok.Encoded
}

// minAnnotatorWindow keeps spill traffic negligible for shallow criteria.
const minAnnotatorWindow = 8

// NewAnnotator creates an annotator for criterion c. spill may be nil.
func NewAnnotator(c *Criterion, spill SpillStack) *Annotator {
	w := c.MaxPathDepth() + 1
	if w < minAnnotatorWindow {
		w = minAnnotatorWindow
	}
	return &Annotator{c: c, wcap: w, spill: spill, buf: make([]byte, c.StateSize())}
}

// Depth returns the number of currently open elements.
func (a *Annotator) Depth() int { return a.depth }

// Annotate processes one token and returns it annotated: a tag whose key is
// known is returned re-keyed, in a view of the annotator's that is valid
// until the next call; any other token is returned as it is. Tokens must
// form a well-formed stream (the parser guarantees this).
func (a *Annotator) Annotate(tok *xmltok.Encoded) (*xmltok.Encoded, error) {
	switch tok.Kind() {
	case xmltok.KindStart:
		// Feed ancestors: the new element sits at relative depth j for
		// the ancestor j levels up; only j ≤ MaxPathDepth can matter.
		name := tok.Name()
		for j := 1; j <= len(a.window); j++ {
			a.window[len(a.window)-j].OnStart(a.c, name, j)
		}
		m := a.c.NewMatcher(tok, a.keyBuf())
		if err := a.push(m); err != nil {
			return nil, err
		}
		if !m.startResolved(a.c) {
			return tok, nil
		}
		// The key is known (empty when no rule applies).
		return a.rekey(tok, m.key), nil

	case xmltok.KindText:
		// Text is a direct child of the innermost element: r = j-1 open
		// descendants separate it from the ancestor j levels up.
		text := tok.Text()
		for j := 1; j <= len(a.window); j++ {
			a.window[len(a.window)-j].OnText(a.c, text, j-1)
		}
		return tok, nil

	case xmltok.KindEnd:
		if a.depth == 0 {
			return nil, fmt.Errorf("keys: end tag </%s> with no open element", tok.Name())
		}
		m, err := a.pop()
		if err != nil {
			return nil, err
		}
		key := m.Finalize()
		// The closing element is at relative depth j for each remaining
		// ancestor j levels up; their open chains retreat.
		for j := 1; j <= len(a.window); j++ {
			a.window[len(a.window)-j].OnEnd(j)
		}
		v := a.rekey(tok, key)
		a.keys = append(a.keys, key)
		return v, nil

	default:
		return tok, nil
	}
}

// rekey returns a view of tok carrying key.
func (a *Annotator) rekey(tok *xmltok.Encoded, key []byte) *xmltok.Encoded {
	a.enc = a.view.Rekey(a.enc[:0], tok, key)
	return &a.view
}

// keyBuf returns a key buffer for a new matcher, reusing one a finished or
// spilled matcher gave back.
func (a *Annotator) keyBuf() []byte {
	n := len(a.keys)
	if n == 0 {
		return make([]byte, 0, a.c.keyCap())
	}
	b := a.keys[n-1]
	a.keys = a.keys[:n-1]
	return b
}

func (a *Annotator) push(m Matcher) error {
	if len(a.window) == a.wcap {
		// Spill the outermost in-window matcher; it is now more than
		// MaxPathDepth+1 levels above any future token until its subtree
		// closes back down to it, so its state is frozen.
		if a.spill == nil {
			// No external stack: grow the window instead (in-memory
			// mode, used by the baseline).
			a.wcap *= 2
		} else {
			if err := a.window[0].MarshalTo(a.c, a.buf); err != nil {
				return err
			}
			if err := a.spill.Push(a.buf); err != nil {
				return fmt.Errorf("keys: spilling matcher: %w", err)
			}
			a.keys = append(a.keys, a.window[0].key)
			copy(a.window, a.window[1:])
			a.window = a.window[:len(a.window)-1]
		}
	}
	a.window = append(a.window, m)
	a.depth++
	return nil
}

func (a *Annotator) pop() (Matcher, error) {
	m := a.window[len(a.window)-1]
	a.window = a.window[:len(a.window)-1]
	a.depth--
	// Refill the bottom of the window from the spill so the invariant
	// "window holds the innermost min(depth, wcap) matchers" is restored.
	if a.spill != nil && a.spill.Len() > 0 && len(a.window) < a.wcap && a.depth > len(a.window) {
		if err := a.spill.Pop(a.buf); err != nil {
			return m, fmt.Errorf("keys: unspilling matcher: %w", err)
		}
		um, err := UnmarshalMatcher(a.c, a.buf, a.keyBuf())
		if err != nil {
			return m, err
		}
		a.window = append(a.window, Matcher{})
		copy(a.window[1:], a.window)
		a.window[0] = um
	}
	return m, nil
}
