package keys

import (
	"encoding/binary"
	"fmt"

	"nexsort/internal/xmltok"
)

// Matcher incrementally evaluates one element's ordering key as the
// element's subtree streams by. It is the constant-space evaluator promised
// by Section 3.2: a rule index, a match counter, two flags and a bounded key
// buffer — small enough to ride on the (externally paged) path stack.
//
// For a path source with components P[0..L-1], the matcher tracks how many
// leading components are matched by the currently open descendant chain. It
// captures the first text that appears as a direct child of a fully matched
// chain, in document order, then stops. Relative depths are supplied by the
// caller (they are implicit in its element stack, so the matcher need not
// store them).
//
// The key is copied into the matcher's own buffer, so the tokens it came
// from may be reused at once; the buffer never grows past the criterion's
// key capacity.
type Matcher struct {
	ruleIdx int // index into Criterion.Rules; -1 when no rule applies
	matched int // leading path components matched by the open chain
	done    bool
	found   bool
	key     []byte
}

// NewMatcher creates the matcher for an element from its start tag. For
// start-resolvable sources (tag, attribute) the matcher completes
// immediately. The matcher keeps its key in buf's array, from length 0,
// and owns it from then on: a caller that recycles matchers passes the
// array of one it is done with, and nil allocates on demand.
func (c *Criterion) NewMatcher(start *xmltok.Encoded, buf []byte) Matcher {
	idx := c.ruleIndex(start.Name())
	m := Matcher{ruleIdx: idx, key: buf[:0]}
	if idx < 0 {
		m.done = true
		return m
	}
	switch src := c.Rules[idx].Source; src.Kind {
	case SrcTag:
		m.key, m.found, m.done = append(m.key, c.clip(start.Name())...), true, true
	case SrcAttr:
		if v, ok := start.Attr(src.Attr); ok {
			m.key, m.found = append(m.key, c.clip(v)...), true
		}
		m.done = true
	}
	return m
}

// source returns the matcher's key source (zero Source if none).
func (m *Matcher) source(c *Criterion) Source {
	if m.ruleIdx < 0 {
		return Source{}
	}
	return c.Rules[m.ruleIdx].Source
}

// startResolved reports whether the key was final at the start tag: a tag
// or attribute source, or no rule at all (the empty key).
func (m *Matcher) startResolved(c *Criterion) bool {
	return m.ruleIdx < 0 || c.Rules[m.ruleIdx].Source.StartResolvable()
}

// OnStart observes a descendant start tag at relative depth r (r=1 is a
// direct child of the matcher's element).
func (m *Matcher) OnStart(c *Criterion, name []byte, r int) {
	if m.done {
		return
	}
	src := m.source(c)
	if src.Kind != SrcPath {
		return
	}
	if r <= len(src.Path) && m.matched == r-1 && src.Path[r-1] == string(name) {
		m.matched = r
	}
}

// OnText observes descendant text with r open descendant elements (r=0
// means the text is a direct child of the matcher's element).
func (m *Matcher) OnText(c *Criterion, text []byte, r int) {
	if m.done {
		return
	}
	src := m.source(c)
	L := src.depth()
	if r == L && m.matched == L {
		m.key, m.found, m.done = append(m.key[:0], c.clip(text)...), true, true
	}
}

// OnEnd observes a descendant end tag at relative depth r (r=1 is a direct
// child closing). The open chain retreats, so the match counter regresses.
func (m *Matcher) OnEnd(r int) {
	if m.done {
		return
	}
	if r <= m.matched {
		m.matched = r - 1
	}
}

// Finalize completes evaluation at the element's own end tag and returns
// the key (empty if the source never produced a value).
func (m *Matcher) Finalize() []byte {
	m.done = true
	return m.key
}

// Key returns the current key and whether a value was found.
func (m *Matcher) Key() ([]byte, bool) { return m.key, m.found }

// Matcher state serialization: matchers for elements deeper than the active
// window are spilled to an external-memory stack alongside the path stack,
// exactly as the paper augments the path stack with pending ordering
// expressions. The record layout is fixed-size:
//
//	ruleIdx int16 | flags byte | matched uint16 | keyLen uint16 | key [KeyCap]
const matcherHeaderSize = 2 + 1 + 2 + 2

// StateSize returns the fixed marshalled size of a matcher under c.
func (c *Criterion) StateSize() int { return matcherHeaderSize + c.keyCap() }

// MarshalTo writes the matcher state into dst, which must be StateSize
// bytes.
func (m *Matcher) MarshalTo(c *Criterion, dst []byte) error {
	if len(dst) != c.StateSize() {
		return fmt.Errorf("keys: marshal buffer is %d bytes, want %d", len(dst), c.StateSize())
	}
	binary.LittleEndian.PutUint16(dst[0:], uint16(int16(m.ruleIdx)))
	var flags byte
	if m.done {
		flags |= 1
	}
	if m.found {
		flags |= 2
	}
	dst[2] = flags
	binary.LittleEndian.PutUint16(dst[3:], uint16(m.matched))
	binary.LittleEndian.PutUint16(dst[5:], uint16(len(m.key)))
	copy(dst[matcherHeaderSize:], m.key)
	return nil
}

// UnmarshalMatcher reconstructs a matcher from a record written by
// MarshalTo. Like NewMatcher, it keeps the key in buf's array.
func UnmarshalMatcher(c *Criterion, src, buf []byte) (Matcher, error) {
	if len(src) != c.StateSize() {
		return Matcher{}, fmt.Errorf("keys: unmarshal buffer is %d bytes, want %d", len(src), c.StateSize())
	}
	m := Matcher{
		ruleIdx: int(int16(binary.LittleEndian.Uint16(src[0:]))),
		matched: int(binary.LittleEndian.Uint16(src[3:])),
		done:    src[2]&1 != 0,
		found:   src[2]&2 != 0,
	}
	keyLen := int(binary.LittleEndian.Uint16(src[5:]))
	if keyLen > c.keyCap() {
		return Matcher{}, fmt.Errorf("keys: corrupt matcher record: key length %d exceeds cap %d", keyLen, c.keyCap())
	}
	m.key = append(buf[:0], src[matcherHeaderSize:matcherHeaderSize+keyLen]...)
	return m, nil
}
