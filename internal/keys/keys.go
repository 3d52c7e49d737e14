// Package keys defines ordering criteria for XML sorting and the machinery
// to evaluate them in a single streaming pass, as Section 3.2 of the paper
// ("Complex ordering criteria") requires: an element's key must be
// computable from its start tag, or from its ancestors plus one pass over
// its subtree using constant space. Every sorter in this repository —
// NEXSORT, the key-path external merge sort baseline, and the in-memory
// recursive oracle — evaluates keys through this package, which is what
// makes their outputs byte-identical and hence cross-checkable.
//
// A Criterion is an ordered list of rules matched by element tag name. Each
// rule names a key source:
//
//   - ByAttr("ID"): the value of an attribute, available at the start tag
//     (the paper's experiments use this form: order region and branch by
//     the name attribute, employee by ID);
//   - ByTag(): the element's tag name itself;
//   - ByText(): the element's first direct text child;
//   - ByPath("personalInfo", "name", "lastName"): the first direct text of
//     the first descendant reached by the given child chain, in document
//     order — the paper's motivating complex criterion.
//
// Elements whose key is missing (absent attribute, no matching descendant)
// sort with the empty key. All comparisons break ties by document position,
// which both makes the sort deterministic and implements the paper's
// "append the element's location in the input" uniqueness device.
package keys

import (
	"fmt"
	"strings"

	"nexsort/internal/sortkey"
)

// SourceKind enumerates where an element's key comes from.
type SourceKind byte

// Key sources.
const (
	// SrcTag uses the element's tag name; resolvable at the start tag.
	SrcTag SourceKind = iota
	// SrcAttr uses an attribute value; resolvable at the start tag.
	SrcAttr
	// SrcText uses the first direct text child; needs a subtree pass.
	SrcText
	// SrcPath uses the first direct text of the first descendant matching
	// a child chain; needs a subtree pass.
	SrcPath
)

// Source is a key source with its argument.
type Source struct {
	Kind SourceKind
	// Attr is the attribute name for SrcAttr.
	Attr string
	// Path is the child chain for SrcPath (empty for SrcText, which is
	// the zero-length path).
	Path []string
}

// ByTag orders elements by tag name.
func ByTag() Source { return Source{Kind: SrcTag} }

// ByAttr orders elements by the value of the named attribute.
func ByAttr(name string) Source { return Source{Kind: SrcAttr, Attr: name} }

// ByText orders elements by their first direct text child.
func ByText() Source { return Source{Kind: SrcText} }

// ByPath orders elements by the first direct text of the first descendant
// reached through the given chain of child tag names.
func ByPath(chain ...string) Source { return Source{Kind: SrcPath, Path: chain} }

// StartResolvable reports whether the key is fully determined by the start
// tag alone (no subtree pass needed).
func (s Source) StartResolvable() bool { return s.Kind == SrcTag || s.Kind == SrcAttr }

// depth returns the length of the descendant chain the source must walk;
// keys at relative depth greater than depth+1 can never affect the matcher.
func (s Source) depth() int {
	if s.Kind == SrcPath {
		return len(s.Path)
	}
	return 0
}

// String renders the source in a compact XPath-like form.
func (s Source) String() string {
	switch s.Kind {
	case SrcTag:
		return "name()"
	case SrcAttr:
		return "@" + s.Attr
	case SrcText:
		return "text()"
	case SrcPath:
		return strings.Join(s.Path, "/") + "/text()"
	default:
		return fmt.Sprintf("source(%d)", s.Kind)
	}
}

// Rule binds a key source to the elements it applies to.
type Rule struct {
	// Tag is the element tag name the rule applies to; "" matches every
	// element, so a trailing {Tag: ""} rule acts as a default.
	Tag    string
	Source Source
}

// Criterion is a complete ordering specification.
type Criterion struct {
	// Rules are tried in order; the first rule whose Tag matches (exactly,
	// or "" as a wildcard) supplies the element's key source. Elements
	// matching no rule get the empty key and keep document order among
	// siblings (via the position tie-break).
	Rules []Rule
	// KeyCap bounds the stored key length in bytes. Longer keys are
	// truncated for comparison (ties broken by position), which keeps the
	// per-element bookkeeping constant-space as the model requires.
	// Zero means DefaultKeyCap.
	KeyCap int
}

// DefaultKeyCap is the key-length bound used when Criterion.KeyCap is zero.
const DefaultKeyCap = 64

// ByAttrOrTag is the workhorse criterion of the paper's experiments: order
// every element by the named attribute, falling back to the tag name when
// the attribute is absent.
func ByAttrOrTag(attr string) *Criterion {
	return &Criterion{Rules: []Rule{{Tag: "", Source: ByAttr(attr)}}}
}

// keyCap returns the effective key capacity.
func (c *Criterion) keyCap() int {
	if c == nil || c.KeyCap <= 0 {
		return DefaultKeyCap
	}
	return c.KeyCap
}

// ruleIndex returns the index of the first rule matching tag, or -1.
func (c *Criterion) ruleIndex(tag []byte) int {
	if c == nil {
		return -1
	}
	for i, r := range c.Rules {
		if r.Tag == "" || r.Tag == string(tag) {
			return i
		}
	}
	return -1
}

// SourceFor returns the key source used for elements with the given tag,
// and whether any rule applies.
func (c *Criterion) SourceFor(tag string) (Source, bool) {
	i := c.ruleIndex([]byte(tag))
	if i < 0 {
		return Source{}, false
	}
	return c.Rules[i].Source, true
}

// MaxPathDepth returns the deepest descendant chain any rule walks. The
// streaming evaluator only ever needs to update the innermost
// MaxPathDepth()+1 open elements, which is what keeps evaluation
// constant-space per element.
func (c *Criterion) MaxPathDepth() int {
	d := 0
	if c == nil {
		return 0
	}
	for _, r := range c.Rules {
		if rd := r.Source.depth(); rd > d {
			d = rd
		}
	}
	return d
}

// Clip truncates key to the criterion's key capacity.
func (c *Criterion) Clip(key string) string { return clip(key, c.keyCap()) }

func (c *Criterion) clip(key []byte) []byte { return clip(key, c.keyCap()) }

func clip[K string | []byte](key K, cap int) K {
	if len(key) > cap {
		return key[:cap]
	}
	return key
}

// Compare orders two elements by (key, position): keys by
// sortkey.CompareKeys — the shared sibling order every sorter and the
// structural merge normalize — with document position as the tie-break.
// Text nodes participate with the empty key, so they sort before keyed
// siblings and keep document order among themselves.
func Compare(keyA string, posA int64, keyB string, posB int64) int {
	if c := sortkey.CompareKeys(keyA, keyB); c != 0 {
		return c
	}
	switch {
	case posA < posB:
		return -1
	case posA > posB:
		return 1
	default:
		return 0
	}
}
