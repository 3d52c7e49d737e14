// Package check verifies — in one streaming pass with constant space per
// open element — that an XML document is sorted under a criterion: the
// child list of every non-leaf element (down to an optional depth limit)
// must be ordered by (key, document position). It is the acceptance test
// for every sorter in this repository, the property-test workhorse, and a
// user-facing tool (cmd/xmlcheck) for asking "is this document already
// sorted?" before skipping a sort in a pipeline.
//
// A subtlety: a sorted document's sibling keys must be non-decreasing, but
// the original-position tie-break is not observable from the document
// alone. The checker therefore verifies non-decreasing keys, which is
// exactly the property the single-pass merge relies on. Text nodes carry
// the empty key, so "all text first, then keyed elements" falls out of the
// same rule.
package check

import (
	"bytes"
	"fmt"
	"io"

	"nexsort/internal/keys"
	"nexsort/internal/xmltok"
)

// Violation describes the first out-of-order sibling pair found.
type Violation struct {
	// Element is the tag of the out-of-order sibling (or "#text").
	Element string
	// Key and PrevKey are the offending pair: Key < PrevKey.
	Key, PrevKey string
	// Parent is the enclosing element's tag.
	Parent string
	// Level is the enclosing element's level (root = 1).
	Level int
	// Ordinal is the 0-based index of the offending child.
	Ordinal int64
}

// Error renders the violation.
func (v *Violation) Error() string {
	return fmt.Sprintf("check: child %d (<%s> key %q) of <%s> at level %d sorts before its predecessor (key %q)",
		v.Ordinal, v.Element, v.Key, v.Parent, v.Level, v.PrevKey)
}

// Report summarizes a verification pass.
type Report struct {
	// Elements and TextNodes count the document's nodes.
	Elements  int64
	TextNodes int64
	// Sorted is true when no violation was found.
	Sorted bool
	// Violation is the first offending pair (nil when Sorted).
	Violation *Violation
}

// frame is the per-open-element state: the element's name, the last
// sibling key seen and the running child count. The name and key buffers
// are reused by every element that opens at the same level, so the scan
// allocates per open level, not per token.
type frame struct {
	name     []byte
	lastKey  []byte
	children int64
	sawChild bool
}

// textElement names a text node in a Violation.
var textElement = []byte("#text")

// Document scans the document from r and verifies sortedness under c down
// to depthLimit (0 = every level). The scan always completes (counting
// nodes) even after a violation, so the report's totals are exact. The
// error return is non-nil only for malformed input, not for unsorted
// documents — inspect Report.Sorted.
func Document(r io.Reader, c *keys.Criterion, depthLimit int) (*Report, error) {
	parser := xmltok.NewParser(r, xmltok.DefaultParserOptions())
	annot := keys.NewAnnotator(c, nil)
	rep := &Report{Sorted: true}

	// stack[:depth] are the open elements; the frames above depth keep
	// their buffers for the next element to open at their level.
	var stack []frame
	depth := 0
	observe := func(name, key []byte) {
		if depth == 0 {
			return
		}
		top := &stack[depth-1]
		checked := depthLimit == 0 || depth <= depthLimit
		if checked && top.sawChild && rep.Sorted && bytes.Compare(key, top.lastKey) < 0 {
			rep.Sorted = false
			rep.Violation = &Violation{
				Element: string(name),
				Key:     string(key),
				PrevKey: string(top.lastKey),
				Parent:  string(top.name),
				Level:   depth,
				Ordinal: top.children,
			}
		}
		top.lastKey = append(top.lastKey[:0], key...)
		top.sawChild = true
		top.children++
	}

	for {
		v, err := parser.NextEncoded()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if v, err = annot.Annotate(v); err != nil {
			return nil, err
		}
		switch v.Kind() {
		case xmltok.KindStart:
			rep.Elements++
			// The key may resolve only at the end tag (path criteria);
			// open the frame here and order-check at the end tag, where
			// the final key is known.
			if depth == len(stack) {
				stack = append(stack, frame{})
			}
			f := &stack[depth]
			f.name = append(f.name[:0], v.Name()...)
			f.children, f.sawChild = 0, false
			depth++
		case xmltok.KindText:
			rep.TextNodes++
			observe(textElement, nil)
		case xmltok.KindEnd:
			depth--
			observe(v.Name(), v.Key())
		}
	}
	return rep, nil
}

// MustBeSorted is Document for tests: it returns an error for both
// malformed and unsorted inputs.
func MustBeSorted(r io.Reader, c *keys.Criterion, depthLimit int) error {
	rep, err := Document(r, c, depthLimit)
	if err != nil {
		return err
	}
	if !rep.Sorted {
		return rep.Violation
	}
	return nil
}
