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

// frame is the per-open-element state: the last sibling key seen and the
// running child count.
type frame struct {
	name     string
	lastKey  string
	children int64
	sawChild bool
}

// Document scans the document from r and verifies sortedness under c down
// to depthLimit (0 = every level). The scan always completes (counting
// nodes) even after a violation, so the report's totals are exact. The
// error return is non-nil only for malformed input, not for unsorted
// documents — inspect Report.Sorted.
func Document(r io.Reader, c *keys.Criterion, depthLimit int) (*Report, error) {
	parser := xmltok.NewParser(r, xmltok.DefaultParserOptions())
	annot := keys.NewAnnotator(c, nil)
	rep := &Report{Sorted: true}

	var stack []frame
	observe := func(name, key string) {
		if len(stack) == 0 {
			return
		}
		top := &stack[len(stack)-1]
		checked := depthLimit == 0 || len(stack) <= depthLimit
		if checked && top.sawChild && rep.Sorted && key < top.lastKey {
			rep.Sorted = false
			rep.Violation = &Violation{
				Element: name,
				Key:     key,
				PrevKey: top.lastKey,
				Parent:  top.name,
				Level:   len(stack),
				Ordinal: top.children,
			}
		}
		top.lastKey = key
		top.sawChild = true
		top.children++
	}

	var dec xmltok.Decoder
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
		tok := dec.Decode(v)
		switch tok.Kind {
		case xmltok.KindStart:
			rep.Elements++
			// The key may resolve only at the end tag (path criteria);
			// record a placeholder frame and order-check at the end tag,
			// where the final key is known.
			stack = append(stack, frame{name: tok.Name})
		case xmltok.KindText:
			rep.TextNodes++
			observe("#text", "")
		case xmltok.KindEnd:
			stack = stack[:len(stack)-1]
			observe(tok.Name, tok.Key)
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
