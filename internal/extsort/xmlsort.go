package extsort

import (
	"fmt"
	"io"

	"nexsort/internal/compact"
	"nexsort/internal/em"
	"nexsort/internal/keypath"
	"nexsort/internal/keys"
	"nexsort/internal/sortkey"
	"nexsort/internal/xmltok"
)

// XMLReport summarizes a key-path baseline sort for the experiment harness.
type XMLReport struct {
	// Elements is the number of element nodes in the input.
	Elements int64
	// Records is the number of key-path records sorted (elements + text
	// nodes).
	Records int64
	// RecordBytes is the total encoded size of the key-path
	// representation — the space blow-up relative to the input that
	// Section 1 calls out on tall documents.
	RecordBytes int64
	// InputBytes is the size of the input document.
	InputBytes int64
	// OutputBytes is the size of the sorted document written.
	OutputBytes int64
	// InitialRuns and MergePasses describe the external sort's shape; the
	// total number of passes over the data is MergePasses+1.
	InitialRuns int
	MergePasses int
}

// XMLOptions configures a baseline sort.
type XMLOptions struct {
	// DepthLimit enables depth-limited sorting (Section 3.2): child lists
	// of elements at levels 1..DepthLimit are sorted; deeper subtrees keep
	// document order. 0 means head-to-toe.
	DepthLimit int
	// Compact applies the Section 3.2 compaction techniques to the
	// key-path records (dictionary names, elided end tags), shrinking the
	// representation the external sort spills and merges — the paper
	// enables this for the baseline too.
	Compact bool
	// SortChildrenOf, when non-empty, switches to XSort semantics (the
	// related-work algorithm of Avila-Campillo et al. the paper contrasts
	// itself with in Section 2): only the child lists of elements whose
	// tag name appears here are sorted; everything else — including the
	// interiors of the sorted children — keeps document order. "XSort
	// sorts less, and should complete in less time than NEXSORT"; it is
	// likewise implemented as standard external merge sort, by degrading
	// every non-selected element's key to the empty string so the
	// (key, position) order reduces to document order there.
	SortChildrenOf []string
	// Indent pretty-prints the output with the given unit; empty writes
	// compact XML.
	Indent string
	// PaperLayout keeps the paper's baseline: the final merge is written
	// as one more run and read back for reconstruction. By default the
	// final merge streams straight into reconstruction, as NEXSORT's
	// default layout streams its own final merges.
	PaperLayout bool
}

// SortXML sorts an XML document with the paper's competitor: generate the
// key-path representation, run external merge sort over the records, and
// reconstruct the document from the sorted stream — the final merge itself
// unless opts.PaperLayout asks for the merged run. The criterion must be
// start-resolvable (attribute or tag-name keys); see
// keypath.ErrKeyNotResolvable.
//
// All memory left in env's budget (beyond two blocks reserved for input and
// output buffering) is given to the sorter, matching the paper's
// observation that "external merge sort always needs as much memory as
// possible".
func SortXML(env *em.Env, c *keys.Criterion, in io.Reader, out io.Writer, opts XMLOptions) (*XMLReport, error) {
	for _, r := range c.Rules {
		if !r.Source.StartResolvable() {
			return nil, fmt.Errorf("%w (rule for %q uses %s)", keypath.ErrKeyNotResolvable, r.Tag, r.Source)
		}
	}

	// Reserve one block each for the streaming input and output buffers.
	if err := env.Budget.Grant(2); err != nil {
		return nil, fmt.Errorf("extsort: input/output buffers: %w", err)
	}
	defer env.Budget.Release(2)

	// The key-path kernel: run formation and the k-way merge decide most
	// comparisons on the records' LCPs (see internal/sortkey).
	sorter, err := NewKernel(env, em.CatMergeRun, sortkey.KeyPath(), env.Budget.Free())
	if err != nil {
		return nil, err
	}
	defer sorter.Close()

	report := &XMLReport{}
	cr := em.NewCountingReader(in, env.Dev, em.CatInput)
	defer cr.Close()
	parser := xmltok.NewParser(cr, xmltok.DefaultParserOptions())
	annot := keys.NewAnnotator(c, nil)
	extract := keypath.NewExtractor()
	var enc *compact.Encoder
	var dec *compact.Decoder
	if opts.Compact {
		dict := compact.NewDictionary()
		enc = compact.NewEncoder(dict)
		dec = compact.NewDecoder(dict)
	}

	targets := make(map[string]bool, len(opts.SortChildrenOf))
	for _, tag := range opts.SortChildrenOf {
		targets[tag] = true
	}
	// XSort parent tracking: whether each open element is a target
	// (in-memory, like the path).
	var openTargets []bool

	// The parser's view, annotated, re-keyed where a key is degraded and
	// compacted, goes to the extractor as it stands.
	var encBuf, tokBuf []byte
	var rekeyed xmltok.Encoded
	for {
		tok, err := parser.NextEncoded()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if tok, err = annot.Annotate(tok); err != nil {
			return nil, err
		}
		switch tok.Kind() {
		case xmltok.KindStart:
			report.Elements++
			// Below the depth limit no reordering happens, so the path
			// component degrades to (“”, seq) and document order wins.
			degrade := opts.DepthLimit > 0 && extract.Depth()+1 > opts.DepthLimit+1
			if len(targets) > 0 {
				// XSort: a real key only for direct children of target
				// elements.
				degrade = degrade || len(openTargets) == 0 || !openTargets[len(openTargets)-1]
				openTargets = append(openTargets, targets[string(tok.Name())])
			}
			if degrade {
				tokBuf = rekeyed.Rekey(tokBuf[:0], tok, nil)
				tok = &rekeyed
			}
		case xmltok.KindEnd:
			if len(targets) > 0 {
				openTargets = openTargets[:len(openTargets)-1]
			}
		}
		if enc != nil {
			if tok, err = enc.Encode(tok); err != nil {
				return nil, err
			}
		}
		var ok bool
		if encBuf, ok, err = extract.Append(encBuf[:0], tok); err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if err := sorter.Add(encBuf); err != nil {
			return nil, err
		}
	}
	cr.Finish()
	report.InputBytes = cr.BytesRead()

	sort := sorter.SortStream
	if opts.PaperLayout {
		sort = sorter.Sort
	}
	it, err := sort()
	if err != nil {
		return nil, err
	}
	defer it.Close()

	cw := em.NewCountingWriter(out, env.Dev, em.CatOutput)
	defer cw.Close()
	var w *xmltok.Writer
	if opts.Indent != "" {
		w = xmltok.NewIndentWriter(cw, opts.Indent)
	} else {
		w = xmltok.NewWriter(cw)
	}
	emit := w.WriteEncoded
	if dec != nil {
		// Compaction: restore the names into new bytes.
		emit = func(v *xmltok.Encoded) error {
			v, err := dec.Decode(v)
			if err != nil {
				return err
			}
			return w.WriteEncoded(v)
		}
	}
	builder := keypath.NewBuilder(emit)
	for {
		raw, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := builder.Add(raw); err != nil {
			return nil, fmt.Errorf("extsort: rebuilding sorted record: %w", err)
		}
	}
	if err := builder.Finish(); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if err := cw.Flush(); err != nil {
		return nil, err
	}
	report.OutputBytes = cw.BytesWritten()

	st := sorter.Stats()
	report.Records = st.Records
	report.RecordBytes = st.RecordBytes
	report.InitialRuns = st.InitialRuns
	report.MergePasses = st.MergePasses
	return report, nil
}
