package nexsort

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nexsort/internal/ioguard"
	"nexsort/internal/merge"
)

// MergeOptions configures a structural merge.
type MergeOptions = merge.Options

// MergeReport summarizes a structural merge.
type MergeReport = merge.Report

// Merge combines two *sorted* XML documents in a single pass — the XML
// sort-merge join of the paper's Example 1.1. Elements at the same
// hierarchical position with the same tag and the same non-empty ordering
// key merge (attribute union, child lists merged recursively); everything
// else copies through in sorted order. Sort both inputs with the same
// criterion first (see SortAndMerge for the full pipeline).
func Merge(left, right io.Reader, crit *Criterion, out io.Writer, opts MergeOptions) (*MergeReport, error) {
	if crit == nil {
		return nil, fmt.Errorf("nexsort: Merge requires a criterion (it defines element matching)")
	}
	return merge.Documents(left, right, crit, out, opts)
}

// MergeContext is Merge bounded by ctx: when ctx is canceled or its
// deadline passes, the merge stops at the next stream operation and the
// returned error satisfies errors.Is against context.Canceled /
// context.DeadlineExceeded.
func MergeContext(ctx context.Context, left, right io.Reader, crit *Criterion, out io.Writer, opts MergeOptions) (*MergeReport, error) {
	if crit == nil {
		return nil, fmt.Errorf("nexsort: Merge requires a criterion (it defines element matching)")
	}
	return merge.DocumentsContext(ctx, left, right, crit, out, opts)
}

// MergeFiles is Merge over file paths. Like SortFile, it never leaves a
// partial result behind: if the merge fails after the output file was
// created, the file is removed, so outPath either holds a complete merged
// document or does not exist.
func MergeFiles(leftPath, rightPath, outPath string, crit *Criterion, opts MergeOptions) (*MergeReport, error) {
	return mergeFiles(leftPath, rightPath, outPath,
		func(left, right io.Reader, out io.Writer) (*MergeReport, error) {
			return Merge(left, right, crit, out, opts)
		})
}

// MergeFilesContext is MergeFiles bounded by ctx, with MergeContext's
// cancellation semantics. The no-partial-output guarantee holds on the
// cancellation path too: a canceled merge removes whatever it had written
// to outPath before returning the context's error.
func MergeFilesContext(ctx context.Context, leftPath, rightPath, outPath string, crit *Criterion, opts MergeOptions) (*MergeReport, error) {
	return mergeFiles(leftPath, rightPath, outPath,
		func(left, right io.Reader, out io.Writer) (*MergeReport, error) {
			return MergeContext(ctx, left, right, crit, out, opts)
		})
}

// mergeFiles handles the path plumbing shared by MergeFiles and
// MergeFilesContext, removing the output on any failure — including
// cancellation.
func mergeFiles(leftPath, rightPath, outPath string, run func(left, right io.Reader, out io.Writer) (*MergeReport, error)) (*MergeReport, error) {
	left, err := os.Open(leftPath)
	if err != nil {
		return nil, err
	}
	defer left.Close()
	right, err := os.Open(rightPath)
	if err != nil {
		return nil, err
	}
	defer right.Close()

	if err := ioguard.CheckOutput(outPath, left, right); err != nil {
		return nil, fmt.Errorf("nexsort: %w", err)
	}
	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	rep, err := run(left, right, out)
	if closeErr := out.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		os.Remove(outPath)
		return nil, err
	}
	return rep, nil
}

// ApplyUpdates applies a sorted batch of updates to a sorted base document
// (the paper's second application): matched elements take the update's
// attribute values, unmatched update elements are inserted at their sorted
// positions, and the result remains sorted.
func ApplyUpdates(base, updates io.Reader, crit *Criterion, out io.Writer, indent string) (*MergeReport, error) {
	if crit == nil {
		return nil, fmt.Errorf("nexsort: ApplyUpdates requires a criterion")
	}
	return merge.ApplyUpdates(base, updates, crit, out, indent)
}

// ApplyUpdatesContext is ApplyUpdates bounded by ctx, with MergeContext's
// cancellation semantics.
func ApplyUpdatesContext(ctx context.Context, base, updates io.Reader, crit *Criterion, out io.Writer, indent string) (*MergeReport, error) {
	if crit == nil {
		return nil, fmt.Errorf("nexsort: ApplyUpdates requires a criterion")
	}
	return merge.ApplyUpdatesContext(ctx, base, updates, crit, out, indent)
}

// SortAndMerge runs the complete Example 1.1 pipeline: NEXSORT both input
// documents by crit into temporary files, then merge them in one pass into
// out. It returns the two sort results and the merge report.
func SortAndMerge(left, right io.Reader, crit *Criterion, out io.Writer, cfg Config, opts MergeOptions) (*Result, *Result, *MergeReport, error) {
	return sortAndMerge(left, right, cfg,
		func(in io.Reader, w io.Writer) (*Result, error) {
			return Sort(in, w, cfg, Options{Criterion: crit})
		},
		func(lf, rf io.Reader) (*MergeReport, error) {
			return Merge(lf, rf, crit, out, opts)
		})
}

// SortAndMergeContext is SortAndMerge bounded by ctx: both sorts and the
// merge observe the context, and a cancellation anywhere in the pipeline
// unwinds it — temporary files removed, scratch released — returning an
// error that satisfies errors.Is against context.Canceled /
// context.DeadlineExceeded.
func SortAndMergeContext(ctx context.Context, left, right io.Reader, crit *Criterion, out io.Writer, cfg Config, opts MergeOptions) (*Result, *Result, *MergeReport, error) {
	return sortAndMerge(left, right, cfg,
		func(in io.Reader, w io.Writer) (*Result, error) {
			return SortContext(ctx, in, w, cfg, Options{Criterion: crit})
		},
		func(lf, rf io.Reader) (*MergeReport, error) {
			return MergeContext(ctx, lf, rf, crit, out, opts)
		})
}

// sortAndMerge is the pipeline shared by SortAndMerge and
// SortAndMergeContext: sort both inputs into a private temp directory,
// then merge the two sorted files. The temp directory (and with it any
// partial sorted file) is removed on every path.
func sortAndMerge(left, right io.Reader, cfg Config,
	sortOne func(io.Reader, io.Writer) (*Result, error),
	mergeBoth func(lf, rf io.Reader) (*MergeReport, error)) (*Result, *Result, *MergeReport, error) {
	dir, err := os.MkdirTemp(cfg.ScratchDir, "nexsort-merge-")
	if err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(dir)

	sortTo := func(in io.Reader, name string) (*Result, *os.File, error) {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		res, err := sortOne(in, f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Close(); err != nil {
			return nil, nil, err
		}
		rf, err := os.Open(path)
		return res, rf, err
	}

	lres, lf, err := sortTo(left, "left.xml")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("nexsort: sorting left document: %w", err)
	}
	defer lf.Close()
	rres, rf, err := sortTo(right, "right.xml")
	if err != nil {
		return nil, nil, nil, fmt.Errorf("nexsort: sorting right document: %w", err)
	}
	defer rf.Close()

	mrep, err := mergeBoth(lf, rf)
	if err != nil {
		return nil, nil, nil, err
	}
	return lres, rres, mrep, nil
}
