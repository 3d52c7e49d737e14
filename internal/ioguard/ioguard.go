// Package ioguard holds the guards the library and its commands put on a
// caller's streams and files: readers and writers that refuse further
// bytes once a context is over, and a check that an output path does not
// name one of the input files.
package ioguard

import (
	"context"
	"fmt"
	"io"
	"os"
)

// Reader returns r guarded by ctx: once ctx is over, reads fail with its
// error. Sorts and merges read their input in a tight streaming loop, so a
// cancellation takes effect within one buffered read.
func Reader(ctx context.Context, r io.Reader) io.Reader { return &ctxReader{ctx: ctx, r: r} }

// Writer returns w guarded by ctx: once ctx is over, writes fail with its
// error, which covers an output phase that runs after the input has been
// fully consumed.
func Writer(ctx context.Context, w io.Writer) io.Writer { return &ctxWriter{ctx: ctx, w: w} }

// ctxReader holds its context in a field only because io.Reader's
// signature leaves nowhere else for it; a guard is built and consumed
// within the one call that received ctx, never stored beyond it.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// ctxWriter is ctxReader's counterpart for io.Writer.
type ctxWriter struct {
	ctx context.Context
	w   io.Writer
}

func (c *ctxWriter) Write(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.w.Write(p)
}

// CheckOutput refuses an output path that names the same file as one of
// the opened inputs. Call it before creating the output: creating it would
// truncate that input. An output path that does not exist yet is fine, and
// any other error from examining it is left to the create.
func CheckOutput(outPath string, inputs ...*os.File) error {
	out, err := os.Stat(outPath)
	if err != nil {
		return nil
	}
	for _, f := range inputs {
		in, err := f.Stat()
		if err != nil {
			return err
		}
		if os.SameFile(in, out) {
			return fmt.Errorf("output %s is the same file as input %s", outPath, f.Name())
		}
	}
	return nil
}
