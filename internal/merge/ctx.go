package merge

import (
	"context"
	"io"

	"nexsort/internal/keys"
)

// This file bounds the structural merge by a context. The merge is
// deviceless — it streams tokens straight from two readers to a writer,
// with no em.Device underneath to enforce a lifecycle — so cancellation
// is enforced at the stream boundary instead: guarded readers and a
// guarded writer refuse further bytes once the context ends. The merge
// consumes input and produces output continuously (each parser buffers
// one read, the writer one output buffer), so a cancellation is observed
// within one buffered read or write.

// DocumentsContext is Documents bounded by ctx: when ctx is canceled or
// its deadline passes, the merge stops at the next stream operation and
// returns an error matching errors.Is against context.Canceled /
// context.DeadlineExceeded. The merge runs on the calling goroutine, so
// nothing is left running.
func DocumentsContext(ctx context.Context, left, right io.Reader, c *keys.Criterion, out io.Writer, opts Options) (*Report, error) {
	rep, err := Documents(&ctxReader{ctx: ctx, r: left}, &ctxReader{ctx: ctx, r: right},
		c, &ctxWriter{ctx: ctx, w: out}, opts)
	if err != nil {
		// Prefer the context's error over whatever wrapped form the
		// guarded stream surfaced it in.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	return rep, nil
}

// ApplyUpdatesContext is ApplyUpdates bounded by ctx, with the same
// cancellation semantics as DocumentsContext.
func ApplyUpdatesContext(ctx context.Context, base, updates io.Reader, c *keys.Criterion, out io.Writer, indent string) (*Report, error) {
	rep, err := ApplyUpdates(&ctxReader{ctx: ctx, r: base}, &ctxReader{ctx: ctx, r: updates},
		c, &ctxWriter{ctx: ctx, w: out}, indent)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	return rep, nil
}

// ctxReader fails reads once the context is over. The context lives in a
// struct field only because io.Reader's signature leaves nowhere else for
// it; the guard is constructed and consumed within a single Documents /
// ApplyUpdates call, never stored (see the NV005 baseline).
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

// ctxWriter fails writes once the context is over; same field rationale
// as ctxReader.
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
