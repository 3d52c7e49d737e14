package merge

import (
	"context"
	"io"

	"nexsort/internal/ioguard"
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
	rep, err := Documents(ioguard.Reader(ctx, left), ioguard.Reader(ctx, right),
		c, ioguard.Writer(ctx, out), opts)
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
	rep, err := ApplyUpdates(ioguard.Reader(ctx, base), ioguard.Reader(ctx, updates),
		c, ioguard.Writer(ctx, out), indent)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	return rep, nil
}
