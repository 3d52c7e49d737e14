#!/bin/sh
# Pre-PR gate: everything must pass before a change ships.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

# nexvet: the project's own invariant analyzers (DESIGN.md §11), which also
# fail on stale baseline entries. The binary build is incremental — the Go
# build cache makes this a no-op when cmd/nexvet and internal/analysis are
# unchanged.
echo "==> nexvet (static invariants)"
go build -o bin/nexvet ./cmd/nexvet
./bin/nexvet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race -short ./..."
go test -race -short ./...

echo "check: all gates passed"
