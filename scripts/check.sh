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

# nexvet: the project's own invariant analyzers (nexvet -codes). The binary
# build is incremental — the Go build cache makes this a no-op when
# cmd/nexvet and internal/analysis are unchanged. Two runs on purpose:
# the -vettool run proves the unit-checker protocol works per package, the
# standalone run adds the whole-tree stale-baseline check.
echo "==> nexvet (static invariants)"
go build -o bin/nexvet ./cmd/nexvet
go vet -vettool=bin/nexvet ./...
./bin/nexvet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race -short ./..."
go test -race -short ./...

echo "check: all gates passed"
