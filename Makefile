GO ?= go

.PHONY: check build test vet nexvet race bench

# check is the pre-PR gate: vet, build everything, the full test suite,
# then the suite again under the race detector in short mode (the soak
# tests run in full mode; the parallel worker paths run under -race).
check: ; ./scripts/check.sh

build: ; $(GO) build ./...

# vet runs the toolchain's vet, then the project analyzers (nexvet), which
# also fail on stale baseline entries.
vet: nexvet
	$(GO) vet ./...
	./bin/nexvet ./...

# nexvet builds the invariant checker; the Go build cache keeps this
# incremental, so repeated `make vet` pays nothing when it is unchanged.
nexvet: ; $(GO) build -o bin/nexvet ./cmd/nexvet

test: ; $(GO) test ./...

race: ; $(GO) test -race ./...

bench: ; $(GO) test -bench=. -benchmem ./...
