# CI (.github/workflows/ci.yml) runs these same targets; keep them in sync.

GO ?= go
BASE ?= origin/main

.PHONY: all build test bench bench-compare coverage lint staticcheck fuzz serve docs-check perfbench-check

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# One iteration of every benchmark, as a smoke pass; run
# `go test -bench=. ./...` directly for real measurements.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Mirror of the CI bench job: run the full suite with -benchmem -count=5
# on HEAD and on $(BASE) (in a scratch worktree, so the working tree is
# untouched), then compare with benchstat if it is installed.
bench-compare:
	$(GO) test -run=NONE -bench=. -benchmem -count=5 ./... | tee /tmp/hcoc-bench-head.txt
	git worktree remove --force /tmp/hcoc-bench-base 2>/dev/null || true
	git worktree add --detach /tmp/hcoc-bench-base $(BASE)
	status=0; \
	(cd /tmp/hcoc-bench-base && $(GO) test -run=NONE -bench=. -benchmem -count=5 ./...) > /tmp/hcoc-bench-base.txt 2>&1 || status=$$?; \
	cat /tmp/hcoc-bench-base.txt; \
	git worktree remove --force /tmp/hcoc-bench-base; \
	exit $$status
	@if command -v benchstat >/dev/null; then \
		benchstat /tmp/hcoc-bench-base.txt /tmp/hcoc-bench-head.txt; \
	else \
		echo "benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest);"; \
		echo "raw outputs at /tmp/hcoc-bench-base.txt and /tmp/hcoc-bench-head.txt"; \
	fi

# Coverage ratchet: total statement coverage must not drop below the
# floor recorded in .github/coverage-floor.txt. Raise the floor when
# coverage durably improves; never lower it to make CI pass.
coverage:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$NF); print $$NF}'); \
	floor=$$(cat .github/coverage-floor.txt); \
	echo "total coverage: $$total% (floor: $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% fell below the recorded floor $$floor%" >&2; exit 1; }

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...

# Static analysis beyond vet; CI installs staticcheck, locally it is
# skipped with a note if absent.
staticcheck:
	@if command -v staticcheck >/dev/null; then staticcheck ./...; \
	else echo "staticcheck not installed (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi

# Short fuzz budget over the CSV/dataset parser, the release-artifact
# decoder, the isotonic fits, the event log's delta apply, the batch
# query body, the events-append body and the table-driven noise
# draws, as in CI.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzReadGroups -fuzztime=10s ./internal/dataset
	$(GO) test -run=NONE -fuzz=FuzzDecodeRelease -fuzztime=10s .
	$(GO) test -run=NONE -fuzz=FuzzFitMonotone -fuzztime=10s ./internal/isotonic
	$(GO) test -run=NONE -fuzz=FuzzApplyEvents -fuzztime=10s ./internal/eventlog
	$(GO) test -run=NONE -fuzz=FuzzBatchQuery -fuzztime=10s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzAppendEvents -fuzztime=10s ./internal/serve
	$(GO) test -run=NONE -fuzz=FuzzDoubleGeometric -fuzztime=10s ./internal/noise

serve:
	$(GO) run ./cmd/hcoc-serve

# Documentation contract: godoc conventions (package comments in
# doc.go, documented exported symbols) and OpenAPI route coverage
# across both serving tiers (backend + gateway).
docs-check:
	$(GO) test -run TestGodocConventions .
	$(GO) test -run 'TestOpenAPI|TestRoutesStable|TestGatewayRoutesStable' ./internal/serve ./internal/gateway

# The repository benchmark (perfbench/) is its own module, which
# ./... in this one skips: build, vet and test it against the root
# sources it replaces hcoc with, so an API change that breaks it fails
# here rather than only when the benchmark runs.
perfbench-check:
	cd perfbench && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./...
