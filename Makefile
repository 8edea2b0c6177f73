# Developer entry points. `make check` is the pre-PR gate referenced in
# README.md: formatting, vet, a full build, and the race-enabled test
# suite must all pass before a change ships.

GO ?= go

.PHONY: all build test check fmt vet race bench-smoke perfbench bench bench-all bench-diff bench-json results staticcheck

# Pinned staticcheck version: `go run` resolves it through the module
# proxy, so the exact analyzer version is reproducible everywhere.
STATICCHECK_VERSION ?= 2025.1.1

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The whole suite under the race detector and uncached, so every
# invariant test (attribution and predictor-probe conservation, shared-Code
# and dispatch differentials, sweep-recorder spans, pipeview lifecycles,
# observer-off byte-identity) runs on every check.
race:
	$(GO) test -race -count=1 ./...

# Every simulator and cache-layer benchmark, run once: a benchmark broken
# by an API change fails the gate here instead of surfacing only in
# `make bench`.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Sim|StepCycle|CacheAccess|HierarchyData' -benchtime 1x ./...

# The benchmark module (perfbench/) is a module of its own, so the root
# `go build ./...` never compiles it; vet and test it here so an API it
# depends on cannot break unnoticed. Offline, about a second.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

# Pinned static analysis. Offline-gated: `go run pkg@version` must
# download the tool, so when the module proxy is unreachable (air-gapped
# build hosts) the target skips with a notice instead of failing the gate
# on a network error. Resolution is probed under both a cleared GOFLAGS
# and GOFLAGS=-mod=mod (some hosts need the explicit module mode to
# resolve pkg@version); only when the analyzer actually ran can the gate
# fail, and only on findings.
staticcheck:
	@if GOFLAGS= $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... 2>/dev/null; then \
		echo "staticcheck: ok"; \
	elif GOFLAGS= $(GO) list -m honnef.co/go/tools@$(STATICCHECK_VERSION) >/dev/null 2>&1; then \
		GOFLAGS= $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	elif GOFLAGS=-mod=mod $(GO) list -m honnef.co/go/tools@$(STATICCHECK_VERSION) >/dev/null 2>&1; then \
		GOFLAGS=-mod=mod $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... \
			&& echo "staticcheck: ok (via GOFLAGS=-mod=mod)"; \
	else \
		echo "staticcheck: module proxy unreachable under GOFLAGS= and GOFLAGS=-mod=mod, skipping (offline)"; \
	fi

# Pre-PR gate: run this before every commit.
check: fmt vet build staticcheck race bench-smoke perfbench

# Simulator-throughput benchmarks (simulated MIPS + allocation counts),
# benchstat-friendly: five samples per benchmark, compare against the
# committed results/bench_baseline.txt with
#   make bench | tee new.txt && benchstat results/bench_baseline.txt new.txt
bench:
	$(GO) test -bench Sim -benchmem -count 5 -run '^$$' .

# Quick smoke pass over every table/figure benchmark.
bench-all:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Throughput-regression gate: rerun the Sim benchmarks and compare the
# per-benchmark mean sim-MIPS against the committed baseline with the
# in-tree comparator (no benchstat dependency). Fails on a >10% drop.
bench-diff:
	$(GO) test -bench Sim -benchmem -count 3 -run '^$$' . | tee results/.bench_new.txt
	$(GO) run ./cmd/benchdiff results/bench_baseline.txt results/.bench_new.txt
	@rm -f results/.bench_new.txt

# Perf-trajectory bookkeeping: rerun the Sim benchmarks and append the
# per-benchmark mean sim-MIPS and allocs/op to results/bench_trajectory.json
# under the current short revision, so throughput history accumulates
# commit by commit (re-running a commit updates its entry in place).
bench-json:
	$(GO) test -bench Sim -benchmem -count 3 -run '^$$' . | tee results/.bench_new.txt
	$(GO) run ./cmd/benchdiff -json results/bench_trajectory.json \
		-label "$$(git rev-parse --short HEAD)" results/.bench_new.txt
	@rm -f results/.bench_new.txt

# Regenerate the committed telemetry baselines under results/ through the
# experiment engine, then fail if they drifted from the committed files.
# Wall-clock lines (the report's only nondeterministic field) are excluded
# from the comparison; -no-cache keeps the hit/miss counters at zero so the
# engine section itself is reproducible. On drift, the regenerated files
# replace the stale baselines so they can be reviewed and committed.
results: build vet
	@drift=0; \
	for w in 2 4 8; do \
		$(GO) run ./cmd/vgrun -no-hists -no-cache -width $$w \
			-json results/.regen_w$$w.json -transform examples/asm/dotproduct.s >/dev/null || exit 1; \
		if ! diff -u -I '"wall_ms"' results/dotproduct_w$$w.json results/.regen_w$$w.json; then \
			drift=1; \
		fi; \
		mv results/.regen_w$$w.json results/dotproduct_w$$w.json; \
	done; \
	if [ $$drift -ne 0 ]; then \
		echo "results: baselines drifted from committed files (regenerated copies left in place)"; \
		exit 1; \
	fi; \
	echo "results: baselines regenerated through the engine, no drift"
