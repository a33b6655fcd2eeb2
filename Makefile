GO ?= go

.PHONY: all build test race vet fmt-check smoke daemon-smoke metrics-smoke fleet-smoke bench-smoke bench-ab

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

smoke:
	$(GO) run ./cmd/udcsim -list-scenarios >/dev/null
	$(GO) run ./cmd/udcsim -list-adversaries >/dev/null
	$(GO) run ./cmd/udcsim -adversary burst-loss -protocol strong -n 5 -steps 300 -quiet
	$(GO) run ./cmd/fdextract -list-scenarios >/dev/null
	$(GO) run ./cmd/fdextract -scenario kx-perfect -runs 8 -workers 4 >/dev/null

# daemon-smoke boots udcd on a random port, sweeps the same request twice and
# asserts the second response is a byte-identical cache hit — the end-to-end
# check of the serving layer that CI also runs.
daemon-smoke:
	./scripts/daemon_smoke.sh

# metrics-smoke boots udcd, drives the corpus-backed routes, and asserts the
# /metrics families, scrape determinism and Server-Timing traces.
metrics-smoke:
	./scripts/metrics_smoke.sh

# fleet-smoke boots a 3-peer fleet, proves healthy and peer-killed sweeps are
# byte-identical to a cold single daemon, checks the failure counters on
# /metrics, and drains the coordinator cleanly on SIGTERM.
fleet-smoke:
	./scripts/fleet_smoke.sh

# bench-smoke covers the repo's one end-to-end benchmark, a nested module that
# `go test ./...` never compiles: vet and test it against the current
# internal/ API, then run all six workloads at 1/50 size with every
# byte-identity gate on (≈ 10 s each on a 2-core box).
bench-smoke:
	cd benchmarks/udcbench && $(GO) vet ./... && $(GO) test ./...
	bash benchmarks/run.sh -smoke

# bench-ab is the same-session interleaved A/B a performance claim rests on
# (benchmarks/README.md, choosing-metrics §8): BASE is cloned under a temp
# dir with the *current* benchmarks/ copied over it, then PAIRS pairs of
# untraced udcbench runs alternate which side goes first, every run is
# printed, and udcbench -compare judges the two sets.  WORKLOAD=all runs all
# six (≈ 4 min a pair); METRIC picks the per-pair table's column.
#   make bench-ab BASE=HEAD~1 WORKLOAD=extract-offline PAIRS=10
BASE ?= HEAD~1
WORKLOAD ?= extract-offline
PAIRS ?= 10
SEED ?= 1
bench-ab:
	./scripts/bench_ab.sh $(BASE) $(WORKLOAD) $(PAIRS) $(SEED)
