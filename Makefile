GO ?= go
BENCHTIME ?= 10x

.PHONY: all build test race vet fmt-check smoke daemon-smoke metrics-smoke fleet-smoke bench-smoke bench-ab bench bench-compare

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

# bench runs the Table 1 benchmark, the adversary sweep, the
# knowledge-extraction benchmark and the serving-layer benchmarks (codec,
# cold/warm daemon sweeps, duplicate-request scheduling), and records the
# next BENCH_<n>.json snapshot, so the performance trajectory accumulates
# across working sessions.  Tune the sample count with BENCHTIME=50x etc.
bench:
	$(GO) test -run '^$$' -bench '^(BenchmarkTable1|BenchmarkAdversarySweep|BenchmarkExtraction|BenchmarkCodec|BenchmarkServerSweep|BenchmarkServerWire|BenchmarkSchedulerDuplicates|BenchmarkStoreMultiGet)$$' -benchtime $(BENCHTIME) . > bench.out || { cat bench.out; rm -f bench.out; exit 1; }
	@cat bench.out
	@$(GO) run ./cmd/benchjson -dir . < bench.out; status=$$?; rm -f bench.out; exit $$status

# bench-compare diffs the two most recent BENCH_<n>.json snapshots,
# printing per-benchmark ns/op deltas (plus B/op and allocs/op movements)
# and flagging regressions (non-zero exit with FAIL_ON_REGRESS=1).
# REGRESS_THRESHOLD widens the default 10% growth cutoff and MIN_NS sets a
# noise floor below which benchmarks are never flagged — both matter when
# the snapshots were recorded in different sessions.
bench-compare:
	@prev=$$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -2 | head -1); \
	latest=$$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1); \
	if [ -z "$$prev" ] || [ "$$prev" = "$$latest" ]; then echo "bench-compare: need at least two BENCH_<n>.json snapshots"; exit 1; fi; \
	echo "comparing $$prev -> $$latest"; \
	$(GO) run ./cmd/benchjson -compare $${FAIL_ON_REGRESS:+-fail-on-regress} \
		$${REGRESS_THRESHOLD:+-regress-threshold $$REGRESS_THRESHOLD} \
		$${MIN_NS:+-min-ns $$MIN_NS} \
		"$$prev" "$$latest"
