GO ?= go

.PHONY: build test race fuzz bench bench-json bench-gate bench-check vet heraldvet smoke chaos replay doclint staticcheck vulncheck

build:
	$(GO) build ./...

# vet is the tier-1 static gate: the stock toolchain vet, a gofmt
# check (any file `gofmt -l .` lists fails it) and heraldvet, the
# repo's own analyzer suite (determinism, lock discipline, JSON
# zero-value contracts — see internal/analysis).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "vet: gofmt -l lists files to format:" >&2; echo "$$unformatted" >&2; exit 1; fi
	$(MAKE) heraldvet

# heraldvet runs the four repo-specific analyzers (detmap, wallclock,
# lockguard, jsonzero) over the whole module. Dependency-free: built
# on the standard library only, so it runs offline.
heraldvet:
	$(GO) run ./cmd/heraldvet ./...

test:
	$(GO) test ./...

# race runs the concurrency-sensitive packages under the race detector
# (the cost cache, the scheduler, the DSE worker pool, the serving
# engine, the fleet dispatcher, the replay harness, whose replays run
# Fleet.Admit's per-engine goroutines and fused completion hooks, the
# heraldd daemon's live HTTP, fleet and capture path, and heraldplay's
# digest-golden runs). The cost cache interns shape, model and
# substrate ids and locks per row, so its concurrent tests run ten
# times over to shake out rare interleavings; the DSE sweep hands
# partitions out off one atomic cursor and cuts a pruned sweep off at
# the shared best, so its tests run five times over.
race:
	$(GO) test -race -count=10 ./internal/maestro
	$(GO) test -race -count=5 ./internal/dse
	$(GO) test -race ./internal/sched ./internal/serve ./internal/fleet ./internal/replay ./cmd/heraldd ./cmd/heraldplay

# fuzz runs each trust-boundary fuzzer for 10 s (go test runs only
# their seed corpora): the -partition parser, the -faults parser, the
# capture-trace reader, the scenario-spec parser and the POST
# /v1/requests body decoder, plus the cost model's footprint/cycles
# split against the whole-Cost paths. A crasher lands
# under the package's testdata/fuzz/ — commit it as a seed along with
# the fix. FuzzSubmitRequest's seeds include bodies at and past the
# 1 MiB cap; minimizing a new input grown from one costs a run per
# removed byte, so its minimization is capped at 1 s (a failure is
# still reported, only less shrunk).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParsePartition$$' -fuzztime 10s ./internal/config
	$(GO) test -run '^$$' -fuzz '^FuzzParseFaultPlan$$' -fuzztime 10s ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzCaptureRead$$' -fuzztime 10s ./internal/capture
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitRequest$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzFootprint$$' -fuzztime 10s ./internal/maestro

# smoke builds and runs the end-to-end examples that exercise the
# serving stack (fast, deterministic; CI runs this per PR): heraldd's
# default path (a fleet of one behind the HTTP front end), fleet
# dispatch, the control ladder's live migration, layer-fused segment
# serving and the chaos drill — plus the benchmark harness's own
# checks. The fleet, repartition and segments demos drive manual
# fleets, so each runs twice and fails on any difference between the
# two outputs. The replay drill is its own target (make replay) and
# its own CI step, so smoke does not run it a second time.
smoke:
	$(GO) run ./examples/serving
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for ex in fleet repartition segments; do \
		echo "$(GO) run ./examples/$$ex (twice)"; \
		$(GO) run ./examples/$$ex > "$$tmp/$$ex.1"; \
		$(GO) run ./examples/$$ex > "$$tmp/$$ex.2"; \
		cat "$$tmp/$$ex.1"; \
		diff "$$tmp/$$ex.1" "$$tmp/$$ex.2" || { \
			echo "smoke: examples/$$ex printed different output on its second run" >&2; exit 1; }; \
	done
	$(MAKE) chaos
	$(MAKE) bench-check

# bench-check vets and short-tests the benchmark harness (bench/). It
# is a nested module, so the root `go test ./...` never compiles it:
# without this target an API change it depends on would go unnoticed.
bench-check:
	cd bench && $(GO) vet . && $(GO) test -short .

# chaos drives a replicated fleet through a seeded fault schedule
# (stall, admission-failure burst, crash with queued requests,
# recovery) and exits non-zero unless conservation holds, survivor p99
# stays bounded, and the fault-handling decision log replays
# bit-identically. CI gates on it per PR.
chaos:
	$(GO) run ./examples/chaos

# replay drills the committed adversarial-scenario corpus
# (testdata/scenarios) through the deterministic replay harness: the
# corpus must regenerate byte-identically, every replay (fault-free,
# faulted, repartitioning) must render byte-identical digests twice
# with conservation intact, and the steady tenant's p99 must stay
# inside a bounded envelope of the smooth control. Non-zero exit on
# any violation; CI gates on it per PR.
replay:
	$(GO) run ./examples/replay

# staticcheck / vulncheck fetch their tools at run time (CI has
# network; local offline runs can skip them — make vet covers the
# tier-1 gate). Both versions are pinned so a tool release cannot
# change what CI enforces mid-flight.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1 ./...

vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@v1.1.4 ./...

# doclint fails on broken intra-repo markdown links (file + anchor)
# and on exported identifiers missing doc comments in the serving
# tier, the search and scheduler, the cost-model, accelerator and
# trace packages they build on, the workload, network-zoo,
# dataflow, energy and reference-simulator packages under those, and
# the paper-artifact experiments. CI runs this per PR.
doclint:
	$(GO) run ./cmd/doclint -md . -pkgs internal/fleet,internal/serve,internal/dse,internal/sched,internal/analysis,internal/capture,internal/scenario,internal/replay,internal/config,cmd/heraldplay,internal/maestro,internal/trace,internal/accel,internal/core,internal/workload,internal/dnn,internal/dataflow,internal/energy,internal/refsim,internal/experiments

# bench runs the root benchmark suite once per benchmark (short form:
# the perf trajectory gate wants per-PR numbers, not nanosecond-grade
# stability), then the scheduler's microsecond-scale Extend benchmark
# at the default benchtime, and writes the machine-readable
# $(BENCH_OUT). Each PR commits its own file under a new name
# (make bench BENCH_OUT=BENCH_PR<n>.json); the recipe refuses to
# overwrite a committed one.
BENCH_OUT ?= bench.local.json
bench:
	@if git ls-files --error-unmatch $(BENCH_OUT) >/dev/null 2>&1; then \
		echo "bench: $(BENCH_OUT) is committed; pass a new BENCH_OUT" >&2; exit 1; fi
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . | tee bench.out
	$(GO) test -run '^$$' -bench IncrementalExtend -benchmem ./internal/sched | tee -a bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) < bench.out
	@rm -f bench.out

# bench-gate fails on >25% ns/op regressions of the DSE / figure-sweep
# benchmarks and the Extend benchmark against the newest committed
# BENCH_PR*.json other than $(BENCH_OUT) (version-sorted: BENCH_PR14
# is newer than BENCH_PR2). Only sweep-scale benchmarks (tens of ms and
# up) and multi-iteration ones are gated: single-iteration runs of the
# microsecond-scale figure artifacts swing well past any sane threshold
# on machine noise alone.
BENCH_BASE ?= $(lastword $(filter-out $(BENCH_OUT),$(shell git ls-files 'BENCH_PR*.json' | sort -V)))
bench-gate:
	$(GO) run ./cmd/benchgate -old $(BENCH_BASE) -new $(BENCH_OUT) \
		-match 'BenchmarkDSE|BenchmarkFigure6|BenchmarkFigure11|BenchmarkFigure13|BenchmarkResweep|BenchmarkFusedServing|BenchmarkReplayThroughput|BenchmarkElasticReassign|BenchmarkIncrementalExtend' -max-pct 25
