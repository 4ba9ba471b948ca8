GO ?= go

.PHONY: build test race fuzz bench bench-json bench-gate bench-check vet heraldvet smoke chaos replay doclint staticcheck vulncheck

build:
	$(GO) build ./...

# vet is the tier-1 static gate: the stock toolchain vet plus
# heraldvet, the repo's own analyzer suite (determinism, lock
# discipline, JSON zero-value contracts — see internal/analysis).
vet:
	$(GO) vet ./...
	$(MAKE) heraldvet

# heraldvet runs the four repo-specific analyzers (detmap, wallclock,
# lockguard, jsonzero) over the whole module. Dependency-free: built
# on the standard library only, so it runs offline.
heraldvet:
	$(GO) run ./cmd/heraldvet ./...

test:
	$(GO) test ./...

# race runs the concurrency-sensitive packages under the race detector
# (the sharded cost cache, the scheduler, the DSE worker pool, the
# serving engine, the fleet dispatcher, and the replay harness, whose
# replays run Fleet.Admit's per-engine goroutines and fused
# completion hooks).
race:
	$(GO) test -race ./internal/maestro ./internal/sched ./internal/dse ./internal/serve ./internal/fleet ./internal/replay

# fuzz runs each trust-boundary fuzzer for 10 s (go test runs only
# their seed corpora): the -partition parser and the -faults parser. A
# crasher lands under the package's testdata/fuzz/ — commit it as a
# seed along with the fix.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParsePartition$$' -fuzztime 10s ./internal/config
	$(GO) test -run '^$$' -fuzz '^FuzzParseFaultPlan$$' -fuzztime 10s ./internal/fleet

# smoke builds and runs the end-to-end examples that exercise the
# serving stack (fast, deterministic; CI runs this per PR): heraldd's
# default path (a fleet of one behind the HTTP front end), fleet
# dispatch, the control ladder's live migration, and layer-fused
# segment serving — plus the benchmark harness's own checks.
smoke:
	$(GO) run ./examples/serving
	$(GO) run ./examples/fleet
	$(GO) run ./examples/repartition
	$(GO) run ./examples/segments
	$(MAKE) chaos
	$(MAKE) replay
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
# and on exported identifiers in the serving-tier packages missing
# doc comments. CI runs this per PR.
doclint:
	$(GO) run ./cmd/doclint -md . -pkgs internal/fleet,internal/serve,internal/dse,internal/sched,internal/analysis,internal/capture,internal/scenario,internal/replay,internal/config,cmd/heraldplay

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
