// Command heraldplay replays captured or generated request traces
// against candidate serving configurations, deterministically: the
// same trace, fault plan and flags render a byte-identical digest
// every run, so configurations A/B offline by diffing digests.
//
// Three modes:
//
//	# generate a scenario trace (internal/scenario spec -> JSONL trace)
//	go run ./cmd/heraldplay -gen testdata/scenarios/zipf.json -o zipf.trace.jsonl
//
//	# replay a trace against a candidate config, digest to stdout or -o
//	go run ./cmd/heraldplay -trace zipf.trace.jsonl \
//	    -partition "nvdla:512:8,shi-diannao:512:8" -replicas 3 -o a.json
//	go run ./cmd/heraldplay -trace zipf.trace.jsonl -replicas 3 \
//	    -fleet-policy round-robin -faults "1000000:0:crash,2000000:0:recover" -o b.json
//
//	# diff two digests, one line per differing leaf
//	go run ./cmd/heraldplay -diff a.json b.json
//
// The replay protocol (internal/replay) submits the trace in windows
// to a manual fleet and admits each window with one synchronous
// Fleet.Admit call, so batch composition — and with it every latency
// percentile, fault-handling decision and repartition decision — is a
// pure function of trace order at any GOMAXPROCS; nothing reads the
// wall clock. -window sets the window size in trace entries;
// -repartition steps the control ladder once per full window (the
// deterministic stand-in for heraldd's -resweep-every ticker); add
// -elastic-quantum N to arm in-place PE reassignment below migration,
// and A/B the two configurations by diffing their digests.
//
// A live incident exports through the daemon: capture the trace with
// heraldd -capture, export the fault log from GET /v1/fleet/decisions,
// and re-run both here under the configuration you wish you had been
// running (see docs/OPERATIONS.md, "Trace capture & replay").
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	herald "repro"
	"repro/internal/config"
)

func main() {
	log.SetFlags(0)
	genFlag := flag.String("gen", "", "scenario-spec JSON file: generate its trace instead of replaying (writes to -o or stdout)")
	diffFlag := flag.Bool("diff", false, "diff mode: compare the two digest files given as positional arguments")
	traceFlag := flag.String("trace", "", "trace file to replay (capture or heraldplay -gen JSONL)")
	outFlag := flag.String("o", "", "output file (digest or generated trace); default stdout")
	faultsFlag := flag.String("faults", "", "deterministic fault plan, cycle:replica:kind[:arg],... (kinds: crash, stall:factor, admit-fail:count, recover)")

	className := flag.String("class", "edge", "accelerator class: edge, mobile, cloud")
	partitionFlag := flag.String("partition", "nvdla:512:8,shi-diannao:512:8", "serving partition (style:pes:bw,...)")
	clockGHz := flag.Float64("clock-ghz", 1.0, "accelerator clock for cycle<->seconds stats")
	maxQueue := flag.Int("max-queue", 1024, "per-tenant pending-queue capacity (per replica)")
	maxBatch := flag.Int("max-batch", 8, "max admissions coalesced per scheduling round")
	replicas := flag.Int("replicas", 1, "replica serving engines")
	fleetPolicy := flag.String("fleet-policy", "cost-aware", "fleet routing policy: round-robin, least-outstanding, cost-aware")
	fuse := flag.Bool("fuse", false, "layer-fused segment serving inside each replica engine (engine-level fusion, as heraldd -fuse)")
	maxSegments := flag.Int("max-segments", 4, "upper bound on segments per fused request (with -fuse; >= 2)")
	mixHalfLife := flag.Int("mix-half-life", 0, "observed-mix half-life in submissions for repartition probes (0 = all-time counts)")
	shedSLAFactor := flag.Float64("shed-sla-factor", 0, "shed arrivals whose best-ETA lateness exceeds this multiple of their SLA (0 = off)")
	maxAttempts := flag.Int("max-attempts", 3, "per-request admission budget across crash failovers")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive replica admission failures that open its circuit breaker")
	breakerProbeAfter := flag.Int("breaker-probe-after", 8, "fleet dispatches after a breaker opens before it admits a half-open probe")

	window := flag.Int("window", 0, "admission-window size in trace entries (0 = whole trace in one window; required by -repartition)")
	ladder := config.BindLadder(flag.CommandLine)
	stylesFlag := flag.String("styles", "nvdla,shi-diannao", "repartition sweep's sub-accelerator dataflow styles")
	peUnits := flag.Int("pe-units", 8, "repartition sweep's PE partitioning granularity")
	bwUnits := flag.Int("bw-units", 4, "repartition sweep's bandwidth partitioning granularity")
	objectiveFlag := flag.String("objective", "edp", "repartition sweep objective: edp, latency, energy")
	flag.Parse()

	switch {
	case *diffFlag:
		if flag.NArg() != 2 {
			log.Fatal("-diff needs exactly two digest files")
		}
		os.Exit(runDiff(flag.Arg(0), flag.Arg(1)))
	case *genFlag != "":
		if err := runGen(*genFlag, *outFlag); err != nil {
			log.Fatal(err)
		}
		return
	case *traceFlag == "":
		log.Fatal("nothing to do: give -trace to replay, -gen to generate, or -diff to compare (see -h)")
	}

	tr, err := readTrace(*traceFlag)
	if err != nil {
		log.Fatal(err)
	}

	class, err := herald.ParseClass(*className)
	if err != nil {
		log.Fatal(err)
	}
	if *replicas < 1 {
		log.Fatalf("-replicas must be >= 1 (got %d)", *replicas)
	}
	parts, err := config.ParsePartition(*partitionFlag)
	if err != nil {
		log.Fatal(err)
	}
	hda, err := herald.NewHDA("heraldplay", class, parts)
	if err != nil {
		log.Fatal(err)
	}
	hdas := make([]*herald.HDA, *replicas)
	for i := range hdas {
		hdas[i] = hda
	}
	policy, err := herald.ParseFleetPolicy(*fleetPolicy)
	if err != nil {
		log.Fatal(err)
	}
	cache := herald.NewCostCache(herald.DefaultEnergyTable())

	opts := herald.ReplayOptions{Fleet: herald.DefaultFleetOptions(), Window: *window}
	opts.Fleet.Policy = policy
	opts.Fleet.MixHalfLife = *mixHalfLife
	opts.Fleet.Serve.ClockGHz = *clockGHz
	opts.Fleet.Serve.MaxQueue = *maxQueue
	opts.Fleet.Serve.MaxBatch = *maxBatch
	opts.Fleet.Health = herald.FleetHealthOptions{
		FailureThreshold: *breakerThreshold,
		ProbeAfter:       *breakerProbeAfter,
		MaxAttempts:      *maxAttempts,
		ShedSLAFactor:    *shedSLAFactor,
	}
	if *faultsFlag != "" {
		if opts.Fleet.Faults, err = herald.ParseFaultPlan(*faultsFlag); err != nil {
			log.Fatal(err)
		}
	}
	if *fuse {
		if *maxSegments < 2 {
			log.Fatalf("-fuse needs -max-segments >= 2 (got %d)", *maxSegments)
		}
		objective, err := config.ParseObjective(*objectiveFlag)
		if err != nil {
			log.Fatal(err)
		}
		// Engine-level fusion: each replica engine decomposes and
		// pipelines internally, which replays deterministically.
		opts.Fleet.Serve.Plans, err = config.FusionPlans(cache, hda, objective, *maxSegments, nil)
		if err != nil {
			log.Fatal(err)
		}
	}
	if opts.Controller, err = ladder.Options(); err != nil {
		log.Fatal(err)
	}
	if opts.Controller != nil {
		if *window <= 0 {
			log.Fatal("-repartition needs -window > 0 (the controller steps once per full window)")
		}
		if opts.Fleet.Sweeper, err = config.Sweeper(cache, class, *stylesFlag, *peUnits, *bwUnits, "exhaustive", *objectiveFlag); err != nil {
			log.Fatal(err)
		}
	}

	digest, err := herald.Replay(context.Background(), cache, hdas, tr, opts)
	if err != nil {
		log.Fatal(err)
	}
	b, err := digest.Canonical()
	if err != nil {
		log.Fatal(err)
	}
	if err := writeOut(*outFlag, b); err != nil {
		log.Fatal(err)
	}
	if *outFlag != "" {
		hash, err := digest.Hash()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("replayed %d entries: %d completed, %d failed, %d shed; conservation holds: %v; digest %s -> %s",
			digest.Trace.Entries, digest.Counters.Completed, digest.Counters.Failed,
			digest.Counters.Shed, digest.Conservation.Holds, hash[:12], *outFlag)
	}
}

// runGen renders a scenario spec into a trace stream.
func runGen(specPath, outPath string) error {
	f, err := os.Open(specPath)
	if err != nil {
		return err
	}
	defer f.Close()
	spec, err := herald.ParseScenarioSpec(f)
	if err != nil {
		return err
	}
	entries, err := herald.GenerateScenario(spec)
	if err != nil {
		return err
	}
	var buf strings.Builder
	if err := herald.WriteTrace(&buf, spec.Note(), entries); err != nil {
		return err
	}
	return writeOut(outPath, []byte(buf.String()))
}

// runDiff compares two digest files; exit 0 when identical, 1 when
// they differ (one line per differing leaf), 2 on read errors.
func runDiff(aPath, bPath string) int {
	a, err := os.ReadFile(aPath)
	if err != nil {
		log.Print(err)
		return 2
	}
	b, err := os.ReadFile(bPath)
	if err != nil {
		log.Print(err)
		return 2
	}
	lines, err := herald.DiffDigests(a, b)
	if err != nil {
		log.Print(err)
		return 2
	}
	if len(lines) == 0 {
		fmt.Println("digests identical")
		return 0
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	return 1
}

func readTrace(path string) (*herald.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return herald.ReadTrace(f)
}

func writeOut(path string, b []byte) error {
	if path == "" {
		_, err := os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
