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
// The serving flags (-partition, -replicas, -fleet-policy, -faults,
// -fuse, the ladder, ...) are the family internal/config binds for
// both heraldplay and cmd/heraldd, so a replay given the daemon's
// flags rebuilds the daemon's configuration; -partition defaults to
// the even nvdla:512:8,shi-diannao:512:8 edge split here. -fuse fuses
// where heraldd's fleet would: the replicas share one partition, so
// each replica engine chains the segments. Only -gen, -diff, -trace,
// -o and -window are heraldplay's own.
//
// A live incident exports through the daemon: capture the trace with
// heraldd -capture, export the fault log from GET /v1/fleet/decisions,
// and re-run both here under the configuration you wish you had been
// running (see docs/OPERATIONS.md, "Trace capture & replay").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	herald "repro"
	"repro/internal/capture"
	"repro/internal/config"
)

func main() {
	log.SetFlags(0)
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one heraldplay invocation — generate, diff or replay —
// writing digests, diff lines and generated traces to stdout unless
// -o names a file, and returns the process exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("heraldplay", flag.ContinueOnError)
	genFlag := fs.String("gen", "", "scenario-spec JSON file: generate its trace instead of replaying (writes to -o or stdout)")
	diffFlag := fs.Bool("diff", false, "diff mode: compare the two digest files given as positional arguments")
	traceFlag := fs.String("trace", "", "trace file to replay (capture or heraldplay -gen JSONL)")
	outFlag := fs.String("o", "", "output file (digest or generated trace); default stdout")
	window := fs.Int("window", 0, "admission-window size in trace entries (0 = whole trace in one window; required by -repartition)")
	sv := config.BindServing(fs, "nvdla:512:8,shi-diannao:512:8")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var err error
	switch {
	case *diffFlag:
		if fs.NArg() != 2 {
			err = errors.New("-diff needs exactly two digest files")
			break
		}
		return runDiff(fs.Arg(0), fs.Arg(1), stdout)
	case *genFlag != "":
		err = runGen(*genFlag, *outFlag, stdout)
	case *traceFlag == "":
		err = errors.New("nothing to do: give -trace to replay, -gen to generate, or -diff to compare (see -h)")
	default:
		err = runReplay(sv, *traceFlag, *window, *outFlag, stdout)
	}
	if err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

// runReplay replays the trace file on the configuration the serving
// flags select and writes the canonical digest.
func runReplay(sv *config.Serving, tracePath string, window int, outPath string, stdout io.Writer) error {
	tr, err := capture.ReadFile(tracePath)
	if err != nil {
		return err
	}
	hda, err := sv.HDA("heraldplay")
	if err != nil {
		return err
	}
	opts := herald.ReplayOptions{Window: window}
	if opts.Fleet, err = sv.FleetOptions(); err != nil {
		return err
	}
	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	if opts.Fleet.Serve.Plans, err = sv.Plans(cache, hda, nil); err != nil {
		return err
	}
	if opts.Controller, err = sv.Ladder.Options(); err != nil {
		return err
	}
	if opts.Controller != nil {
		if window <= 0 {
			return errors.New("-repartition needs -window > 0 (the controller steps once per full window)")
		}
		if opts.Fleet.Sweeper, err = sv.Sweeper(cache, "exhaustive"); err != nil {
			return err
		}
	}

	digest, err := herald.Replay(context.Background(), cache, sv.Replicas(hda), tr, opts)
	if err != nil {
		return err
	}
	b, err := digest.Canonical()
	if err != nil {
		return err
	}
	if err := writeOut(outPath, b, stdout); err != nil {
		return err
	}
	if outPath != "" {
		hash, err := digest.Hash()
		if err != nil {
			return err
		}
		log.Printf("replayed %d entries: %d completed, %d failed, %d shed; conservation holds: %v; digest %s -> %s",
			digest.Trace.Entries, digest.Counters.Completed, digest.Counters.Failed,
			digest.Counters.Shed, digest.Conservation.Holds, hash[:12], outPath)
	}
	return nil
}

// runGen renders a scenario spec into a trace stream.
func runGen(specPath, outPath string, stdout io.Writer) error {
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
	return writeOut(outPath, []byte(buf.String()), stdout)
}

// runDiff compares two digest files; exit 0 when identical, 1 when
// they differ (one line per differing leaf), 2 on read errors.
func runDiff(aPath, bPath string, stdout io.Writer) int {
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
		fmt.Fprintln(stdout, "digests identical")
		return 0
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	return 1
}

func writeOut(path string, b []byte, stdout io.Writer) error {
	if path == "" {
		_, err := stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
