package replay

// The digest golden: every committed corpus trace replays under a fixed
// set of heraldplay configurations, parsed through heraldplay's flag
// family (config.BindServing), each at GOMAXPROCS 1 and 4, and the
// digest hash of every arm is pinned in testdata/digests.golden
// (regenerate with UPDATE_DIGESTS=1 go test -run DigestGolden). A refactor of the serving stack that is meant to
// be behaviour-preserving must leave every line byte-identical.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/capture"
	"repro/internal/config"
	"repro/internal/maestro"
)

// goldenArm is one replay configuration, spelled as the heraldplay
// flags it mirrors so a golden line can be reproduced from the shell.
type goldenArm struct {
	name string
	args []string // heraldplay flags beyond -trace and -replicas 3
}

var goldenArms = []goldenArm{
	{"w16", []string{"-window", "16"}},
	{"faults-w8", []string{"-faults", "1000000:0:crash,2000000:0:recover", "-window", "8"}},
	{"ladder-q256", []string{"-window", "16", "-pe-units", "4", "-bw-units", "2", "-mix-half-life", "64",
		"-max-queue", "4096", "-repartition", "-elastic-quantum", "256"}},
	{"ladder", []string{"-window", "16", "-pe-units", "4", "-bw-units", "2", "-mix-half-life", "64",
		"-max-queue", "4096", "-repartition"}},
	{"ladder-preempt", preemptArgs},
}

// preemptArgs arms the ladder's preemption rung on top of the
// migration-only ladder.
var preemptArgs = []string{"-window", "16", "-pe-units", "4", "-bw-units", "2", "-mix-half-life", "64",
	"-max-queue", "4096", "-repartition", "-elastic-preempt-below", "1", "-elastic-preempt-max", "4"}

// corpusTraces loads every committed scenario trace, sorted by name.
func corpusTraces(t *testing.T) (names []string, traces []*capture.Trace) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed scenario traces")
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := capture.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		names = append(names, strings.TrimSuffix(filepath.Base(p), ".trace.jsonl"))
		traces = append(traces, tr)
	}
	return names, traces
}

// corpusTrace loads one committed scenario trace by name.
func corpusTrace(t *testing.T, name string) *capture.Trace {
	t.Helper()
	names, traces := corpusTraces(t)
	for i, n := range names {
		if n == name {
			return traces[i]
		}
	}
	t.Fatalf("no %s trace in the corpus", name)
	return nil
}

// armOptions builds what heraldplay builds for the given flags, through
// the same flag family: three replicas of heraldplay's default
// partition, fleet options, ladder and sweeper from config.Serving.
func armOptions(t *testing.T, cache *maestro.Cache, args []string) ([]*accel.HDA, Options) {
	t.Helper()
	fs := flag.NewFlagSet("heraldplay", flag.ContinueOnError)
	window := fs.Int("window", 0, "")
	sv := config.BindServing(fs, "nvdla:512:8,shi-diannao:512:8")
	if err := fs.Parse(append([]string{"-replicas", "3"}, args...)); err != nil {
		t.Fatal(err)
	}
	hda, err := sv.HDA("heraldplay")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Window: *window}
	if o.Fleet, err = sv.FleetOptions(); err != nil {
		t.Fatal(err)
	}
	if o.Controller, err = sv.Ladder.Options(); err != nil {
		t.Fatal(err)
	}
	if o.Controller != nil {
		if o.Fleet.Sweeper, err = sv.Sweeper(cache, "exhaustive"); err != nil {
			t.Fatal(err)
		}
	}
	return sv.Replicas(hda), o
}

// replayHash replays tr under args at the given GOMAXPROCS and returns
// the digest hash and digest.
func replayHash(t *testing.T, tr *capture.Trace, args []string, procs int) (string, *Digest) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cache := newTestCache()
	hdas, o := armOptions(t, cache, args)
	d, err := Run(context.Background(), cache, hdas, tr, o)
	if err != nil {
		t.Fatal(err)
	}
	h, err := d.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h, d
}

func TestDigestGolden(t *testing.T) {
	names, traces := corpusTraces(t)
	var got strings.Builder
	for i, tr := range traces {
		for _, a := range goldenArms {
			key := names[i] + " " + a.name
			h1, d := replayHash(t, tr, a.args, 1)
			if h4, _ := replayHash(t, tr, a.args, 4); h4 != h1 {
				t.Errorf("%s: digest %s at GOMAXPROCS=1, %s at 4", key, h1[:12], h4[:12])
			}
			if !d.Conservation.Holds {
				t.Errorf("%s: conservation violated: %+v", key, d.Conservation)
			}
			fmt.Fprintf(&got, "%s %s\n", key, h1)
		}
	}

	path := filepath.Join("testdata", "digests.golden")
	if os.Getenv("UPDATE_DIGESTS") != "" {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_DIGESTS=1)", err)
	}
	if got.String() != string(want) {
		t.Errorf("digests drifted from %s (regenerate with UPDATE_DIGESTS=1 only for an intended change):\ngot:\n%swant:\n%s",
			path, got.String(), want)
	}
}

// TestReplayPreemptInvariance: with the preemption rung armed, the
// ladder re-queues preempted suffixes at every window boundary; they
// are admitted with the next window, never by a goroutine that happens
// to run first, so three runs at each of GOMAXPROCS 1, 2 and 8 render
// one digest.
func TestReplayPreemptInvariance(t *testing.T) {
	tr := corpusTrace(t, "flipflop")
	var want string
	for _, procs := range []int{1, 2, 8} {
		for run := 0; run < 3; run++ {
			h, d := replayHash(t, tr, preemptArgs, procs)
			if d.Counters.Preemptions == 0 {
				t.Fatal("preemption rung never fired; the test would prove nothing")
			}
			if want == "" {
				want = h
			}
			if h != want {
				t.Fatalf("GOMAXPROCS=%d run %d: digest %s, first run %s", procs, run, h[:12], want[:12])
			}
		}
	}
}
