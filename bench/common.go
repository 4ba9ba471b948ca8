package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/accel"
	"repro/internal/capture"
	"repro/internal/dataflow"
	"repro/internal/dse"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/maestro"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/workload"
)

// maelstrom is the NVDLA + Shi-diannao style pair every workload uses.
var maelstrom = []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao}

func newCache() *maestro.Cache { return maestro.NewCache(energy.Default28nm()) }

// repeat calls rep until the budget is spent. It always completes one
// repetition and starts another only while the mean repetition so far
// still fits.
func repeat(seconds float64, rep func() error) error {
	start := time.Now()
	for n := 1; ; n++ {
		if err := rep(); err != nil {
			return err
		}
		el := time.Since(start).Seconds()
		if el+el/float64(n) > seconds {
			return nil
		}
	}
}

// setups times setup k times and returns the durations in seconds.
// setup_s is their median, so that work moved into set-up shows.
func setups(k int, setup func() error) ([]float64, error) {
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return out, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// setupRounds is how many times a run repeats its set-up.
func setupRounds(p params) int {
	if p.short {
		return 1
	}
	return 5
}

// bootstrap is heraldd's default deploy-time search: AR/VR-A on the
// edge class, NVDLA + Shi-diannao at 8 PE and 4 bandwidth units,
// exhaustive, minimizing EDP.
func bootstrap(cache *maestro.Cache) (*dse.Result, error) {
	return dse.Search(cache, dse.Space{Class: accel.Edge, Styles: maelstrom, PEUnits: 8, BWUnits: 4},
		workload.ARVRA(), dse.DefaultOptions())
}

// evenEdge is the even 512/512 edge split the replay workloads serve on.
func evenEdge() (*accel.HDA, error) {
	return accel.New("even", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8},
	})
}

// shootoutFleet is the controller shoot-out's fleet configuration: a
// pruned best-only sweeper over Edge 4/2 and a mix half-life of 64
// submissions. Every replay gets a fresh sweeper.
func shootoutFleet(cache *maestro.Cache) (fleet.Options, error) {
	so := dse.DefaultOptions()
	so.BestOnly = true
	so.Prune = true
	sw, err := dse.NewSweeper(cache, dse.Space{Class: accel.Edge, Styles: maelstrom, PEUnits: 4, BWUnits: 2}, so)
	if err != nil {
		return fleet.Options{}, err
	}
	o := fleet.DefaultOptions()
	o.Serve.MaxQueue = 4096
	o.Sweeper = sw
	o.MixHalfLife = 64
	return o, nil
}

// replayWindow is the quiesce-window size of every replay.
const replayWindow = 16

// arm is one replay configuration: a trace and the controller, if any,
// stepped at its window boundaries.
type arm struct {
	name    string
	trace   *capture.Trace
	control string // "", "elastic" or "migration"
}

func (a arm) options(cache *maestro.Cache) (replay.Options, error) {
	fo, err := shootoutFleet(cache)
	if err != nil {
		return replay.Options{}, err
	}
	o := replay.Options{Fleet: fo, Window: replayWindow}
	switch a.control {
	case "elastic":
		// One 256-PE quantum reaches the mobilenet-optimal 768/256 split
		// from the even start, as in the shoot-out.
		o.Elastic = &fleet.ElasticOptions{PEQuantum: 256}
	case "migration":
		o.Controller = &fleet.ControllerOptions{}
	}
	return o, nil
}

// replayOnce replays one trace and checks conservation.
func replayOnce(cache *maestro.Cache, hdas []*accel.HDA, tr *capture.Trace, o replay.Options) (*replay.Digest, []byte, error) {
	d, err := replay.Run(context.Background(), cache, hdas, tr, o)
	if err != nil {
		return nil, nil, err
	}
	b, err := d.Canonical()
	if err != nil {
		return nil, nil, err
	}
	if !d.Conservation.Holds {
		return d, b, fmt.Errorf("replay %s: conservation violated: %+v", tr.Note, d.Conservation)
	}
	return d, b, nil
}

// refused counts the submissions of a replay that were not served:
// failed, shed, or refused at dispatch (Rejects counts those by reason).
func refused(d *replay.Digest) int64 {
	n := d.Counters.Failed + d.Counters.Shed
	for _, v := range d.Rejects {
		n += v
	}
	return n
}

// request re-issues a trace entry.
func request(e capture.Entry) serve.Request {
	return serve.Request{Tenant: e.Tenant, Model: e.Model, Priority: e.Priority, SLACycles: e.SLACycles, ArrivalCycle: e.ArrivalCycle}
}

func steadyP99(d *replay.Digest) int64 {
	for _, ts := range d.Tenants {
		if ts.Tenant == "steady" {
			return ts.P99LatencyCycles
		}
	}
	return 0
}

// mixedSpecs are the replay-mixed traces: zipf, correlated and
// flipflop as the committed corpus specifies them, seeded from seed and
// with 10 times the corpus's requests and horizon (96 requests over 12M
// cycles), which keeps its load density. short keeps the corpus size.
func mixedSpecs(seed int64, short bool) []scenario.Spec {
	scale := 10
	if short {
		scale = 1
	}
	base := scenario.Spec{
		Requests:           96 * scale,
		HorizonCycles:      12_000_000 * int64(scale),
		Tenants:            6,
		SLACycles:          60_000_000,
		SteadyPeriodCycles: 12_000_000 / 32,
	}
	zipf, corr, flip := base, base, base
	zipf.Name, zipf.Kind, zipf.Seed = "zipf", scenario.Zipf, seed*1000+101
	corr.Name, corr.Kind, corr.Seed = "correlated", scenario.Correlated, seed*1000+104
	flip.Name, flip.Kind, flip.Seed = "flipflop", scenario.FlipFlop, seed*1000+105
	flip.Models = []string{"mobilenetv1", "resnet50"}
	return []scenario.Spec{zipf, corr, flip}
}

// Ingest load: light models from 8 tenants.
var lightModels = []string{"mobilenetv1", "mobilenetv2", "brq-handpose"}

const ingestTenants = 8

// arrivalSpacingCycles is the mean gap between ingest arrivals. With
// it the light mix keeps the sub-accelerators of two bootstrap-HDA
// replicas busy about 0.67 of the makespan (busy cycles ÷ (replicas ×
// sub-accelerators × makespan)), so the simulated backlog does not grow
// with phase length.
const arrivalSpacingCycles = 1_500_000

// ingestSequence generates n light requests with exponential arrival
// gaps; stream separates independent sequences of one seed.
func ingestSequence(seed, stream int64, n int) []serve.Request {
	r := rand.New(rand.NewSource(seed*7919 + stream))
	out := make([]serve.Request, n)
	var cycle int64
	for i := range out {
		out[i] = serve.Request{
			Tenant:       fmt.Sprintf("t%d", r.Intn(ingestTenants)),
			Model:        lightModels[r.Intn(len(lightModels))],
			ArrivalCycle: cycle,
		}
		cycle += int64(r.ExpFloat64() * arrivalSpacingCycles)
	}
	return out
}
