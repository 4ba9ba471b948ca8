package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/accel"
	"repro/internal/capture"
	"repro/internal/dnn"
	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/maestro"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// replayMixed is the replay-mixed workload: the shoot-out fleet (three
// replicas of the even edge split) replays seed-generated zipf and
// correlated traces without a controller, and a flipflop trace twice,
// under the elastic and under the migration controller.
func replayMixed(p params, res *result) {
	var cache *maestro.Cache
	var hdas []*accel.HDA
	var arms []arm
	s, err := setups(setupRounds(p), func() error {
		cache = newCache()
		h, err := evenEdge()
		if err != nil {
			return err
		}
		hdas = []*accel.HDA{h, h, h}
		arms = arms[:0]
		for _, sp := range mixedSpecs(p.seed, p.short) {
			ents, err := scenario.Generate(sp)
			if err != nil {
				return err
			}
			// Traces reach a replay through the capture file format.
			var buf bytes.Buffer
			if err := capture.Write(&buf, sp.Note(), ents); err != nil {
				return err
			}
			tr, err := capture.Read(&buf)
			if err != nil {
				return err
			}
			if sp.Kind == scenario.FlipFlop {
				arms = append(arms, arm{sp.Name + "/elastic", tr, "elastic"}, arm{sp.Name + "/migration", tr, "migration"})
			} else {
				arms = append(arms, arm{sp.Name, tr, ""})
			}
		}
		// One replay of every arm fills the cost cache.
		for _, a := range arms {
			o, err := a.options(cache)
			if err != nil {
				return err
			}
			if _, _, err := replayOnce(cache, hdas, a.trace, o); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		res.fail(err)
		return
	}
	runReplays(p, res, s, cache, hdas, arms, func(a arm) (replay.Options, error) { return a.options(cache) })
}

// fusedModels are the heavy models of fused-heavy, 34 to 54 layers each.
var fusedModels = []string{"resnet50", "mobilenetv2", "ssd-mobilenetv1", "resnet34"}

const (
	fusedMaxSegs = 4
	// fusedSpacingCycles is the mean gap between fused-heavy arrivals,
	// chosen, like arrivalSpacingCycles, for a simulated utilization of
	// about 0.7.
	fusedSpacingCycles = 4_000_000
)

// fusedHeavy is the fused-heavy workload: a seed-generated zipf trace
// over heavy models replays on two replicas whose engines fuse every
// model along its dse.PlanSegments cut.
func fusedHeavy(p params, res *result) {
	n := 600
	if p.short {
		n = 40
	}
	var cache *maestro.Cache
	var hdas []*accel.HDA
	var arms []arm
	var plans map[string]dse.SegmentPlan
	s, err := setups(setupRounds(p), func() error {
		cache = newCache()
		h, err := evenEdge()
		if err != nil {
			return err
		}
		hdas = []*accel.HDA{h, h}
		if plans, err = fusionPlans(cache, h); err != nil {
			return err
		}
		ents, err := fusedTrace(p.seed, n)
		if err != nil {
			return err
		}
		arms = []arm{{name: "fused", trace: &capture.Trace{Entries: ents}}}
		_, _, err = replayOnce(cache, hdas, arms[0].trace, fusedOptions(plans))
		return err
	})
	if err != nil {
		res.fail(err)
		return
	}
	runReplays(p, res, s, cache, hdas, arms, func(arm) (replay.Options, error) { return fusedOptions(plans), nil })
}

// fusedTrace generates the fused-heavy trace: zipf tenants and arrivals
// from the seed, with the hostile requests' models dealt round-robin in
// arrival order, so that every seed carries the same model mix and the
// seed moves only who arrives when.
func fusedTrace(seed int64, n int) ([]capture.Entry, error) {
	ents, err := scenario.Generate(scenario.Spec{
		Name: "fused", Kind: scenario.Zipf, Seed: seed*1000 + 201, Requests: n,
		HorizonCycles: int64(n) * fusedSpacingCycles, Tenants: 6, Models: fusedModels,
	})
	if err != nil {
		return nil, err
	}
	k := 0
	for i := range ents {
		if ents[i].Tenant != "steady" {
			ents[i].Model = fusedModels[k%len(fusedModels)]
			k++
		}
	}
	return ents, nil
}

// fusionPlans cuts every fused model on h; models whose best plan is a
// single segment stay unfused.
func fusionPlans(cache *maestro.Cache, h *accel.HDA) (map[string]dse.SegmentPlan, error) {
	plans := make(map[string]dse.SegmentPlan)
	for _, name := range fusedModels {
		m, err := dnn.ByName(name)
		if err != nil {
			return nil, err
		}
		pl, err := dse.PlanSegments(cache, h, m, dse.ObjectiveEDP, fusedMaxSegs)
		if err != nil {
			return nil, err
		}
		if pl.NumSegments() > 1 {
			plans[name] = pl
		}
	}
	return plans, nil
}

func fusedOptions(plans map[string]dse.SegmentPlan) replay.Options {
	o := replay.Options{Fleet: fleet.DefaultOptions(), Window: replayWindow}
	o.Fleet.Serve.MaxQueue = 4096
	o.Fleet.Serve.Plans = plans
	return o
}

// runReplays repeats one replay of every arm until the budget is spent;
// a repetition's wall time is the workload's latency sample. Every
// repetition must render the digests of the first, byte for byte.
func runReplays(p params, res *result, setupS []float64, cache *maestro.Cache, hdas []*accel.HDA, arms []arm, options func(arm) (replay.Options, error)) {
	golden := make([][]byte, len(arms))
	var rps, per []float64
	var steady, makespan, busy int64
	err := repeat(p.seconds, func() error {
		var reqs int
		var wall time.Duration
		for i, a := range arms {
			o, err := options(a)
			if err != nil {
				return err
			}
			var d *replay.Digest
			var b []byte
			dur, err := p.tr.call("replay.Run", -1, i, func() error {
				var err error
				d, b, err = replayOnce(cache, hdas, a.trace, o)
				return err
			})
			if err != nil {
				return fmt.Errorf("%s: %w", a.name, err)
			}
			k := len(a.trace.Entries)
			reqs += k
			wall += dur
			res.attempted += int64(k)
			res.failed += refused(d)
			res.units += float64(k)
			seg := d.Counters.Segments
			res.check(seg.Segments == seg.SegmentsCompleted+seg.SegmentsFailed+seg.SegmentsLost,
				"%s: %d segments admitted, %d completed, %d failed", a.name, seg.Segments, seg.SegmentsCompleted, seg.SegmentsFailed)
			if golden[i] == nil {
				golden[i] = b
				steady = max(steady, steadyP99(d))
				makespan += d.Counters.MakespanCycles
				busy += seg.SegmentBusyCycles
				continue
			}
			res.check(bytes.Equal(b, golden[i]), "%s: replay digest differs between repetitions", a.name)
		}
		rps = append(rps, float64(reqs)/wall.Seconds())
		per = append(per, millis(wall))
		return nil
	})
	res.fail(err)
	if len(rps) == 0 {
		return
	}
	res.add("setup_s", "s", median(setupS))
	res.add("replay_rps", "req/s", median(rps))
	res.add("sim_steady_p99_cycles", "cycles", float64(steady))
	res.add("sim_makespan_cycles", "cycles", float64(makespan))
	if busy > 0 {
		res.add("sim_utilization", "ratio", float64(busy)/float64(int64(len(hdas)*len(hdas[0].Subs))*makespan))
	}
	mem, err := heldMB(cache, hdas, arms, options)
	res.fail(err)
	res.add("mem_live_mb", "MB", mem)
	res.add("error_rate", "ratio", float64(res.failed)/float64(max(res.attempted, 1)))
	res.add("throughput_per_s", "1/s", median(rps))
	res.add("latency_p50_ms", "ms", median(per))
	res.add("latency_tail_ms", "ms", percentile(per, 90))
}

// heldMB replays every arm once more, untimed, and samples the live
// heap when the last trace entry is accepted: the fleet then holds the
// schedule state of every admitted request. It returns the largest
// sample in MB.
func heldMB(cache *maestro.Cache, hdas []*accel.HDA, arms []arm, options func(arm) (replay.Options, error)) (float64, error) {
	var held float64
	for _, a := range arms {
		o, err := options(a)
		if err != nil {
			return 0, err
		}
		n := 0
		o.Fleet.OnAccept = func(serve.Request, string) {
			if n++; n == len(a.trace.Entries) {
				held = max(held, liveHeapMB())
			}
		}
		if _, _, err := replayOnce(cache, hdas, a.trace, o); err != nil {
			return 0, err
		}
	}
	return held, nil
}
