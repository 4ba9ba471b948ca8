package main

import (
	"fmt"
	"time"

	"repro/internal/accel"
	"repro/internal/dse"
	"repro/internal/maestro"
	"repro/internal/workload"
)

// observedMix is the fixed tenant mix the warm re-sweeps search over:
// what a serving fleet would have observed from light traffic.
func observedMix() *workload.Workload {
	return workload.MustNew("observed", []workload.Entry{
		{Model: "mobilenetv1", Batches: 4},
		{Model: "mobilenetv2", Batches: 2},
		{Model: "brq-handpose", Batches: 2},
	})
}

// resweeper is the re-sweep probe: the edge space at the paper's 16/8
// granularity, best-only and pruned when prune is set.
func resweeper(cache *maestro.Cache, prune bool) (*dse.Sweeper, error) {
	o := dse.DefaultOptions()
	o.BestOnly = true
	o.Prune = prune
	return dse.NewSweeper(cache, dse.Space{Class: accel.Edge, Styles: maelstrom, PEUnits: 16, BWUnits: 8}, o)
}

// coldGrid is the Fig. 11 co-design grid — {AR/VR-A, AR/VR-B, MLPerf}
// × {edge, mobile, cloud} — searched exhaustively at 16/8 with the full
// design cloud. It returns the points scheduled and each scenario's
// best EDP.
func coldGrid(cache *maestro.Cache, tr *tracer) (explored int, edps []float64, err error) {
	grid := tr.begin("dse.grid", -1, -1)
	defer tr.end(grid)
	for _, w := range workload.Evaluated() {
		for _, c := range accel.Classes() {
			var r *dse.Result
			_, err := tr.call("dse.Search", grid, len(edps), func() error {
				var err error
				r, err = dse.Search(cache, dse.Space{Class: c, Styles: maelstrom, PEUnits: 16, BWUnits: 8}, w, dse.DefaultOptions())
				return err
			})
			if err != nil {
				return 0, nil, fmt.Errorf("grid %s/%s: %w", w.Name, c.Name, err)
			}
			explored += r.Explored
			edps = append(edps, r.Best.EDP)
		}
	}
	return explored, edps, nil
}

// samePoint compares two search winners by partition and metrics, never
// by HDA name.
func samePoint(a, b dse.Point) bool {
	return a.HDA.SamePartition(b.HDA) && a.LatencySec == b.LatencySec && a.EnergyMJ == b.EnergyMJ && a.EDP == b.EDP
}

// dseCodesign is the dse-codesign workload: every repetition searches
// the cold grid on a fresh cost cache, then re-sweeps the observed mix
// on the now-warm cache.
func dseCodesign(p params, res *result) {
	resweeps := 20
	if p.short {
		resweeps = 2
	}
	mix := observedMix()
	var cache *maestro.Cache
	var pruned *dse.Result
	s, err := setups(setupRounds(p), func() error {
		cache = newCache()
		sw, err := resweeper(cache, true)
		if err != nil {
			return err
		}
		pruned, err = sw.Sweep(mix)
		return err
	})
	if err != nil {
		res.fail(err)
		return
	}
	// Pruning must not change the winner.
	exh, err := resweeper(cache, false)
	if err == nil {
		var full *dse.Result
		if full, err = exh.Sweep(mix); err == nil {
			res.check(samePoint(pruned.Best, full.Best), "dse: pruned best %v differs from exhaustive best %v", pruned.Best.HDA, full.Best.HDA)
		}
	}
	res.fail(err)

	var gridS, rate, sweepMS []float64
	var edp, mem float64
	err = repeat(p.seconds, func() error {
		cache := newCache()
		start := time.Now()
		explored, edps, err := coldGrid(cache, p.tr)
		d := time.Since(start)
		res.attempted += int64(len(edps))
		if err != nil {
			return err
		}
		res.units += float64(explored)
		gridS = append(gridS, d.Seconds())
		rate = append(rate, float64(explored)/d.Seconds())
		g := geomean(edps)
		if edp == 0 {
			edp = g
			mem = liveHeapMB()
		}
		res.check(g == edp, "dse: best-EDP geomean %v differs from the first repetition's %v", g, edp)

		sw, err := resweeper(cache, true)
		if err != nil {
			return err
		}
		for i := 0; i <= resweeps; i++ {
			var r *dse.Result
			d, err := p.tr.call("dse.Sweep", -1, i, func() error {
				var err error
				r, err = sw.Sweep(mix)
				return err
			})
			res.attempted++
			if err != nil {
				return err
			}
			res.check(samePoint(r.Best, pruned.Best), "dse: re-sweep best %v differs from %v", r.Best.HDA, pruned.Best.HDA)
			if i > 0 { // the first sweep warms the sweeper's own tables
				res.units += float64(r.Explored)
				sweepMS = append(sweepMS, millis(d))
			}
		}
		return nil
	})
	res.fail(err)
	if len(gridS) == 0 {
		return
	}
	res.add("setup_s", "s", median(s))
	res.add("dse_s", "s", median(gridS))
	res.add("resweep_ms", "ms", median(sweepMS))
	res.add("sim_best_edp_geomean", "J.s", edp)
	res.add("mem_live_mb", "MB", mem)
	res.add("error_rate", "ratio", float64(res.failed)/float64(max(res.attempted, 1)))
	res.add("throughput_per_s", "1/s", median(rate))
	res.add("latency_p50_ms", "ms", median(sweepMS))
	res.add("latency_tail_ms", "ms", percentile(sweepMS, 90))
}
