package herald

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation section. Each benchmark regenerates its
// artifact end to end (workload construction, cost modeling, DSE,
// scheduling) and reports domain-specific metrics alongside ns/op.
// Run with:
//
//	go test -bench=. -benchmem
//
// The underlying drivers print the full paper-vs-measured tables via
// cmd/experiments; the benchmarks here measure the cost of regenerating
// each artifact and record headline metrics with b.ReportMetric.

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// quickCfg builds a fresh coarse-granularity configuration (benchmarks
// measure regeneration cost; a shared memo would hide it).
func quickCfg() *experiments.Config { return experiments.NewQuick() }

func BenchmarkTableI_ModelZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableI()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.MaxSpreadFactor, "ratio-spread")
		}
	}
}

func BenchmarkFigure2_FDAStyleEDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		r, err := cfg.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if !r.NVDLABestOnResNet || !r.NVDLAWorstOnUNet || !r.ShiBestOnUNet {
			b.Fatal("Figure 2 orderings regressed")
		}
	}
}

func BenchmarkFigure5_LayerPreference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		r, err := cfg.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if !r.UtilizationsMatch || !r.PreferenceSigns {
			b.Fatal("Figure 5 claims regressed")
		}
	}
}

func BenchmarkFigure6_PEPartitionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		r, err := cfg.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.SpreadFactor, "edp-spread")
		}
	}
}

func BenchmarkFigure11_DesignSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		r, err := cfg.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		// At the benchmark's coarse DSE granularity a scenario can slip
		// off the optimum; the full-granularity run (cmd/experiments)
		// achieves 9/9.
		if r.HDABeatsFDACount < len(r.Scenarios)-1 {
			b.Fatalf("HDA beats FDA in only %d/%d scenarios", r.HDABeatsFDACount, len(r.Scenarios))
		}
		if i == 0 {
			b.ReportMetric(float64(r.HDABeatsFDACount), "hda-beats-fda")
			b.ReportMetric(float64(r.BestHDAOnPareto), "hda-on-pareto")
			b.ReportMetric(float64(r.MaelstromBestCount), "maelstrom-best")
		}
	}
}

func BenchmarkTableV_MaelstromPartitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		r, err := cfg.TableV()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.NonTrivialCount), "nontrivial-partitions")
			b.ReportMetric(100*r.CloudNVDLAPEShare, "cloud-nvdla-pe-pct")
		}
	}
}

func BenchmarkFigure12_SingleDNN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		r, err := cfg.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(r.Cases) == 2 {
			b.ReportMetric(r.Cases[0].MaelstromEDPGainPct, "unet-edp-gain-pct")
			b.ReportMetric(r.Cases[1].MaelstromEDPGainPct, "resnet-edp-gain-pct")
		}
	}
}

func BenchmarkTableVI_BatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		r, err := cfg.TableVI()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 6 {
			b.Fatal("incomplete Table VI")
		}
	}
}

func BenchmarkFigure13_WorkloadChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := quickCfg()
		r, err := cfg.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.AvgMismatchEnergyPct, "mismatch-energy-pct")
		}
	}
}

func BenchmarkTableVII_SchedulingTime(b *testing.B) {
	cfg := quickCfg() // designs memoized; the bench then times scheduling
	for i := 0; i < b.N; i++ {
		r, err := cfg.TableVII()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.AvgMsPerLayer, "ms/layer")
		}
	}
}

func BenchmarkSchedulerAblation(b *testing.B) {
	cfg := quickCfg()
	for i := 0; i < b.N; i++ {
		r, err := cfg.SchedulerAblation()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.AvgEDPReductionPct, "edp-reduction-pct")
		}
	}
}

func BenchmarkHeadlineSummary(b *testing.B) {
	cfg := quickCfg()
	for i := 0; i < b.N; i++ {
		r, err := cfg.Headline()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.VsFDALatencyPct, "lat-vs-fda-pct")
			b.ReportMetric(r.EDPImprovementPct, "edp-vs-fda-pct")
		}
	}
}

// BenchmarkAblations runs the five design-choice ablation studies
// (load-balance factor, look-ahead depth, ordering, context penalty,
// search strategy).
func BenchmarkAblations(b *testing.B) {
	cfg := quickCfg()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.AblationsReport(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCostModel measures the raw analytical cost model: one layer
// estimate without caching (the innermost primitive every experiment
// rests on).
func BenchmarkCostModel(b *testing.B) {
	l := Layer{Op: Conv2D, K: 512, C: 512, Y: 14, X: 14, R: 3, S: 3, Stride: 1, Pad: 1}
	hw := HW{PEs: 4096, BWGBps: 64, L2Bytes: 8 << 20}
	et := DefaultEnergyTable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := EstimateLayer(&l, NVDLA, hw, et)
		if c.Cycles <= 0 {
			b.Fatal("bad cost")
		}
	}
}

// BenchmarkScheduler measures one full Herald scheduling pass of the
// AR/VR-B workload (438 layers) on a 2-way edge HDA with a warm cost
// cache — the Table VII primitive.
func BenchmarkScheduler(b *testing.B) {
	cache := NewCostCache(DefaultEnergyTable())
	hda, err := NewHDA("bench", Edge, []Partition{
		{Style: NVDLA, PEs: 128, BWGBps: 4},
		{Style: ShiDiannao, PEs: 896, BWGBps: 12},
	})
	if err != nil {
		b.Fatal(err)
	}
	w := ARVRB()
	s, err := NewScheduler(cache, DefaultSchedOptions())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Schedule(hda, w); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sch, err := s.Schedule(hda, w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(sch.MakespanCycles), "makespan-cycles")
		}
	}
}

// BenchmarkServingThroughput measures the online serving engine: 100
// interleaved requests from two tenants admitted through the full
// submit → incremental-schedule → stats pipeline on a fixed edge HDA
// with a warm cost cache. Reports both wall-clock admission
// throughput (req/s of the engine itself) and simulated serving
// throughput (req/s of the modeled accelerator at 1 GHz).
func BenchmarkServingThroughput(b *testing.B) {
	cache := NewCostCache(DefaultEnergyTable())
	hda, err := NewHDA("bench-serve", Edge, []Partition{
		{Style: NVDLA, PEs: 128, BWGBps: 4},
		{Style: ShiDiannao, PEs: 896, BWGBps: 12},
	})
	if err != nil {
		b.Fatal(err)
	}
	const perTenant = 50
	run := func() ServingStats {
		engine, err := NewServingEngine(cache, hda, DefaultServingOptions())
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, tenant := range []string{"arvr", "mlperf"} {
			model := map[string]string{"arvr": "brq-handpose", "mlperf": "mobilenetv1"}[tenant]
			wg.Add(1)
			go func(tenant, model string) {
				defer wg.Done()
				for i := 0; i < perTenant; i++ {
					ticket, err := engine.Submit(InferenceRequest{
						Tenant:       tenant,
						Model:        model,
						ArrivalCycle: int64(i) * 1_000_000,
					})
					if err != nil {
						b.Error(err)
						return
					}
					if _, err := ticket.Wait(context.Background()); err != nil {
						b.Error(err)
						return
					}
				}
			}(tenant, model)
		}
		wg.Wait()
		stats, err := engine.Drain(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if stats.Completed != 2*perTenant {
			b.Fatalf("completed %d of %d", stats.Completed, 2*perTenant)
		}
		return stats
	}
	run() // warm the cost cache outside the timed region
	b.ResetTimer()
	// wall-req/s must come from a per-iteration timer: dividing one
	// iteration's request count by b.Elapsed() across all iterations
	// shrinks the metric as b.N grows.
	var served int64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		iterStart := time.Now()
		stats := run()
		wall += time.Since(iterStart)
		served += stats.Completed
		if i == 0 {
			b.ReportMetric(stats.SimThroughputRPS, "sim-req/s")
		}
	}
	b.ReportMetric(float64(served)/wall.Seconds(), "wall-req/s")
}

// BenchmarkFleetThroughput measures the multi-HDA serving tier: a
// 4-replica cost-aware fleet serving a skewed heavy/light request mix
// (resnet50 and mobilenetv1 alternating 1:1) through the full
// dispatch → submit → incremental-schedule → aggregate-stats
// pipeline, every replica sharing one cost cache. Before the timed
// loop it runs the single-engine baseline and the round-robin policy
// once and reports the acceptance metrics:
//
//	scaling-x             4-replica / 1-engine simulated throughput
//	rr-p99-cycles         heavy-tenant p99 under round-robin
//	costaware-p99-cycles  heavy-tenant p99 under cost-aware ETA routing
//
// The timed region reports the fleet's wall-clock admission rate
// (wall-req/s) and simulated serving throughput (sim-req/s).
func BenchmarkFleetThroughput(b *testing.B) {
	cache := NewCostCache(DefaultEnergyTable())
	hda, err := NewHDA("bench-fleet", Edge, []Partition{
		{Style: NVDLA, PEs: 128, BWGBps: 4},
		{Style: ShiDiannao, PEs: 896, BWGBps: 12},
	})
	if err != nil {
		b.Fatal(err)
	}
	const pairs = 24
	run := func(replicas int, policy FleetPolicy) FleetStats {
		opts := DefaultFleetOptions()
		opts.Policy = policy
		f, err := NewReplicatedFleet(cache, hda, replicas, opts)
		if err != nil {
			b.Fatal(err)
		}
		tickets := make([]*FleetTicket, 0, 2*pairs)
		for i := 0; i < pairs; i++ {
			for _, rm := range [][2]string{{"heavy", "resnet50"}, {"light", "mobilenetv1"}} {
				t, err := f.Submit(InferenceRequest{Tenant: rm[0], Model: rm[1], ArrivalCycle: 0})
				if err != nil {
					b.Fatal(err)
				}
				tickets = append(tickets, t)
			}
		}
		for _, t := range tickets {
			if _, err := t.Wait(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		stats, err := f.Drain(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if stats.Completed != 2*pairs {
			b.Fatalf("completed %d of %d", stats.Completed, 2*pairs)
		}
		return stats
	}
	heavyP99 := func(st FleetStats) float64 {
		for _, ts := range st.Tenants {
			if ts.Tenant == "heavy" {
				return float64(ts.P99LatencyCycles)
			}
		}
		b.Fatal("heavy tenant missing")
		return 0
	}

	// Acceptance runs (also warm the shared cost cache); reported
	// after ResetTimer, which clears earlier metrics.
	single := run(1, RouteCostAware)
	quad := run(4, RouteCostAware)
	rr := run(4, RouteRoundRobin)

	b.ResetTimer()
	b.ReportMetric(quad.SimThroughputRPS/single.SimThroughputRPS, "scaling-x")
	b.ReportMetric(heavyP99(rr), "rr-p99-cycles")
	b.ReportMetric(heavyP99(quad), "costaware-p99-cycles")
	var served int64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		iterStart := time.Now()
		stats := run(4, RouteCostAware)
		wall += time.Since(iterStart)
		served += stats.Completed
		if i == 0 {
			b.ReportMetric(stats.SimThroughputRPS, "sim-req/s")
		}
	}
	b.ReportMetric(float64(served)/wall.Seconds(), "wall-req/s")
}

// BenchmarkDSE measures one exhaustive 2-way partition search (the
// Figure 6 / Table V primitive) at coarse granularity.
func BenchmarkDSE(b *testing.B) {
	cache := NewCostCache(DefaultEnergyTable())
	w := MLPerf(1)
	sp := SearchSpace{Class: Edge, Styles: MaelstromStyles(), PEUnits: 8, BWUnits: 4}
	for i := 0; i < b.N; i++ {
		r, err := Search(cache, sp, w, DefaultSearchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(r.Points)), "design-points")
		}
	}
}

// BenchmarkDSEPruned is BenchmarkDSE in best-only pruned mode: the
// design cloud is streamed instead of retained and partitions whose
// objective lower bound cannot win are never scheduled. The Best point
// is bit-identical to BenchmarkDSE's (the equivalence tests pin it).
func BenchmarkDSEPruned(b *testing.B) {
	cache := NewCostCache(DefaultEnergyTable())
	w := MLPerf(1)
	sp := SearchSpace{Class: Edge, Styles: MaelstromStyles(), PEUnits: 8, BWUnits: 4}
	opts := DefaultSearchOptions()
	opts.BestOnly = true
	opts.Prune = true
	for i := 0; i < b.N; i++ {
		r, err := Search(cache, sp, w, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.Explored), "evaluated-points")
			b.ReportMetric(float64(r.Pruned), "pruned-points")
		}
	}
}

// BenchmarkResweep measures the online repartitioning probe: repeated
// pruned best-only sweeps of the Figure 6-scale space on ONE reusable
// Sweeper (warm schedulers, HDAs, cost columns and bound memos) — the
// cost a serving fleet pays each time fleet.Resweep re-searches the
// partition space for the observed tenant mix.
func BenchmarkResweep(b *testing.B) {
	cache := NewCostCache(DefaultEnergyTable())
	sp := SearchSpace{Class: Edge, Styles: MaelstromStyles(), PEUnits: 8, BWUnits: 4}
	opts := DefaultSearchOptions()
	opts.BestOnly = true
	opts.Prune = true
	sw, err := NewSweeper(cache, sp, opts)
	if err != nil {
		b.Fatal(err)
	}
	w := MLPerf(1)
	if _, err := sw.Sweep(w); err != nil { // warm the handle
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sw.Sweep(w)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.Explored), "evaluated-points")
			b.ReportMetric(float64(r.Pruned), "pruned-points")
		}
	}
}

// BenchmarkFusedServing measures layer-fused segment serving against
// whole-request dispatch on a dataflow-specialized fleet: one NVDLA
// FDA replica plus one Shi-diannao FDA replica serving a back-to-back
// AR/VR burst (mobilenetv2 + mobilenetv1 pairs). Unfused, every
// request runs end to end on one dataflow; fused, each request's
// segment chain routes every layer range to the replica whose
// dataflow prefers it and consecutive requests pipeline across the
// fleet. Before the timed loop it runs both modes once and reports
// the acceptance metric the perf gate tracks:
//
//	fused-speedup-x   unfused / fused burst makespan (>= 1.15 pinned
//	                  by TestFusedServingImprovement)
//
// The timed region reports the fused fleet's wall-clock admission
// rate (wall-req/s) and the simulated burst makespan (sim-ms).
func BenchmarkFusedServing(b *testing.B) {
	cache := NewCostCache(DefaultEnergyTable())
	hdas, plans := fusedFleetSetup(b, cache)
	const pairs = 16

	// Acceptance runs (also warm the shared cost cache).
	unfusedSpan, _ := driveFusedBurst(b, cache, hdas, nil, pairs, false)
	fusedSpan, _ := driveFusedBurst(b, cache, hdas, plans, pairs, false)

	b.ResetTimer()
	b.ReportMetric(float64(unfusedSpan)/float64(fusedSpan), "fused-speedup-x")
	b.ReportMetric(float64(fusedSpan)/1e6, "sim-ms")
	var served int64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		iterStart := time.Now()
		_, st := driveFusedBurst(b, cache, hdas, plans, pairs, false)
		wall += time.Since(iterStart)
		served += st.Segments.FusedCompleted
	}
	b.ReportMetric(float64(served)/wall.Seconds(), "wall-req/s")
}

// BenchmarkReplayThroughput measures the deterministic replay harness
// end to end: the committed zipf scenario trace (96 hostile requests +
// 32 steady probes) replayed against a 2-replica cost-aware fleet in
// 16-entry admission windows. One iteration is one full replay — fleet
// construction, windowed admission, drain, digest rendering — so the
// metric tracks the offline-A/B turnaround an operator actually waits
// for. Reports wall-clock replayed requests per second.
func BenchmarkReplayThroughput(b *testing.B) {
	cache := NewCostCache(DefaultEnergyTable())
	hda, err := NewHDA("bench-replay", Edge, []Partition{
		{Style: NVDLA, PEs: 512, BWGBps: 8},
		{Style: ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		b.Fatal(err)
	}
	hdas := []*HDA{hda, hda}
	f, err := os.Open(filepath.Join("testdata", "scenarios", "zipf.trace.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := ReadTrace(f)
	f.Close()
	if err != nil {
		b.Fatal(err)
	}
	run := func() *ReplayDigest {
		o := ReplayOptions{Fleet: DefaultFleetOptions(), Window: 16}
		o.Fleet.Serve.MaxQueue = 4096
		d, err := Replay(context.Background(), cache, hdas, tr, o)
		if err != nil {
			b.Fatal(err)
		}
		if !d.Conservation.Holds {
			b.Fatalf("conservation violated: %+v", d.Conservation)
		}
		return d
	}
	run() // warm the shared cost cache
	b.ResetTimer()
	var replayed int64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		iterStart := time.Now()
		d := run()
		wall += time.Since(iterStart)
		replayed += d.Counters.Completed
	}
	b.ReportMetric(float64(replayed)/wall.Seconds(), "wall-req/s")
}

// BenchmarkElasticReassign measures one intra-HDA PE reassignment on a
// live serving engine — the cost the elastic controller pays per
// REASSIGNED step, and the number to weigh against a full migration
// (generation spawn + drain). The engine carries a committed schedule
// of mobilenet work; each iteration toggles it between the even
// 512/512 split and the skewed 768/256 split, which swaps the HDA at
// the layer boundary, re-interns the cost table for the new slices and
// re-resolves every admitted instance's cost rows.
func BenchmarkElasticReassign(b *testing.B) {
	cache := NewCostCache(DefaultEnergyTable())
	even := []Partition{
		{Style: NVDLA, PEs: 512, BWGBps: 8},
		{Style: ShiDiannao, PEs: 512, BWGBps: 8},
	}
	skew := []Partition{
		{Style: NVDLA, PEs: 768, BWGBps: 12},
		{Style: ShiDiannao, PEs: 256, BWGBps: 4},
	}
	hda, err := NewHDA("bench-elastic", Edge, even)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultServingOptions()
	opts.Elastic = true
	engine, err := NewServingEngine(cache, hda, opts)
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 16; i++ {
		ticket, err := engine.Submit(InferenceRequest{
			Tenant: "bench", Model: "mobilenetv1", ArrivalCycle: 0,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ticket.Wait(ctx); err != nil {
			b.Fatal(err)
		}
	}
	// Warm both partitions' interned cost tables: the steady-state
	// controller cost is the swap + row re-resolution, not the first
	// cold cost-model evaluation.
	if err := engine.Reassign(skew); err != nil {
		b.Fatal(err)
	}
	if err := engine.Reassign(even); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts := even
		if i%2 == 0 {
			parts = skew
		}
		if err := engine.Reassign(parts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, err := engine.Drain(ctx); err != nil {
		b.Fatal(err)
	}
}
