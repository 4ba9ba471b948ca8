package dse

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The equivalence guard of the pruned sweep (same spirit as the
// scheduler's golden/equivalence tests): over the seed spaces, every
// strategy and every objective, a pruned BestOnly search must return a
// Best point bit-identical to the unpruned full search's, and a Prune
// request without BestOnly must fall back to full evaluation with
// identical Points, TopK and Pareto front.

func equivSpaces() []Space {
	return []Space{
		edgeSpace(), // 2-way, 8x4
		{Class: accel.Edge,
			Styles:  []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao, dataflow.Eyeriss},
			PEUnits: 8, BWUnits: 4}, // 3-way
		{Class: accel.Mobile,
			Styles:  []dataflow.Style{dataflow.ShiDiannao, dataflow.NVDLA},
			PEUnits: 8, BWUnits: 8}, // pow2-friendly for Binary
	}
}

func samePoint(t *testing.T, label string, a, b Point) {
	t.Helper()
	if a.HDA.Name != b.HDA.Name || a.HDA.String() != b.HDA.String() {
		t.Errorf("%s: HDA %v (%s) != %v (%s)", label, a.HDA, a.HDA.Name, b.HDA, b.HDA.Name)
	}
	if a.LatencySec != b.LatencySec || a.EnergyMJ != b.EnergyMJ || a.EDP != b.EDP {
		t.Errorf("%s: metrics (%g,%g,%g) != (%g,%g,%g)",
			label, a.LatencySec, a.EnergyMJ, a.EDP, b.LatencySec, b.EnergyMJ, b.EDP)
	}
}

func TestPrunedSearchEquivalence(t *testing.T) {
	cache := testCache()
	w := workload.MustNew("equiv", []workload.Entry{
		{Model: "mobilenetv1", Batches: 2},
		{Model: "brq-handpose", Batches: 1},
	})
	for _, sp := range equivSpaces() {
		for _, strat := range []Strategy{Exhaustive, Binary, Random} {
			for _, obj := range []Objective{ObjectiveEDP, ObjectiveLatency, ObjectiveEnergy} {
				label := sp.Class.Name + "/" + strat.String() + "/" + obj.String()

				base := DefaultOptions()
				base.Strategy = strat
				base.Objective = obj
				base.Samples = 10
				base.Seed = 5

				full, err := Search(cache, sp, w, base)
				if err != nil {
					t.Fatalf("%s: unpruned: %v", label, err)
				}

				// Pruned best-only search: identical Best.
				pruned := base
				pruned.Prune = true
				pruned.BestOnly = true
				fast, err := Search(cache, sp, w, pruned)
				if err != nil {
					t.Fatalf("%s: pruned: %v", label, err)
				}
				samePoint(t, label+"/best", fast.Best, full.Best)
				samePoint(t, label+"/best-vs-top1", fast.Best, full.TopK(obj, 1)[0])
				if fast.Explored+fast.Pruned != full.Explored {
					t.Errorf("%s: pruned coverage %d+%d != space %d",
						label, fast.Explored, fast.Pruned, full.Explored)
				}
				if fast.Points != nil || fast.Pareto != nil {
					t.Errorf("%s: BestOnly retained a cloud (%d points, %d front)",
						label, len(fast.Points), len(fast.Pareto))
				}

				// Prune without BestOnly: the full front is requested, so
				// pruning must disable itself and everything matches.
				cloud := base
				cloud.Prune = true
				wide, err := Search(cache, sp, w, cloud)
				if err != nil {
					t.Fatalf("%s: prune-with-cloud: %v", label, err)
				}
				if wide.Pruned != 0 {
					t.Errorf("%s: pruning fired (%d) despite a requested Pareto front", label, wide.Pruned)
				}
				if len(wide.Points) != len(full.Points) {
					t.Fatalf("%s: cloud %d points != %d", label, len(wide.Points), len(full.Points))
				}
				for i := range full.Points {
					samePoint(t, label+"/cloud", wide.Points[i], full.Points[i])
				}
				if len(wide.Pareto) != len(full.Pareto) {
					t.Fatalf("%s: Pareto %d != %d", label, len(wide.Pareto), len(full.Pareto))
				}
				for i := range full.Pareto {
					samePoint(t, label+"/pareto", wide.Pareto[i], full.Pareto[i])
				}
				wantTop := full.TopK(obj, 3)
				gotTop := wide.TopK(obj, 3)
				for i := range wantTop {
					samePoint(t, label+"/topk", gotTop[i], wantTop[i])
				}
			}
		}
	}
}

// TestBoundIsSound: on every point of a full sweep, the objective
// lower bound must not exceed the point's true objective — the
// property the pruning-identity argument rests on.
func TestBoundIsSound(t *testing.T) {
	cache := testCache()
	w := smallWorkload()
	sp := edgeSpace()
	for _, obj := range []Objective{ObjectiveEDP, ObjectiveLatency, ObjectiveEnergy} {
		opts := DefaultOptions()
		opts.Objective = obj
		sw, err := NewSweeper(cache, sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sw.Sweep(w)
		if err != nil {
			t.Fatal(err)
		}
		// The space fits in one block: one slot per point.
		if len(sw.slots) != len(res.Points) {
			t.Fatalf("%d slots for %d points", len(sw.slots), len(res.Points))
		}
		for i := range sw.slots {
			sl := &sw.slots[i]
			v := res.Points[sl.idx].Value(obj)
			if bound := sl.lowerBound(cache, obj, w); bound > v {
				t.Errorf("%s: point %d bound %g exceeds objective %g", obj, sl.idx, bound, v)
			}
		}
	}
}

// TestPrunedSweepPrunes: on the seed space the bound must actually
// fire for a meaningful share of the partitions (otherwise the fast
// path is dead weight) — and the winner must still match.
func TestPrunedSweepPrunes(t *testing.T) {
	cache := testCache()
	w := smallWorkload()
	opts := DefaultOptions()
	opts.Prune = true
	opts.BestOnly = true
	res, err := Search(cache, edgeSpace(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == 0 {
		t.Logf("warning: bound pruned nothing on the seed space (explored %d)", res.Explored)
	}
	if res.Explored+res.Pruned != 21 {
		t.Errorf("coverage %d+%d != 21", res.Explored, res.Pruned)
	}
}

// TestWorkerCountInvariance enforces "Result is deterministic across
// worker counts" for every strategy, repeatedly: a sweep on one worker
// and on four must agree on every point's name, partition and metrics,
// the Pareto front, Best and coverage. Pruned sweeps must agree on
// Explored and Pruned themselves: the cut is a property of the bounds
// and values, not of which worker evaluated what.
func TestWorkerCountInvariance(t *testing.T) {
	cache := testCache()
	w := workload.MustNew("invariance", []workload.Entry{
		{Model: "mobilenetv1", Batches: 2},
		{Model: "brq-handpose", Batches: 1},
	})
	render := func(ps ...Point) string {
		s := ""
		for _, p := range ps {
			s += fmt.Sprintf("%s %v %g %g %g\n", p.HDA.Name, p.HDA, p.LatencySec, p.EnergyMJ, p.EDP)
		}
		return s
	}
	for _, sp := range equivSpaces() {
		for _, strat := range []Strategy{Exhaustive, Binary, Random} {
			for _, prune := range []bool{false, true} {
				label := fmt.Sprintf("%s/%s/prune=%v", sp.Class.Name, strat, prune)
				var want string
				for rep := 0; rep < 3; rep++ {
					for _, workers := range []int{1, 4} {
						opts := DefaultOptions()
						opts.Strategy = strat
						opts.Samples = 10
						opts.Seed = 5
						opts.Workers = workers
						opts.Prune, opts.BestOnly = prune, prune
						res, err := Search(cache, sp, w, opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						got := fmt.Sprintf("best %sexplored %d pruned %d\n", render(res.Best), res.Explored, res.Pruned)
						if !prune {
							got += fmt.Sprintf("points\n%spareto\n%s", render(res.Points...), render(res.Pareto...))
						}
						if want == "" {
							want = got
						} else if got != want {
							t.Fatalf("%s: run %d on %d workers diverged:\n%s\nwant:\n%s", label, rep, workers, got, want)
						}
					}
				}
			}
		}
	}
}

// TestBestFirstCut pins the pruned sweep's coverage on a re-sweep
// probe's shape: a light-traffic tenant mix on Edge at the paper's
// 16/8 granularity (105 partitions). On one worker and on four, cold
// and warm, Explored must be exactly the number of partitions whose
// bound is at or below Best's value, and Best must match the
// exhaustive sweep's.
func TestBestFirstCut(t *testing.T) {
	cache := testCache()
	w := workload.MustNew("observed", []workload.Entry{
		{Model: "mobilenetv1", Batches: 4},
		{Model: "mobilenetv2", Batches: 2},
		{Model: "brq-handpose", Batches: 2},
	})
	sp := Space{Class: accel.Edge, Styles: []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao}, PEUnits: 16, BWUnits: 8}
	exh, err := NewSweeper(cache, sp, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	full, err := exh.Sweep(w)
	if err != nil {
		t.Fatal(err)
	}
	v := full.Best.Value(ObjectiveEDP)
	want := 0
	for i := range exh.slots {
		if exh.slots[i].lowerBound(cache, ObjectiveEDP, w) <= v {
			want++
		}
	}
	// Moves only with the cost model or the bound.
	if len(full.Points) != 105 || want != 48 {
		t.Errorf("%d partitions with %d bounds at or below the optimum, want 105 and 48", len(full.Points), want)
	}
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		opts.Prune, opts.BestOnly = true, true
		sw, err := NewSweeper(cache, sp, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{"cold", "warm"} {
			res, err := sw.Sweep(w)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%d workers, %s", workers, phase)
			samePoint(t, label, res.Best, full.Best)
			if res.Explored != want || res.Pruned != len(full.Points)-want {
				t.Errorf("%s: explored %d pruned %d, want %d and %d", label, res.Explored, res.Pruned, want, len(full.Points)-want)
			}
		}
	}
}

// TestBestFirstCutAcrossBlocks: a space larger than one block (the
// 3-way Edge space at 16/16 units, 11025 partitions) is swept block by
// block, carrying the incumbent. Best must match the unpruned sweep, and each
// block's cut must count the block's partitions whose bound is at or
// below the best value known once the block is done — on one worker
// and on four.
func TestBestFirstCutAcrossBlocks(t *testing.T) {
	cache := testCache()
	w := workload.MustNew("blocks", []workload.Entry{{Model: "brq-handpose", Batches: 1}})
	sp := Space{Class: accel.Edge,
		Styles:  []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao, dataflow.Eyeriss},
		PEUnits: 16, BWUnits: 16}
	opts := DefaultOptions()
	full, err := Search(cache, sp, w, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The reference cut, from the design cloud and freshly built bounds.
	want, best := 0, math.Inf(1)
	var bounds []float64
	streamPartitions(sp, opts, func(idx int, part []int) bool {
		sl := partSlot{idx: idx, part: append([]int(nil), part...)}
		if _, err := sl.hda(sp); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, sl.lowerBound(cache, ObjectiveEDP, w))
		return true
	})
	for base := 0; base < len(bounds); base += sched.MaxTables {
		end := min(base+sched.MaxTables, len(bounds))
		for _, p := range full.Points[base:end] {
			best = min(best, p.Value(ObjectiveEDP))
		}
		for _, b := range bounds[base:end] {
			if b <= best {
				want++
			}
		}
	}

	if len(bounds) <= 2*sched.MaxTables || want == len(bounds) {
		t.Fatalf("reference cut %d of %d: want three blocks and some pruning", want, len(bounds))
	}
	for _, workers := range []int{1, 4} {
		pruned := opts
		pruned.Workers = workers
		pruned.Prune, pruned.BestOnly = true, true
		res, err := Search(cache, sp, w, pruned)
		if err != nil {
			t.Fatal(err)
		}
		samePoint(t, fmt.Sprintf("%d workers", workers), res.Best, full.Best)
		if res.Explored != want || res.Explored+res.Pruned != len(bounds) {
			t.Errorf("%d workers: explored %d pruned %d, want %d of %d", workers, res.Explored, res.Pruned, want, len(bounds))
		}
	}
}
