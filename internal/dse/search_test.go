package dse

import (
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/maestro"
	"repro/internal/workload"
)

// TestSearchFailFast: when a partition evaluation errors (here: a
// priority vector that cannot match the workload), the worker pool
// must short-circuit instead of evaluating the whole space, and
// Search must surface the error.
func TestSearchFailFast(t *testing.T) {
	cache := maestro.NewCache(energy.Default28nm())
	w := workload.MustNew("ff", []workload.Entry{{Model: "mobilenetv1", Batches: 2}})
	sp := Space{
		Class:  accel.Edge,
		Styles: []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao},
		// 15 PE x 7 BW compositions = 105 points: big enough that a
		// full evaluation would dwarf a short-circuited one.
		PEUnits: 16, BWUnits: 8,
	}
	opts := DefaultOptions()
	opts.Sched.Priorities = []int{1} // 1 priority, 2 instances: every evaluate fails

	start := time.Now()
	_, err := Search(cache, sp, w, opts)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Search succeeded with an invalid priority vector")
	}

	// Reference: how long does the full healthy space take? The failed
	// search must not have paid anything close to it (each worker may
	// finish its in-flight evaluation, nothing more).
	opts.Sched.Priorities = nil
	healthyStart := time.Now()
	if _, err := Search(cache, sp, w, opts); err != nil {
		t.Fatal(err)
	}
	healthy := time.Since(healthyStart)
	if elapsed > healthy {
		t.Errorf("failed search took %v, longer than evaluating the whole space (%v): no short-circuit", elapsed, healthy)
	}
}

// TestSearchWorkerCountInvariance: the streamed per-worker Best
// tracking and its merge must reproduce the sequential scan's result
// (lowest objective, earliest enumeration index on ties) for any
// worker count.
func TestSearchWorkerCountInvariance(t *testing.T) {
	cache := maestro.NewCache(energy.Default28nm())
	w := workload.MustNew("inv", []workload.Entry{
		{Model: "mobilenetv1", Batches: 1},
		{Model: "brq-handpose", Batches: 1},
	})
	sp := Space{
		Class:   accel.Edge,
		Styles:  []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao},
		PEUnits: 8, BWUnits: 4,
	}

	var ref *Result
	for _, workers := range []int{1, 2, 7} {
		opts := DefaultOptions()
		opts.Workers = workers
		res, err := Search(cache, sp, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if len(res.Points) != len(ref.Points) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(res.Points), len(ref.Points))
		}
		for i := range res.Points {
			if res.Points[i].EDP != ref.Points[i].EDP ||
				res.Points[i].LatencySec != ref.Points[i].LatencySec ||
				res.Points[i].EnergyMJ != ref.Points[i].EnergyMJ {
				t.Fatalf("workers=%d: point %d differs from workers=1", workers, i)
			}
		}
		if res.Best.HDA.Name != ref.Best.HDA.Name || res.Best.EDP != ref.Best.EDP {
			t.Errorf("workers=%d: best %s (EDP %g) != reference best %s (EDP %g)",
				workers, res.Best.HDA.Name, res.Best.EDP, ref.Best.HDA.Name, ref.Best.EDP)
		}
		if len(res.Pareto) != len(ref.Pareto) {
			t.Errorf("workers=%d: Pareto size %d != %d", workers, len(res.Pareto), len(ref.Pareto))
		}
	}
}

// TestColdSearchInternsBandwidthFreeKeys: a cold search interns one
// footprint per bandwidth-free (shape, style, PEs, L2) key it touches,
// however many bandwidth shares each PE count is scheduled under, and
// a warm re-search interns nothing new.
func TestColdSearchInternsBandwidthFreeKeys(t *testing.T) {
	cache := maestro.NewCache(energy.Default28nm())
	w := workload.MustNew("keys", []workload.Entry{
		{Model: "mobilenetv2", Batches: 1},
		{Model: "brq-handpose", Batches: 1},
	})
	sp := Space{
		Class:  accel.Mobile,
		Styles: []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao},
		// 15 PE x 7 BW compositions: each PE split under 7 bandwidths.
		PEUnits: 16, BWUnits: 8,
	}
	opts := DefaultOptions()
	if _, err := Search(cache, sp, w, opts); err != nil {
		t.Fatal(err)
	}

	type key struct {
		shape dnn.ShapeKey
		style dataflow.Style
		pes   int
		l2    int64
	}
	parts, err := enumerate(sp.withDefaults(), opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[key]bool)
	peUnit := sp.Class.PEs / sp.PEUnits
	for _, part := range parts {
		for i, st := range sp.Styles {
			for _, in := range w.Instances {
				for li := range in.Model.Layers {
					keys[key{in.Model.Layers[li].Key(), st, part[i] * peUnit, sp.Class.GlobalBufBytes}] = true
				}
			}
		}
	}
	if got := cache.Len(); got != len(keys) {
		t.Errorf("Len() = %d after a cold search, want %d distinct bandwidth-free keys", got, len(keys))
	}
	if got := cache.MappingLen(); got != len(keys) {
		t.Errorf("MappingLen() = %d, want %d: one class fixes L2, so each footprint has its own mapping", got, len(keys))
	}
	if _, err := Search(cache, sp, w, opts); err != nil {
		t.Fatal(err)
	}
	if got := cache.Len(); got != len(keys) {
		t.Errorf("a warm search grew Len() to %d, want %d", got, len(keys))
	}
}
