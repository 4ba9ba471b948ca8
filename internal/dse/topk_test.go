package dse

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/energy"
	"repro/internal/maestro"
	"repro/internal/workload"
)

// TestTopK: the top-K extraction is sorted best-first under the
// objective, agrees with Best at k=1, and clamps k to the cloud.
func TestTopK(t *testing.T) {
	cache := maestro.NewCache(energy.Default28nm())
	sp := Space{
		Class:   accel.Edge,
		Styles:  []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao},
		PEUnits: 4, BWUnits: 2,
	}
	res, err := Search(cache, sp, workload.ARVRA(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 {
		t.Fatalf("tiny cloud: %d points", len(res.Points))
	}

	for _, obj := range []Objective{ObjectiveEDP, ObjectiveLatency, ObjectiveEnergy} {
		top := res.TopK(obj, 3)
		if len(top) != 3 {
			t.Fatalf("%s: TopK(3) returned %d", obj, len(top))
		}
		for i := 1; i < len(top); i++ {
			if top[i].Value(obj) < top[i-1].Value(obj) {
				t.Errorf("%s: TopK not sorted: %g before %g", obj, top[i-1].Value(obj), top[i].Value(obj))
			}
		}
	}

	// k=1 under the search objective is exactly Best.
	best := res.TopK(ObjectiveEDP, 1)
	if len(best) != 1 || best[0].HDA != res.Best.HDA {
		t.Errorf("TopK(EDP, 1) = %v, want Best %v", best[0].HDA, res.Best.HDA)
	}

	if got := res.TopK(ObjectiveEDP, len(res.Points)+10); len(got) != len(res.Points) {
		t.Errorf("oversized k returned %d of %d points", len(got), len(res.Points))
	}
	if res.TopK(ObjectiveEDP, 0) != nil || res.TopK(ObjectiveEDP, -1) != nil {
		t.Error("k <= 0 should return nil")
	}

	// TopK must not mutate the cloud's enumeration order.
	res2, err := Search(maestro.NewCache(energy.Default28nm()), sp, workload.ARVRA(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		if res.Points[i].EDP != res2.Points[i].EDP {
			t.Fatalf("point %d reordered after TopK", i)
		}
	}
}
