package dse

import "testing"

// TestObjectiveSelection: the Best point must minimize the configured
// objective, and the three objectives must be able to disagree (the
// Pareto trade-off exists).
func TestObjectiveSelection(t *testing.T) {
	cache := testCache()
	w := smallWorkload()
	bests := map[Objective]Point{}
	for _, obj := range []Objective{ObjectiveEDP, ObjectiveLatency, ObjectiveEnergy} {
		opts := DefaultOptions()
		opts.Objective = obj
		res, err := Search(cache, edgeSpace(), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Points {
			if p.Value(obj) < res.Best.Value(obj) {
				t.Errorf("%v: best not minimal (%g < %g)", obj, p.Value(obj), res.Best.Value(obj))
			}
		}
		bests[obj] = res.Best
	}
	// The latency-optimal point cannot have lower latency than itself
	// but the energy winner should not beat it on latency.
	if bests[ObjectiveEnergy].LatencySec < bests[ObjectiveLatency].LatencySec {
		t.Error("energy-optimal point beats the latency-optimal point on latency")
	}
	if bests[ObjectiveLatency].EnergyMJ < bests[ObjectiveEnergy].EnergyMJ {
		t.Error("latency-optimal point beats the energy-optimal point on energy")
	}
}

func TestObjectiveString(t *testing.T) {
	if ObjectiveEDP.String() != "edp" || ObjectiveLatency.String() != "latency" || ObjectiveEnergy.String() != "energy" {
		t.Error("objective names")
	}
	// An out-of-range objective is EDP in name and value.
	if o := Objective(7); o.String() != "edp" || o.Pick(1, 2, 3) != 3 {
		t.Errorf("out-of-range objective: %q picks %g, want edp and 3", o, o.Pick(1, 2, 3))
	}
}
