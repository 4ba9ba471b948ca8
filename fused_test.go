package herald

// End-to-end acceptance of layer-fused segment serving: on a
// dataflow-specialized fleet, fused segment chains must beat unfused
// whole-request dispatch on burst makespan (the improvement
// BenchmarkFusedServing gates).

import (
	"context"
	"testing"
)

// fusedFleetSetup builds the fused-vs-unfused comparison fixture: a
// two-dataflow planning HDA for the segment cuts and a fleet of one
// FDA per dataflow (the same silicon split by style, where a whole
// request must pick one dataflow but segments need not).
func fusedFleetSetup(tb testing.TB, cache *CostCache) ([]*HDA, map[string]SegmentPlan) {
	tb.Helper()
	planHDA, err := NewHDA("fused-plan", Edge, []Partition{
		{Style: NVDLA, PEs: 512, BWGBps: 8},
		{Style: ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		tb.Fatal(err)
	}
	plans := make(map[string]SegmentPlan)
	for _, name := range []string{"mobilenetv2", "mobilenetv1"} {
		m, err := ModelByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		p, err := PlanSegments(cache, planHDA, m, ObjectiveEDP, 4)
		if err != nil {
			tb.Fatal(err)
		}
		if p.NumSegments() < 2 {
			tb.Fatalf("%s does not split on the planning HDA", name)
		}
		plans[name] = p
	}
	nvdla, err := NewFDA(Edge, NVDLA)
	if err != nil {
		tb.Fatal(err)
	}
	shi, err := NewFDA(Edge, ShiDiannao)
	if err != nil {
		tb.Fatal(err)
	}
	return []*HDA{nvdla, shi}, plans
}

// driveFusedBurst submits pairs of render/track requests arriving at
// cycle 0, waits for every merged completion, drains, and returns the
// burst makespan (latest committed cycle across replicas) with the
// final fleet stats. A manual fleet admits the burst with one Admit
// call, so its makespan is a function of the burst alone; a live fleet
// admits as the requests arrive, the way heraldd serves them.
func driveFusedBurst(tb testing.TB, cache *CostCache, hdas []*HDA, plans map[string]SegmentPlan, pairs int, manual bool) (int64, FleetStats) {
	tb.Helper()
	opts := DefaultFleetOptions()
	opts.Plans = plans
	opts.Serve.Manual = manual
	f, err := NewFleet(cache, hdas, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tickets := make([]*FleetTicket, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		for _, rm := range [][2]string{{"render", "mobilenetv2"}, {"track", "mobilenetv1"}} {
			t, err := f.Submit(InferenceRequest{Tenant: rm[0], Model: rm[1], ArrivalCycle: 0})
			if err != nil {
				tb.Fatal(err)
			}
			tickets = append(tickets, t)
		}
	}
	if manual {
		f.Admit()
	}
	for _, t := range tickets {
		rec, err := t.Wait(context.Background())
		if err != nil {
			tb.Fatal(err)
		}
		if rec.Status != StatusDone {
			tb.Fatalf("request %d: %q err %q", rec.ID, rec.Status, rec.Err)
		}
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	var span int64
	for _, rs := range st.PerReplica {
		if rs.Engine.MakespanCycles > span {
			span = rs.Engine.MakespanCycles
		}
	}
	return span, st
}

// TestFusedServingImprovement pins the fused speedup the benchmark
// gate relies on: on the dataflow-specialized fleet, segment chains
// must finish the AR/VR burst at least 15% faster than whole-request
// dispatch (measured 1.2x+; the margin absorbs cost-model drift), and
// the fused counters must conserve at both granularities — on a live
// fleet (heraldd's path) and on a manual one.
func TestFusedServingImprovement(t *testing.T) {
	cache := NewCostCache(DefaultEnergyTable())
	hdas, plans := fusedFleetSetup(t, cache)
	const pairs = 16

	for _, mode := range []struct {
		name   string
		manual bool
	}{{"live", false}, {"manual", true}} {
		t.Run(mode.name, func(t *testing.T) {
			unfused, _ := driveFusedBurst(t, cache, hdas, nil, pairs, mode.manual)
			fused, st := driveFusedBurst(t, cache, hdas, plans, pairs, mode.manual)

			if fused <= 0 || unfused <= 0 {
				t.Fatalf("degenerate makespans: unfused %d, fused %d", unfused, fused)
			}
			speedup := float64(unfused) / float64(fused)
			if speedup < 1.15 {
				t.Errorf("fused burst makespan %d vs unfused %d: %.3fx, want >= 1.15x", fused, unfused, speedup)
			}

			sg := st.Segments
			wantFused := int64(2 * pairs)
			if sg.FusedRequests != wantFused || sg.FusedCompleted != wantFused || sg.FusedFailed != 0 {
				t.Errorf("fused request conservation: %+v, want %d completed", sg, wantFused)
			}
			wantSegs := int64(pairs * (plans["mobilenetv2"].NumSegments() + plans["mobilenetv1"].NumSegments()))
			if sg.Segments != wantSegs || sg.SegmentsCompleted != wantSegs || sg.SegmentsFailed != 0 {
				t.Errorf("segment conservation: %+v, want %d", sg, wantSegs)
			}
		})
	}
}
