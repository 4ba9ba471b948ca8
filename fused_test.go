package herald

// End-to-end acceptance of layer-fused segment serving: on a
// dataflow-specialized fleet, fused segment chains must beat unfused
// whole-request dispatch on burst makespan (the improvement
// BenchmarkFusedServing gates).

import (
	"context"
	"slices"
	"testing"

	"repro/internal/serve"
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
// final fleet stats (MakespanCycles is the burst makespan, the latest
// committed cycle across replicas) with the requests' final records.
// The replicas serve different partitions, so the fleet routes each
// segment on its own. A manual fleet admits the burst with one Admit
// call, so its makespan is a function of the burst alone; a live fleet
// admits as the requests arrive, the way heraldd serves them.
func driveFusedBurst(tb testing.TB, cache *CostCache, hdas []*HDA, plans map[string]SegmentPlan, pairs int, manual bool) (FleetStats, []RequestRecord) {
	tb.Helper()
	opts := DefaultFleetOptions()
	opts.Serve.Plans = plans
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
	recs := make([]RequestRecord, 0, len(tickets))
	for _, t := range tickets {
		rec, err := t.Wait(context.Background())
		if err != nil {
			tb.Fatal(err)
		}
		if rec.Status != StatusDone {
			tb.Fatalf("request %d: %q err %q", rec.ID, rec.Status, rec.Err)
		}
		recs = append(recs, rec)
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return st, recs
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
			ust, _ := driveFusedBurst(t, cache, hdas, nil, pairs, mode.manual)
			st, _ := driveFusedBurst(t, cache, hdas, plans, pairs, mode.manual)
			unfused, fused := ust.MakespanCycles, st.MakespanCycles

			if fused <= 0 || unfused <= 0 {
				t.Fatalf("degenerate makespans: unfused %d, fused %d", unfused, fused)
			}
			speedup := float64(unfused) / float64(fused)
			t.Logf("burst makespan %d unfused, %d fused: %.3fx", unfused, fused, speedup)
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

// TestFusedRequestsCountOnce: the fleet routes the AR/VR burst's
// segments across the FDA pair and counts each fused request once — in
// submitted and completed, and in its tenant's latency window, whose
// p99 is the p99 of the merged records' request latencies.
func TestFusedRequestsCountOnce(t *testing.T) {
	cache := NewCostCache(DefaultEnergyTable())
	hdas, plans := fusedFleetSetup(t, cache)
	const pairs = 16
	st, recs := driveFusedBurst(t, cache, hdas, plans, pairs, true)
	if st.Submitted != 2*pairs || st.Completed != 2*pairs {
		t.Fatalf("submitted %d, completed %d: want %d fused requests counted once", st.Submitted, st.Completed, 2*pairs)
	}
	if st.CrossReplicaHandoffs == 0 {
		t.Fatal("no segment crossed replicas: the dispatcher did not fuse")
	}
	lat := make(map[string][]int64)
	for _, rec := range recs {
		lat[rec.Tenant] = append(lat[rec.Tenant], rec.LatencyCycles)
	}
	if len(st.Tenants) != len(lat) {
		t.Fatalf("%d tenant rows, want %d", len(st.Tenants), len(lat))
	}
	for _, ts := range st.Tenants {
		ls := lat[ts.Tenant]
		slices.Sort(ls)
		if ts.Submitted != int64(len(ls)) || ts.P99LatencyCycles != serve.Percentile(ls, 99) {
			t.Errorf("%s: %d submitted, p99 %d; want %d requests, p99 %d of the merged records",
				ts.Tenant, ts.Submitted, ts.P99LatencyCycles, len(ls), serve.Percentile(ls, 99))
		}
	}
}
