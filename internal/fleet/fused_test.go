package fleet

// Tests of fused serving — the dispatcher's segment chains on mixed
// replica sets, the engines' chains on uniform ones — and the decayed
// observed mix.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/dse"
	"repro/internal/maestro"
	"repro/internal/serve"
)

// fleetPlans computes multi-segment plans for the named models on the
// fleet test HDA.
func fleetPlans(t testing.TB, cache *maestro.Cache, names ...string) map[string]dse.SegmentPlan {
	t.Helper()
	h := testHDA(t)
	plans := make(map[string]dse.SegmentPlan)
	for _, name := range names {
		m, err := dnn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := dse.PlanSegments(cache, h, m, dse.ObjectiveEDP, 4)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumSegments() < 2 {
			t.Fatalf("%s does not split on the test HDA", name)
		}
		plans[name] = p
	}
	return plans
}

// mixedHDAs is a mixed replica set: the test HDA and its 768/256
// re-split of the same edge silicon. The partitions differ, so the
// dispatcher decomposes fused requests across them.
func mixedHDAs(t testing.TB) []*accel.HDA {
	t.Helper()
	h, err := accel.New("fleet-test-768", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 768, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 256, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []*accel.HDA{testHDA(t), h}
}

// fusedFleet starts a fused fleet on the mixed replica set.
func fusedFleet(t testing.TB, cache *maestro.Cache, plans map[string]dse.SegmentPlan) *Fleet {
	t.Helper()
	opts := DefaultOptions()
	opts.Serve.Plans = plans
	f, err := New(cache, mixedHDAs(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetFusedDispatch: on a mixed replica set a fused request is
// decomposed by the dispatcher and resolves to one merged record whose
// segments respect completion-chained precedence, each carrying its
// serving replica; the fleet counts each request once, and its fused
// counters conserve.
func TestFleetFusedDispatch(t *testing.T) {
	cache := newTestCache()
	plans := fleetPlans(t, cache, "mobilenetv2", "mobilenetv1")
	f := fusedFleet(t, cache, plans)

	const reqsPerModel = 8
	var tickets []*Ticket
	for i := 0; i < reqsPerModel; i++ {
		for _, model := range []string{"mobilenetv2", "mobilenetv1"} {
			tk, err := f.Submit(serve.Request{
				Tenant: "ar", Model: model, SLACycles: 1 << 50,
				ArrivalCycle: int64(i) * 400_000,
			})
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
	}
	for i, tk := range tickets {
		rec, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rec.Status != serve.StatusDone {
			t.Fatalf("request %d: %q err %q", i, rec.Status, rec.Err)
		}
		if len(rec.Segments) != plans[rec.Model].NumSegments() {
			t.Fatalf("request %d: %d segments, want %d", i, len(rec.Segments), plans[rec.Model].NumSegments())
		}
		for k, sr := range rec.Segments {
			if sr.FinishCycle <= sr.StartCycle {
				t.Errorf("request %d segment %d: degenerate [%d,%d]", i, k, sr.StartCycle, sr.FinishCycle)
			}
			if k > 0 && sr.StartCycle < rec.Segments[k-1].FinishCycle {
				t.Errorf("request %d segment %d starts %d before predecessor finish %d",
					i, k, sr.StartCycle, rec.Segments[k-1].FinishCycle)
			}
			if sr.Replica < 0 || sr.Replica > 1 {
				t.Errorf("request %d segment %d: replica %d", i, k, sr.Replica)
			}
		}
		if rec.FinishCycle != rec.Segments[len(rec.Segments)-1].FinishCycle {
			t.Errorf("request %d: finish %d != last segment", i, rec.FinishCycle)
		}
		if tk.Replica != rec.Segments[0].Replica {
			t.Errorf("request %d: ticket replica %d != first segment %d", i, tk.Replica, rec.Segments[0].Replica)
		}
	}

	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sg := st.Segments
	wantFused := int64(2 * reqsPerModel)
	if st.Submitted != wantFused || st.Completed != wantFused {
		t.Errorf("submitted %d, completed %d: want each fused request counted once (%d)", st.Submitted, st.Completed, wantFused)
	}
	for _, rs := range st.PerReplica {
		if rs.Engine.Submitted != 0 {
			t.Errorf("replica %d engine counted %d requests; the fleet owns the count", rs.Replica, rs.Engine.Submitted)
		}
	}
	if sg.FusedRequests != wantFused || sg.FusedCompleted != wantFused || sg.FusedFailed != 0 {
		t.Errorf("fused counters %+v, want %d completed", sg, wantFused)
	}
	wantSegs := int64(reqsPerModel * (plans["mobilenetv2"].NumSegments() + plans["mobilenetv1"].NumSegments()))
	if sg.Segments != wantSegs || sg.SegmentsCompleted != wantSegs || sg.SegmentsFailed != 0 {
		t.Errorf("segment counters %+v, want %d", sg, wantSegs)
	}
	if st.CrossReplicaHandoffs < 0 || st.CrossReplicaHandoffs > wantSegs-wantFused {
		t.Errorf("cross-replica handoffs %d out of range [0,%d]", st.CrossReplicaHandoffs, wantSegs-wantFused)
	}
	if sg.SegmentSpanCycles < sg.SegmentBusyCycles {
		t.Errorf("span %d < busy %d", sg.SegmentSpanCycles, sg.SegmentBusyCycles)
	}
}

// TestFusedPlanValidation: Fleet.Submit rejects a request whose plan
// does not tile its model (a gap, short coverage) instead of admitting
// a corrupt chain, and the rejection leaves no trace in the fleet's
// counters.
func TestFusedPlanValidation(t *testing.T) {
	m, err := dnn.ByName("mobilenetv1")
	if err != nil {
		t.Fatal(err)
	}
	L := m.NumLayers()
	for name, segs := range map[string][]dse.Segment{
		"gap":   {{From: 0, To: 5}, {From: 6, To: L}},     // gap at layer 5
		"short": {{From: 0, To: 5}, {From: 5, To: L - 1}}, // misses the last layer
	} {
		opts := DefaultOptions()
		opts.Serve.Plans = map[string]dse.SegmentPlan{"mobilenetv1": {Model: "mobilenetv1", Segments: segs}}
		f, err := Replicated(newTestCache(), testHDA(t), 2, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1"}); err == nil {
			t.Errorf("%s plan accepted", name)
		}
		st, err := f.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Submitted != 0 || st.Segments.FusedRequests != 0 {
			t.Errorf("%s plan: rejected request counted: %+v", name, st)
		}
	}
}

// TestCapturePlanIDs: the capture hook reports a fused request's plan
// id ("<model>/<segments>") from the one plan table, Serve.Plans, and
// "" for an unfused model.
func TestCapturePlanIDs(t *testing.T) {
	cache := newTestCache()
	plans := fleetPlans(t, cache, "mobilenetv2", "resnet50")
	opts := DefaultOptions()
	opts.Serve.Plans = plans
	var got []string
	opts.OnAccept = func(_ serve.Request, plan string) { got = append(got, plan) }
	f, err := New(cache, mixedHDAs(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, model := range []string{"mobilenetv2", "brq-handpose", "resnet50"} {
		tk, err := f.Submit(serve.Request{Tenant: "ar", Model: model, ArrivalCycle: int64(i) * 400_000})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := tk.Wait(context.Background())
		if err != nil || rec.Status != serve.StatusDone {
			t.Fatalf("%s: %+v %v", model, rec, err)
		}
		id := ""
		if p, ok := plans[model]; ok {
			id = fmt.Sprintf("%s/%d", model, p.NumSegments())
		}
		if len(rec.Segments) != plans[model].NumSegments() {
			t.Errorf("%s: %d segments, want %d", model, len(rec.Segments), plans[model].NumSegments())
		}
		want = append(want, id)
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("captured plan ids %q, want %q", got, want)
	}
}

// TestUniformFleetFusesInEngine: on identical replicas a fused request's
// segments go to one replica in one SubmitChain call, whose engine
// links them — no segment crosses replicas, every segment is stamped
// with the replica that served the request, and the fleet counts each
// request once, never the engines.
func TestUniformFleetFusesInEngine(t *testing.T) {
	cache := newTestCache()
	plans := fleetPlans(t, cache, "mobilenetv2", "mobilenetv1")
	opts := DefaultOptions()
	opts.Serve.Plans = plans
	opts.Serve.Manual = true
	f, err := Replicated(cache, testHDA(t), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		for _, model := range []string{"mobilenetv2", "mobilenetv1"} {
			tk, err := f.Submit(serve.Request{Tenant: "ar", Model: model, ArrivalCycle: int64(i) * 400_000})
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, tk)
		}
	}
	f.Admit()
	served := map[int]bool{}
	for i, tk := range tickets {
		rec, err := tk.Wait(context.Background())
		if err != nil || rec.Status != serve.StatusDone {
			t.Fatalf("request %d: %+v %v", i, rec, err)
		}
		if len(rec.Segments) != plans[rec.Model].NumSegments() {
			t.Fatalf("request %d: %d segments, want %d", i, len(rec.Segments), plans[rec.Model].NumSegments())
		}
		for k, sr := range rec.Segments {
			if sr.Replica != tk.Served() || sr.Replica != tk.Replica {
				t.Errorf("request %d segment %d: replica %d, ticket served by %d", i, k, sr.Replica, tk.Served())
			}
		}
		served[tk.Served()] = true
	}
	if !served[1] {
		t.Fatal("no request landed on replica 1; the replica stamp is untested")
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.CrossReplicaHandoffs != 0 {
		t.Errorf("%d cross-replica handoffs on identical replicas", st.CrossReplicaHandoffs)
	}
	n := int64(len(tickets))
	var admissions int64
	for _, rs := range st.PerReplica {
		admissions += rs.Dispatched
		if rs.Engine.Submitted != 0 {
			t.Errorf("replica %d engine counted %d requests; the fleet owns the count", rs.Replica, rs.Engine.Submitted)
		}
	}
	if admissions != n {
		t.Errorf("%d admissions for %d requests, want one SubmitChain each", admissions, n)
	}
	if st.Submitted != n || st.Completed != n || st.Segments.FusedCompleted != n {
		t.Errorf("submitted %d, completed %d, fused %d: want %d", st.Submitted, st.Completed, st.Segments.FusedCompleted, n)
	}
}

// TestFleetFusedMigrateStraddle: requests whose segment chains
// straddle a Migrate generation swap must complete — early segments
// drain cleanly on the old generation, later segments land on the new
// one (or the old one pre-quiesce), and no chain is lost or
// double-served.
func TestFleetFusedMigrateStraddle(t *testing.T) {
	cache := newTestCache()
	plans := fleetPlans(t, cache, "mobilenetv2")
	f := fusedFleet(t, cache, plans)

	const n = 12
	var wg sync.WaitGroup
	recs := make([]serve.Record, n)
	for i := 0; i < n; i++ {
		tk, err := f.Submit(serve.Request{
			Tenant: "ar", Model: "mobilenetv2", ArrivalCycle: int64(i) * 200_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, tk *Ticket) {
			defer wg.Done()
			recs[i], _ = tk.Wait(context.Background())
		}(i, tk)
	}

	// Swap generations while chains are in flight.
	if err := f.Migrate(context.Background(), nil); err == nil {
		t.Fatal("empty migration accepted")
	}
	if err := f.Migrate(context.Background(), f.ActiveHDAs()); err != nil {
		t.Fatal(err)
	}
	if f.Generation() != 1 {
		t.Fatalf("generation %d after migrate", f.Generation())
	}
	wg.Wait()

	oldIDs := map[int]bool{0: true, 1: true}
	for i, rec := range recs {
		if rec.Status != serve.StatusDone {
			t.Fatalf("request %d: %q err %q", i, rec.Status, rec.Err)
		}
		// Once a chain hops to the new generation it must not hop back
		// to a retired replica: old-generation engines quiesce at the
		// swap, so a later segment landing there would have been
		// rejected, not served.
		seenNew := false
		for k, sr := range rec.Segments {
			isOld := oldIDs[sr.Replica]
			if seenNew && isOld {
				t.Errorf("request %d segment %d went back to retired replica %d", i, k, sr.Replica)
			}
			if !isOld {
				seenNew = true
			}
		}
	}

	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments.FusedCompleted != n || st.Segments.FusedFailed != 0 {
		t.Errorf("fused counters after straddle: %+v", st.Segments)
	}
	wantSegs := int64(n * plans["mobilenetv2"].NumSegments())
	if st.Segments.SegmentsCompleted != wantSegs {
		t.Errorf("segments completed %d, want %d", st.Segments.SegmentsCompleted, wantSegs)
	}
}

// TestObservedMixDecay: with a half-life configured, the observed mix
// tracks recent traffic — 90 submissions of A followed by 30 of B
// must weight B above A (all-time counts would say 3:1 the other
// way), and a model decayed below the drop fraction leaves the mix.
func TestObservedMixDecay(t *testing.T) {
	opts := DefaultOptions()
	opts.MixHalfLife = 10
	f, err := Replicated(newTestCache(), testHDA(t), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Drain(context.Background())

	count := func(mix map[string]int, model string) int { return mix[model] }
	snapshot := func() map[string]int {
		m := map[string]int{}
		w := f.ObservedMix("mix")
		if w == nil {
			return m
		}
		for i := range w.Instances {
			m[w.Instances[i].Model.Name]++
		}
		return m
	}

	f.mu.Lock()
	for i := 0; i < 90; i++ {
		f.mixAdd("resnet50")
	}
	for i := 0; i < 30; i++ {
		f.mixAdd("mobilenetv1")
	}
	f.mu.Unlock()

	mix := snapshot()
	if count(mix, "mobilenetv1") <= count(mix, "resnet50") {
		t.Errorf("decayed mix %v: recent mobilenetv1 must outweigh stale resnet50", mix)
	}
	if count(mix, "resnet50") < 1 {
		t.Errorf("decayed mix %v: resnet50 still above the drop fraction here", mix)
	}

	// Decay resnet50 far below 1% of the total: it must drop out.
	f.mu.Lock()
	for i := 0; i < 600; i++ {
		f.mixAdd("mobilenetv1")
	}
	f.mu.Unlock()
	mix = snapshot()
	if count(mix, "resnet50") != 0 {
		t.Errorf("mix %v: resnet50 should have decayed out", mix)
	}
	if count(mix, "mobilenetv1") == 0 {
		t.Errorf("mix %v: live model missing", mix)
	}

	// Half-life 0 keeps the legacy all-time behavior: 90:30 -> 3:1.
	f2, err := Replicated(newTestCache(), testHDA(t), 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Drain(context.Background())
	f2.mu.Lock()
	for i := 0; i < 90; i++ {
		f2.mixAdd("resnet50")
	}
	for i := 0; i < 30; i++ {
		f2.mixAdd("mobilenetv1")
	}
	f2.mu.Unlock()
	legacy := map[string]int{}
	w := f2.ObservedMix("mix")
	if w == nil {
		t.Fatal("no legacy mix")
	}
	for i := range w.Instances {
		legacy[w.Instances[i].Model.Name]++
	}
	if legacy["resnet50"] != 3 || legacy["mobilenetv1"] != 1 {
		t.Errorf("legacy mix %v, want resnet50:3 mobilenetv1:1", legacy)
	}
}

// TestControllerConsumesDecayedMix: a controller attached to a
// half-life fleet probes the decayed mix — after traffic shifts, the
// probe's mix string reflects the recent model, not the stale one.
func TestControllerConsumesDecayedMix(t *testing.T) {
	f := resweepFleet(t, 1)
	f.mixDecay = 0.933 // half-life ~10 submissions, set directly for the probe

	f.mu.Lock()
	for i := 0; i < 90; i++ {
		f.mixAdd("resnet50")
	}
	for i := 0; i < 600; i++ {
		f.mixAdd("mobilenetv1")
	}
	f.mu.Unlock()

	c, err := NewController(f, ControllerOptions{Threshold: 1e9}) // never migrate
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Mix != "mobilenetv1:1" {
		t.Errorf("controller probed mix %q, want the decayed mobilenetv1:1", d.Mix)
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
