package fleet

import (
	"context"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dse"
	"repro/internal/serve"
	"repro/internal/workload"
)

func resweepFleet(t *testing.T, n int) *Fleet {
	t.Helper()
	cache := newTestCache()
	sp := dse.Space{
		Class:   accel.Edge,
		Styles:  []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao},
		PEUnits: 4, BWUnits: 2,
	}
	opts := dse.DefaultOptions()
	opts.BestOnly = true
	opts.Prune = true
	sw, err := dse.NewSweeper(cache, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	fopts := DefaultOptions()
	fopts.Sweeper = sw
	f, err := Replicated(cache, testHDA(t), n, fopts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestObservedMix: the dispatcher's per-model counts become a
// normalized deterministic workload.
func TestObservedMix(t *testing.T) {
	f := resweepFleet(t, 2)
	if mix := f.ObservedMix("mix"); mix != nil {
		t.Fatalf("mix before any traffic: %v", mix)
	}
	reqs := append(skewedRequests(2),
		serve.Request{Tenant: "light", Model: "mobilenetv1", ArrivalCycle: 0},
		serve.Request{Tenant: "light", Model: "mobilenetv1", ArrivalCycle: 0},
		serve.Request{Tenant: "light", Model: "mobilenetv1", ArrivalCycle: 0})
	for _, r := range reqs {
		tk, err := f.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mix := f.ObservedMix("mix")
	if mix == nil {
		t.Fatal("no mix after traffic")
	}
	// 2 resnet50 : 5 mobilenetv1 -> min=2 -> resnet 1, mobilenet
	// round(5/2)=3 (nearest, not ceiling: a 9:8 mix must stay ~1:1).
	want := map[string]int{"mobilenetv1": 3, "resnet50": 1}
	got := map[string]int{}
	for _, in := range mix.Instances {
		got[in.Model.Name]++
	}
	for m, n := range want {
		if got[m] != n {
			t.Errorf("mix[%s] = %d batches, want %d (full mix %v)", m, got[m], n, got)
		}
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestResweepObservedMix: a fleet with a sweeper re-runs the search on
// its own observed traffic and returns a servable best partition;
// repeated probes on the same history are identical (warm sweep state
// must not change the answer). Before traffic there is no mix to
// sweep.
func TestResweepObservedMix(t *testing.T) {
	f := resweepFleet(t, 2)
	if w := f.ObservedMix("observed-mix"); w != nil {
		t.Fatalf("observed mix before traffic: %v", w)
	}
	if _, err := f.Resweep(nil); err == nil {
		t.Fatal("resweep of no workload accepted")
	}
	for _, r := range skewedRequests(2) {
		tk, err := f.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	res1, err := f.Resweep(f.ObservedMix("observed-mix"))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Best.HDA == nil || res1.Best.HDA.NumSubs() != 2 {
		t.Fatalf("resweep best: %v", res1.Best.HDA)
	}
	if res1.Explored+res1.Pruned == 0 {
		t.Error("resweep covered no partitions")
	}
	res2, err := f.Resweep(f.ObservedMix("observed-mix"))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Best.HDA.String() != res2.Best.HDA.String() || res1.Best.EDP != res2.Best.EDP {
		t.Errorf("repeated resweep differs: %v vs %v", res1.Best.HDA, res2.Best.HDA)
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestResweepExplicitWorkload: any workload can be swept, traffic or
// not, and a fleet without a sweeper refuses.
func TestResweepExplicitWorkload(t *testing.T) {
	f := resweepFleet(t, 1)
	w := workload.MustNew("explicit", []workload.Entry{{Model: "unet", Batches: 1}})
	res, err := f.Resweep(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Schedule == nil {
		t.Error("resweep best has no schedule")
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	bare := testFleet(t, newTestCache(), 1, CostAware)
	if _, err := bare.Resweep(w); err == nil || !strings.Contains(err.Error(), "no sweeper") {
		t.Errorf("sweeper-less resweep: %v", err)
	}
	if _, err := bare.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
