package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/energy"
	"repro/internal/maestro"
)

func testHDA(t testing.TB) *accel.HDA {
	t.Helper()
	h, err := accel.New("serve-test", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func testEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := New(maestro.NewCache(energy.Default28nm()), testHDA(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSubmitScheduleStats walks one request through the whole admit →
// incremental schedule → stats pipeline.
func TestSubmitScheduleStats(t *testing.T) {
	e := testEngine(t)
	ticket, err := e.Submit(Request{Tenant: "a", Model: "mobilenetv1", SLACycles: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ticket.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusDone {
		t.Fatalf("status %q, want done (err %q)", rec.Status, rec.Err)
	}
	if rec.FinishCycle <= rec.StartCycle || rec.LatencyCycles <= 0 || rec.BusyCycles <= 0 {
		t.Errorf("degenerate placement: %+v", rec)
	}
	if rec.SLAViolated {
		t.Errorf("absurdly generous SLA violated: latency %d", rec.LatencyCycles)
	}

	st, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.Completed != 1 || st.Pending != 0 {
		t.Errorf("stats %+v, want 1 submitted/completed", st)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Tenant != "a" {
		t.Fatalf("tenant stats %+v", st.Tenants)
	}
	ts := st.Tenants[0]
	if ts.P50LatencyCycles != rec.LatencyCycles || ts.MeanLatencyCycles != rec.LatencyCycles {
		t.Errorf("single-request percentiles %+v != latency %d", ts, rec.LatencyCycles)
	}
	if ts.SLATracked != 1 || ts.SLAViolations != 0 {
		t.Errorf("SLA accounting %+v", ts)
	}
	if err := e.Snapshot().Validate(); err != nil {
		t.Errorf("final schedule invalid: %v", err)
	}
}

// TestMultiTenantInterleaved drives the acceptance scenario: >= 100
// interleaved requests from multiple tenants submitted concurrently,
// every one completing with per-request latency stats, and the
// committed schedule staying valid.
func TestMultiTenantInterleaved(t *testing.T) {
	e := testEngine(t)
	type stream struct {
		tenant string
		models []string
		count  int
		prio   int
	}
	streams := []stream{
		{tenant: "arvr", models: []string{"mobilenetv2", "brq-handpose"}, count: 40, prio: 1},
		{tenant: "mlperf", models: []string{"mobilenetv1", "ssd-mobilenetv1"}, count: 40},
		{tenant: "batch", models: []string{"resnet50"}, count: 24},
	}

	var wg sync.WaitGroup
	recs := make(chan Record, 200)
	errs := make(chan error, 200)
	for _, s := range streams {
		wg.Add(1)
		go func(s stream) {
			defer wg.Done()
			for i := 0; i < s.count; i++ {
				ticket, err := e.Submit(Request{
					Tenant:       s.tenant,
					Model:        s.models[i%len(s.models)],
					Priority:     s.prio,
					SLACycles:    1 << 50,
					ArrivalCycle: int64(i) * 1_000_000,
				})
				if err != nil {
					errs <- err
					return
				}
				rec, err := ticket.Wait(context.Background())
				if err != nil {
					errs <- err
					return
				}
				recs <- rec
			}
		}(s)
	}
	wg.Wait()
	close(recs)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := 0
	for rec := range recs {
		total++
		if rec.Status != StatusDone {
			t.Fatalf("request %d: status %q err %q", rec.ID, rec.Status, rec.Err)
		}
		if rec.LatencyCycles <= 0 || rec.LatencyCycles < rec.BusyCycles {
			t.Errorf("request %d: implausible latency %d (busy %d)", rec.ID, rec.LatencyCycles, rec.BusyCycles)
		}
		if rec.QueueCycles < 0 {
			t.Errorf("request %d: negative queueing", rec.ID)
		}
	}
	if want := 40 + 40 + 24; total != want {
		t.Fatalf("%d records, want %d", total, want)
	}

	st, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != int64(total) || st.Failed != 0 || st.Rejected != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.Tenants) != 3 {
		t.Fatalf("%d tenant groups, want 3", len(st.Tenants))
	}
	for _, ts := range st.Tenants {
		if ts.Completed == 0 || ts.P50LatencyCycles <= 0 || ts.P99LatencyCycles < ts.P50LatencyCycles {
			t.Errorf("tenant %s: degenerate stats %+v", ts.Tenant, ts)
		}
	}
	if st.SimThroughputRPS <= 0 {
		t.Error("no simulated throughput")
	}
	if st.CostCacheEntries == 0 {
		t.Error("cost cache unused across requests")
	}

	snap := e.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatalf("committed schedule invalid after %d requests: %v", total, err)
	}
	if got := snap.Workload.NumInstances() + snap.Retired.Instances; got != total {
		t.Errorf("schedule has %d live + retired instances, want %d", got, total)
	}
}

// TestAdmissionControl: full queues and unknown models are rejected
// and accounted.
func TestAdmissionControl(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxQueue = 1
	// A throttled engine would drain the queue instantly; block it by
	// not starting... instead, use a huge first request so later ones
	// queue behind it briefly. Simpler: submit from a stopped clock is
	// not possible, so rely on MaxQueue=1 with rapid submission.
	e, err := New(maestro.NewCache(energy.Default28nm()), testHDA(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(Request{Tenant: "a", Model: "nope"}); err == nil {
		t.Error("unknown model accepted")
	}
	var rejected bool
	for i := 0; i < 64; i++ {
		if _, err := e.Submit(Request{Tenant: "a", Model: "resnet50"}); err != nil {
			rejected = true
			break
		}
	}
	if !rejected {
		t.Log("queue never filled (scheduler outpaced submission); admission control untested here")
	}
	st, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Error("rejections not accounted (unknown model should count)")
	}
	if _, err := e.Submit(Request{Tenant: "a", Model: "resnet50"}); err == nil {
		t.Error("submission accepted after drain")
	}
}

// TestDrainTimeout: a cancelled context unblocks Drain.
func TestDrainTimeout(t *testing.T) {
	e := testEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// No pending work: drain should win the race and return nil error
	// almost always; either way it must return promptly.
	done := make(chan struct{})
	go func() {
		_, _ = e.Drain(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain hung")
	}
}
