package serve

// Regression tests for the serving-engine bug-fix batch: each test
// exercises the exact failure mode of the old behavior and fails
// against the pre-fix engine.

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/maestro"
	"repro/internal/workload"
)

func newTestCache() *maestro.Cache { return maestro.NewCache(energy.Default28nm()) }

// TestAdmitPartialBatchFailure: one infeasible admission must not
// poison the whole batch. The old admit failed every request in the
// batch when inc.Extend rejected it as a unit; now the batch is
// retried one by one and only the truly infeasible request fails. The
// poison here is a layer-less model — unschedulable by construction,
// and exactly the per-admission rejection Extend raises as a
// whole-batch error.
func TestAdmitPartialBatchFailure(t *testing.T) {
	e := testEngine(t)
	good, err := dnn.ByName("mobilenetv1")
	if err != nil {
		t.Fatal(err)
	}
	bad := &dnn.Model{Name: "empty"}

	mk := func(id int64, tenant string, m *dnn.Model) *pending {
		return &pending{
			rec:  &Record{ID: id, Tenant: tenant, Model: m.Name, Status: StatusQueued},
			inst: workload.Instance{Model: m, Batch: 1},
			done: make(chan struct{}),
		}
	}
	batch := []*pending{
		mk(1, "innocent-a", good),
		mk(2, "guilty", bad),
		mk(3, "innocent-b", good),
	}
	e.admit(batch)

	for _, p := range []*pending{batch[0], batch[2]} {
		if p.rec.Status != StatusDone {
			t.Errorf("innocent tenant %s: status %q err %q — poisoned by another tenant's infeasible request",
				p.rec.Tenant, p.rec.Status, p.rec.Err)
		}
		if p.rec.FinishCycle <= 0 {
			t.Errorf("innocent tenant %s: no placement: %+v", p.rec.Tenant, p.rec)
		}
	}
	if batch[1].rec.Status != StatusFailed || batch[1].rec.Err == "" {
		t.Errorf("infeasible request: status %q err %q, want failed", batch[1].rec.Status, batch[1].rec.Err)
	}
	if err := e.Snapshot().Validate(); err != nil {
		t.Errorf("schedule invalid after partial batch failure: %v", err)
	}
	if _, err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPopBatchRotationFairness: when the batch fills mid-pass, the
// rotation must resume from where the pass stopped. The old code only
// rotated after a *complete* pass, so under load (MaxBatch < number of
// tenants) the rotation never advanced and tenants at the tail of rr
// starved until the head tenants' queues drained.
func TestPopBatchRotationFairness(t *testing.T) {
	const perTenant = 4
	e := &Engine{
		opts:   Options{MaxBatch: 2, MaxQueue: 64, MaxRecords: 64, ClockGHz: 1},
		queues: make(map[string][]*pending),
	}
	tenants := []string{"a", "b", "c"}
	for _, tn := range tenants {
		for i := 0; i < perTenant; i++ {
			e.queues[tn] = append(e.queues[tn], &pending{rec: &Record{Tenant: tn}})
			e.npending++
		}
		e.rr = append(e.rr, tn)
	}

	served := map[string]int{}
	var firstThree []string
	for batchNo := 0; e.npending > 0; batchNo++ {
		batch := e.popBatchLocked()
		if len(batch) == 0 {
			t.Fatal("empty batch with pending work")
		}
		for _, p := range batch {
			served[p.rec.Tenant]++
			if batchNo < 3 {
				firstThree = append(firstThree, p.rec.Tenant)
			}
		}
	}

	// Three batches of two cover every tenant exactly twice under a
	// fair rotation; the old code served a,b three times and c never.
	count := map[string]int{}
	for _, tn := range firstThree {
		count[tn]++
	}
	for _, tn := range tenants {
		if count[tn] != 2 {
			t.Errorf("tenant %s served %d times in the first 3 saturated batches, want 2 (histogram %v)",
				tn, count[tn], count)
		}
	}
	for _, tn := range tenants {
		if served[tn] != perTenant {
			t.Errorf("tenant %s: %d total pops, want %d", tn, served[tn], perTenant)
		}
	}
}

// TestRecordInstanceZeroJSON: a placement at instance index 0 (and a
// start/queue of cycle 0) is a legitimate schedule position and must
// survive a JSON round trip. The old omitempty tags dropped the zero
// values, making "placed at instance 0" indistinguishable from "not
// scheduled".
func TestRecordInstanceZeroJSON(t *testing.T) {
	rec := Record{
		ID: 1, Tenant: "a", Model: "mobilenetv1", Status: StatusDone,
		Instance: 0, ArrivalCycle: 0, StartCycle: 0, FinishCycle: 100,
		QueueCycles: 0, BusyCycles: 100, LatencyCycles: 100,
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"instance":0`, `"start_cycle":0`, `"queue_cycles":0`, `"arrival_cycle":0`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("marshaled record drops %s: %s", field, data)
		}
	}
	var back Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Errorf("JSON round trip mutated the record:\n got %+v\nwant %+v", back, rec)
	}
}

// TestTicketWaitEvictionRace: with a tiny MaxRecords the eviction FIFO
// discards finished records faster than their waiters wake. The old
// Wait re-looked the record up in the engine's table and returned
// "record vanished"; the ticket now captures the final record at
// completion, so every Wait returns it regardless of eviction.
func TestTicketWaitEvictionRace(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxRecords = 1
	e, err := New(newTestCache(), testHDA(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ticket, err := e.Submit(Request{
				Tenant: "a", Model: "mobilenetv1", ArrivalCycle: int64(i) * 100_000,
			})
			if err != nil {
				errs <- err
				return
			}
			rec, err := ticket.Wait(context.Background())
			if err != nil {
				errs <- fmt.Errorf("request %d: %w", ticket.ID, err)
				return
			}
			if rec.Status != StatusDone || rec.ID != ticket.ID {
				errs <- fmt.Errorf("request %d: bad final record %+v", ticket.ID, rec)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitRequestWireFormat pins the shadowing of the embedded
// arrival field: marshaling a SubmitRequest emits the pointer field,
// and decoding an explicit value lands in the pointer, never silently
// in the embedded Request.
func TestSubmitRequestWireFormat(t *testing.T) {
	var sr SubmitRequest
	if err := json.Unmarshal([]byte(`{"tenant":"a","model":"m","arrival_cycle":7}`), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ArrivalCycle == nil || *sr.ArrivalCycle != 7 {
		t.Fatalf("explicit arrival not decoded into the pointer: %+v", sr)
	}
	sr.Normalize()
	if sr.Request.ArrivalCycle != 7 {
		t.Errorf("Normalize: arrival %d, want 7", sr.Request.ArrivalCycle)
	}
	var omitted SubmitRequest
	if err := json.Unmarshal([]byte(`{"tenant":"a","model":"m"}`), &omitted); err != nil {
		t.Fatal(err)
	}
	omitted.Normalize()
	if omitted.Request.ArrivalCycle != -1 {
		t.Errorf("omitted arrival should normalize to -1 (now), got %d", omitted.Request.ArrivalCycle)
	}
}

// TestTenantWindowAddOldestFirst: Add merges wrapped rings oldest-first
// and restarts the cursor, so an aggregate's tail holds the newest
// samples and a full merged window overwrites its oldest. The old Add
// appended a wrapped source in ring order with a stale cursor, so the
// next record overwrote the newest sample.
func TestTenantWindowAddOldestFirst(t *testing.T) {
	done := func(lat int64) *Record { return &Record{Status: StatusDone, LatencyCycles: lat} }
	var src TenantWindow
	for i := range int64(MaxLatencySamples + 10) {
		src.AddRecord(done(i))
	}
	var dst TenantWindow
	dst.Add(&src)
	want := make([]int64, MaxLatencySamples)
	for i := range want {
		want[i] = int64(10 + i)
	}
	if !slices.Equal(dst.Latencies, want) {
		t.Fatalf("merged wrapped window starts %v, want %v", dst.Latencies[:3], want[:3])
	}
	// The full merged window is a ring again: a record replaces the
	// oldest sample, and merging into the wrapped window keeps its
	// samples oldest-first ahead of the source's.
	dst.AddRecord(done(1 << 20))
	var more TenantWindow
	more.AddRecord(done(1 << 21))
	dst.Add(&more)
	want = append(want[1:], 1<<20, 1<<21)
	if !slices.Equal(dst.Latencies, want) {
		t.Fatalf("merged window ends %v, want %v", dst.Latencies[len(dst.Latencies)-3:], want[len(want)-3:])
	}
}

// TestLedgerOneRead: Ledger's aggregate counters are the sums of the
// windows returned with them, the copies keep their sample order (only
// clones are sorted for the percentiles) and the engine's own window
// is left untouched.
func TestLedgerOneRead(t *testing.T) {
	e := testEngine(t)
	own := []int64{30, 10, 20}
	e.mu.Lock()
	e.tenants["a"] = &TenantWindow{Tenant: "a", Submitted: 4, Completed: 3, Failed: 1, LatencySum: 60, Latencies: slices.Clone(own)}
	e.tenants["b"] = &TenantWindow{Tenant: "b", Submitted: 1, Rejected: 2}
	e.rejectedOther = 5
	e.mu.Unlock()

	st, ws := e.Ledger()
	if len(ws) != 2 || ws[0].Tenant != "a" || ws[1].Tenant != "b" {
		t.Fatalf("windows %+v, want a then b", ws)
	}
	if !slices.Equal(ws[0].Latencies, own) || !slices.Equal(e.tenants["a"].Latencies, own) {
		t.Errorf("window samples %v, engine's %v; want both in sample order %v", ws[0].Latencies, e.tenants["a"].Latencies, own)
	}
	if st.Submitted != 5 || st.Completed != 3 || st.Failed != 1 || st.Rejected != 7 {
		t.Errorf("aggregate %d/%d/%d/%d submitted/completed/failed/rejected, want 5/3/1/7",
			st.Submitted, st.Completed, st.Failed, st.Rejected)
	}
	if len(st.Tenants) != 2 || st.Tenants[0].P50LatencyCycles != 20 || st.Tenants[0].P99LatencyCycles != 30 {
		t.Errorf("tenant rows %+v, want tenant a's p50 20 and p99 30", st.Tenants)
	}
	if e.Stats().Submitted != st.Submitted {
		t.Error("Stats and Ledger disagree")
	}
}
