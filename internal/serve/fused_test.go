package serve

// Tests of segment chains: SubmitChain queues a fleet-decomposed
// request's segment models together, links each successor to its
// predecessor with an Admission.After, and reports one record per
// segment while keeping the segments out of the tenant ledger.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/dnn"
	"repro/internal/dse"
	"repro/internal/maestro"
)

// chainSegments cuts the named model along its segment plan on the test
// HDA, failing the test unless the plan actually splits.
func chainSegments(t testing.TB, cache *maestro.Cache, name string) []*dnn.Model {
	t.Helper()
	m, err := dnn.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := dse.PlanSegments(cache, testHDA(t), m, dse.ObjectiveEDP, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSegments() < 2 {
		t.Fatalf("%s does not split on the test HDA; pick another model", name)
	}
	segs, err := p.Slices(m)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// recorder collects the records a chain's onDone receives.
type recorder struct {
	mu   sync.Mutex
	recs []Record
}

func (r *recorder) done(rec Record) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// TestFusedRequestLifecycle walks chains end to end on a manual engine:
// two chains queued before one Admit share its batches, so successors
// link to in-batch and already-placed predecessors alike. Each segment
// reports one done record, in chain order, that starts no earlier than
// its predecessor finishes; the tenant ledger never sees a segment.
func TestFusedRequestLifecycle(t *testing.T) {
	cache := newTestCache()
	segs := chainSegments(t, cache, "mobilenetv2")
	opts := DefaultOptions()
	opts.Manual = true
	opts.MaxBatch = 3
	e, err := New(cache, testHDA(t), opts)
	if err != nil {
		t.Fatal(err)
	}

	var chains [2]recorder
	for i := range chains {
		tickets, err := e.SubmitChain(Request{Tenant: "a", Model: "ignored", ArrivalCycle: int64(i) * 100_000}, segs, chains[i].done)
		if err != nil {
			t.Fatal(err)
		}
		if len(tickets) != len(segs) {
			t.Fatalf("%d tickets for %d segments", len(tickets), len(segs))
		}
	}
	e.Admit()
	for c := range chains {
		recs := chains[c].recs
		if len(recs) != len(segs) {
			t.Fatalf("chain %d: %d records, want one per segment (%d)", c, len(recs), len(segs))
		}
		for k, rec := range recs {
			if rec.Status != StatusDone {
				t.Fatalf("chain %d segment %d: %q err %q", c, k, rec.Status, rec.Err)
			}
			if rec.Model != segs[k].Name || !strings.HasPrefix(rec.Model, "mobilenetv2[") {
				t.Errorf("chain %d record %d: model %q, want %q", c, k, rec.Model, segs[k].Name)
			}
			if rec.FinishCycle <= rec.StartCycle || rec.BusyCycles <= 0 || len(rec.Segments) != 0 {
				t.Errorf("chain %d segment %d: degenerate record %+v", c, k, rec)
			}
			if k > 0 && rec.StartCycle < recs[k-1].FinishCycle {
				t.Errorf("chain %d segment %d starts at %d before predecessor finishes at %d",
					c, k, rec.StartCycle, recs[k-1].FinishCycle)
			}
		}
	}

	st, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 0 || st.Completed != 0 || len(st.Tenants) != 0 {
		t.Errorf("segments leaked into the tenant ledger: %+v", st)
	}
	snap := e.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	if got := snap.Workload.NumInstances(); got != 2*len(segs) {
		t.Errorf("schedule has %d instances, want %d", got, 2*len(segs))
	}
}

// TestFusedConservation mixes concurrent chains with tracked requests
// on a live engine: every segment reports exactly one done record,
// the tenant ledger counts only the tracked requests, and the
// committed schedule holds both. Run under -race this also exercises
// the chain bookkeeping for data races.
func TestFusedConservation(t *testing.T) {
	cache := newTestCache()
	chainsOf := map[string][]*dnn.Model{
		"mobilenetv2": chainSegments(t, cache, "mobilenetv2"),
		"mobilenetv1": chainSegments(t, cache, "mobilenetv1"),
	}
	e, err := New(cache, testHDA(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	type stream struct {
		tenant string
		model  string
		count  int
	}
	streams := []stream{
		{tenant: "ar", model: "mobilenetv2", count: 20},   // chained
		{tenant: "vr", model: "mobilenetv1", count: 20},   // chained
		{tenant: "batch", model: "resnet18", count: 12},   // tracked
		{tenant: "mixed", model: "mobilenetv2", count: 8}, // chained
	}
	var wg sync.WaitGroup
	var rec recorder
	wantSegs := 0
	for _, s := range streams {
		wantSegs += s.count * len(chainsOf[s.model])
		wg.Add(1)
		go func(s stream) {
			defer wg.Done()
			for i := 0; i < s.count; i++ {
				req := Request{Tenant: s.tenant, Model: s.model, ArrivalCycle: int64(i) * 500_000}
				var last *Ticket
				var err error
				if segs := chainsOf[s.model]; segs != nil {
					tickets, err := e.SubmitChain(req, segs, rec.done)
					if err != nil {
						t.Error(err)
						return
					}
					last = tickets[len(tickets)-1]
				} else if last, err = e.Submit(req); err != nil {
					t.Error(err)
					return
				}
				r, err := last.Wait(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				if r.Status != StatusDone {
					t.Errorf("request %d (%s): %q err %q", r.ID, s.model, r.Status, r.Err)
				}
			}
		}(s)
	}
	wg.Wait()

	st, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 12 || st.Completed != 12 || st.Failed != 0 {
		t.Errorf("tenant ledger: submitted %d completed %d failed %d, want the 12 tracked requests",
			st.Submitted, st.Completed, st.Failed)
	}
	if len(rec.recs) != wantSegs {
		t.Errorf("%d segment records, want %d", len(rec.recs), wantSegs)
	}
	for _, r := range rec.recs {
		if r.Status != StatusDone {
			t.Errorf("segment %s: %q err %q", r.Model, r.Status, r.Err)
		}
	}

	snap := e.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatalf("committed schedule invalid: %v", err)
	}
	if got, want := snap.Workload.NumInstances(), wantSegs+12; got != want {
		t.Errorf("schedule has %d instances, want %d (segments + tracked)", got, want)
	}
}

// TestFusedQuiesceInFlight quiesces the engine while multi-segment
// chains are still queued: every accepted segment must still resolve
// (Quiesce stops admissions, not accepted work), a chain submitted
// afterwards is refused whole, and nothing stays pending.
func TestFusedQuiesceInFlight(t *testing.T) {
	cache := newTestCache()
	segs := chainSegments(t, cache, "mobilenetv2")
	e, err := New(cache, testHDA(t), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for i := 0; i < 16; i++ {
		ts, err := e.SubmitChain(Request{Tenant: "a", ArrivalCycle: int64(i) * 100_000}, segs, nil)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, ts...)
	}
	e.Quiesce()
	if _, err := e.SubmitChain(Request{Tenant: "a"}, segs, nil); !errors.Is(err, ErrDraining) {
		t.Errorf("chain after Quiesce: err %v, want ErrDraining", err)
	}
	for i, ticket := range tickets {
		rec, err := ticket.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rec.Status != StatusDone {
			t.Errorf("segment ticket %d: %q err %q", i, rec.Status, rec.Err)
		}
	}
	<-e.Done()
	if st := e.Stats(); st.Pending != 0 || st.Rejected != 1 {
		t.Errorf("post-quiesce stats: pending %d, rejected %d; want 0 and 1", st.Pending, st.Rejected)
	}
}

// TestFusedChainMaxQueue: a chain is admitted all or nothing against
// the tenant's queue cap — a chain that does not fit leaves the queue
// untouched, a shorter one that does fit still goes in, and invalid
// segment lists are rejected whole.
func TestFusedChainMaxQueue(t *testing.T) {
	cache := newTestCache()
	segs := chainSegments(t, cache, "mobilenetv2")
	opts := DefaultOptions()
	opts.Manual = true
	opts.MaxQueue = len(segs) + 1
	e, err := New(cache, testHDA(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Tenant: "a", ArrivalCycle: 0}
	if _, err := e.SubmitChain(req, segs, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitChain(req, segs[:2], nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflowing chain: err %v, want ErrQueueFull", err)
	}
	if got := e.Load().Pending; got != len(segs) {
		t.Fatalf("rejected chain left %d pending, want %d", got, len(segs))
	}
	if _, err := e.SubmitChain(req, segs[:1], nil); err != nil {
		t.Fatalf("chain that fits: %v", err)
	}
	for _, bad := range [][]*dnn.Model{nil, {segs[0], nil}} {
		if _, err := e.SubmitChain(req, bad, nil); err == nil {
			t.Errorf("chain %v accepted", bad)
		}
	}
	if _, err := e.SubmitChain(Request{}, segs[:1], nil); err == nil {
		t.Error("chain without a tenant accepted")
	}
	st, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Pending != 0 || st.Rejected != 3 || st.Submitted != 0 {
		t.Errorf("stats %+v: want 3 rejected chains and no tenant requests", st)
	}
}

// TestFusedChainCrash: Crash extracts a queued chain segment by
// segment — each reports StatusLost, in chain order, and the engine
// counts every extracted segment as lost work.
func TestFusedChainCrash(t *testing.T) {
	cache := newTestCache()
	segs := chainSegments(t, cache, "mobilenetv2")
	opts := DefaultOptions()
	opts.Manual = true
	e, err := New(cache, testHDA(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	var rec recorder
	if _, err := e.SubmitChain(Request{Tenant: "a"}, segs, rec.done); err != nil {
		t.Fatal(err)
	}
	if got := e.Crash(); got != len(segs) {
		t.Fatalf("Crash extracted %d, want %d segments", got, len(segs))
	}
	if len(rec.recs) != len(segs) {
		t.Fatalf("%d lost records, want %d", len(rec.recs), len(segs))
	}
	for k, r := range rec.recs {
		if r.Status != StatusLost || r.Model != segs[k].Name {
			t.Errorf("lost record %d: %q %q, want %q lost", k, r.Model, r.Status, segs[k].Name)
		}
	}
	if st := e.Stats(); st.Lost != int64(len(segs)) || st.Submitted != 0 || st.Pending != 0 {
		t.Errorf("post-crash stats %+v", st)
	}
}
