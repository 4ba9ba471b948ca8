package fleet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dse"
	"repro/internal/energy"
	"repro/internal/maestro"
	"repro/internal/serve"
	"repro/internal/workload"
)

func newTestCache() *maestro.Cache { return maestro.NewCache(energy.Default28nm()) }

func testHDA(t testing.TB) *accel.HDA {
	t.Helper()
	h, err := accel.New("fleet-test", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func testFleet(t testing.TB, cache *maestro.Cache, n int, p Policy) *Fleet {
	t.Helper()
	opts := DefaultOptions()
	opts.Policy = p
	f, err := Replicated(cache, testHDA(t), n, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// skewedRequests builds the alternating heavy/light request sequence:
// an expensive model and a cheap one interleaved 1:1, the aliasing
// pattern that defeats round-robin dispatch on even-sized fleets.
func skewedRequests(pairs int) []serve.Request {
	var reqs []serve.Request
	for i := 0; i < pairs; i++ {
		reqs = append(reqs,
			serve.Request{Tenant: "heavy", Model: "resnet50", ArrivalCycle: 0},
			serve.Request{Tenant: "light", Model: "mobilenetv1", ArrivalCycle: 0},
		)
	}
	return reqs
}

// driveSequential submits the sequence one by one (deterministic
// dispatch), then waits for every completion, then drains.
func driveSequential(t *testing.T, f *Fleet, reqs []serve.Request) ([]int, Stats) {
	t.Helper()
	var tickets []*Ticket
	replicas := make([]int, 0, len(reqs))
	for i, req := range reqs {
		tk, err := f.Submit(req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		tickets = append(tickets, tk)
		replicas = append(replicas, tk.Replica)
	}
	if f.serveOpts.Manual {
		f.Admit()
	}
	for i, tk := range tickets {
		rec, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if rec.Status != serve.StatusDone {
			t.Fatalf("request %d: status %q err %q", i, rec.Status, rec.Err)
		}
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return replicas, st
}

// TestFleetDispatchDeterminism: a fixed submission sequence must
// produce the identical replica assignment on every run — dispatch
// depends only on the sequence, never on wall-clock or goroutine
// timing.
func TestFleetDispatchDeterminism(t *testing.T) {
	for _, policy := range []Policy{RoundRobin, CostAware} {
		t.Run(policy.String(), func(t *testing.T) {
			cache := newTestCache()
			reqs := skewedRequests(10)
			first, _ := driveSequential(t, testFleet(t, cache, 3, policy), reqs)
			second, _ := driveSequential(t, testFleet(t, cache, 3, policy), reqs)
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("request %d dispatched to replica %d on run 1 but %d on run 2\nrun1 %v\nrun2 %v",
						i, first[i], second[i], first, second)
				}
			}
		})
	}
}

// TestFleetDrain: Drain fans out to every replica, joins them, and
// the drained fleet refuses new work.
func TestFleetDrain(t *testing.T) {
	f := testFleet(t, newTestCache(), 3, RoundRobin)
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: int64(i) * 100_000}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != n || st.Pending != 0 {
		t.Fatalf("drained stats: %+v", st)
	}
	var dispatched int64
	for _, rs := range st.PerReplica {
		dispatched += rs.Dispatched
		if rs.Inflight != 0 {
			t.Errorf("replica %d: %d inflight after drain", rs.Replica, rs.Inflight)
		}
	}
	if dispatched != n {
		t.Errorf("dispatched %d across replicas, want %d", dispatched, n)
	}
	if _, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1"}); !errors.Is(err, serve.ErrDraining) {
		t.Errorf("submit after drain: %v, want ErrDraining", err)
	}
	// Draining twice is idempotent.
	if _, err := f.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestFleetDrainHonorsContext: while an accepted ticket is unresolved
// (its completion hook is held), Drain returns at the context deadline
// with the context's error; once the hook is released, a second Drain
// completes with conservation intact.
func TestFleetDrainHonorsContext(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	opts := DefaultOptions()
	opts.Serve.OnRequestDone = func(serve.Record) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	f, err := Replicated(newTestCache(), testHDA(t), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := f.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("drain with a held ticket: %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("drain returned %v after its 50ms deadline", d)
	}

	close(release)
	if rec, err := tk.Wait(context.Background()); err != nil || rec.Status != serve.StatusDone {
		t.Fatalf("released ticket: %+v, %v", rec, err)
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 1 || st.Completed != 1 || st.Pending != 0 {
		t.Errorf("stats after the second drain: %+v", st)
	}
}

// TestFleetScaling: 4 replicas must serve at least 3x the simulated
// throughput of a single engine on the same request sequence (the
// replicas run in parallel in simulated time, so fleet throughput is
// completions over the slowest replica's makespan).
func TestFleetScaling(t *testing.T) {
	cache := newTestCache()
	reqs := make([]serve.Request, 0, 48)
	for i := 0; i < 48; i++ {
		tenant := []string{"a", "b"}[i%2]
		reqs = append(reqs, serve.Request{Tenant: tenant, Model: "mobilenetv1", ArrivalCycle: 0})
	}
	// Manual fleets: on a live one the batch composition, and with it
	// the single engine's makespan, depends on how far its driver got
	// while the burst was being submitted.
	manual := func(n int) *Fleet {
		opts := DefaultOptions()
		opts.Policy = RoundRobin
		opts.Serve.Manual = true
		f, err := Replicated(cache, testHDA(t), n, opts)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	_, single := driveSequential(t, manual(1), reqs)
	_, quad := driveSequential(t, manual(4), reqs)

	if single.Completed != 48 || quad.Completed != 48 {
		t.Fatalf("completions: single %d quad %d", single.Completed, quad.Completed)
	}
	if single.SimThroughputRPS <= 0 || quad.SimThroughputRPS <= 0 {
		t.Fatalf("degenerate throughput: single %g quad %g", single.SimThroughputRPS, quad.SimThroughputRPS)
	}
	scaling := quad.SimThroughputRPS / single.SimThroughputRPS
	if scaling < 3 {
		t.Errorf("4-replica fleet scales only %.2fx over a single engine (single %.1f req/s, quad %.1f req/s), want >= 3x",
			scaling, single.SimThroughputRPS, quad.SimThroughputRPS)
	}
}

// TestCostAwareBeatsRoundRobin: on a skewed heavy/light mix over an
// even-sized fleet, round-robin aliases every heavy request onto the
// same replica while cost-aware ETA routing balances actual work —
// the heavy tenant's p99 (and the fleet-wide worst p99) must be
// strictly lower under cost-aware dispatch.
func TestCostAwareBeatsRoundRobin(t *testing.T) {
	cache := newTestCache()
	reqs := skewedRequests(15)
	rrAssign, rr := driveSequential(t, testFleet(t, cache, 2, RoundRobin), reqs)
	caAssign, ca := driveSequential(t, testFleet(t, cache, 2, CostAware), reqs)

	// Sanity: round-robin really aliases (all heavy on replica 0).
	for i := 0; i < len(rrAssign); i += 2 {
		if rrAssign[i] != 0 {
			t.Fatalf("round-robin aliasing assumption broken: heavy request %d on replica %d", i, rrAssign[i])
		}
	}
	// Cost-aware must have split the heavy requests.
	heavySplit := map[int]int{}
	for i := 0; i < len(caAssign); i += 2 {
		heavySplit[caAssign[i]]++
	}
	if len(heavySplit) < 2 {
		t.Errorf("cost-aware routed every heavy request to one replica: %v", heavySplit)
	}

	p99 := func(st Stats, tenant string) int64 {
		for _, ts := range st.Tenants {
			if ts.Tenant == tenant {
				return ts.P99LatencyCycles
			}
		}
		t.Fatalf("tenant %s missing from %+v", tenant, st.Tenants)
		return 0
	}
	rrHeavy, caHeavy := p99(rr, "heavy"), p99(ca, "heavy")
	if caHeavy >= rrHeavy {
		t.Errorf("cost-aware heavy-tenant p99 %d >= round-robin %d; ETA routing should beat aliased round-robin",
			caHeavy, rrHeavy)
	}
	worst := func(st Stats) int64 {
		var w int64
		for _, ts := range st.Tenants {
			if ts.P99LatencyCycles > w {
				w = ts.P99LatencyCycles
			}
		}
		return w
	}
	if worst(ca) >= worst(rr) {
		t.Errorf("cost-aware worst p99 %d >= round-robin %d", worst(ca), worst(rr))
	}
}

// TestLeastOutstanding: the probe-based policy routes away from the
// replica with committed backlog.
func TestLeastOutstanding(t *testing.T) {
	f := testFleet(t, newTestCache(), 2, LeastOutstanding)
	t1, err := f.Submit(serve.Request{Tenant: "a", Model: "resnet50", ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Replica t1.Replica now has a committed backlog; the next request
	// must land on the other replica.
	t2, err := f.Submit(serve.Request{Tenant: "a", Model: "resnet50", ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if t1.Replica == t2.Replica {
		t.Errorf("least-outstanding sent both requests to replica %d despite its backlog", t1.Replica)
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFleetStatsAggregation: tenant statistics merge across replicas
// — counts sum, percentiles come from the merged windows, and the
// per-replica breakdown is complete.
func TestFleetStatsAggregation(t *testing.T) {
	f := testFleet(t, newTestCache(), 3, RoundRobin)
	reqs := make([]serve.Request, 0, 30)
	for i := 0; i < 30; i++ {
		tenant := []string{"arvr", "mlperf"}[i%2]
		model := []string{"brq-handpose", "mobilenetv1"}[i%2]
		reqs = append(reqs, serve.Request{Tenant: tenant, Model: model, SLACycles: 1 << 50, ArrivalCycle: int64(i) * 50_000})
	}
	_, st := driveSequential(t, f, reqs)

	if st.Replicas != 3 || len(st.PerReplica) != 3 {
		t.Fatalf("replica breakdown: %+v", st)
	}
	if len(st.Tenants) != 2 {
		t.Fatalf("%d merged tenants, want 2: %+v", len(st.Tenants), st.Tenants)
	}
	for _, ts := range st.Tenants {
		if ts.Completed != 15 {
			t.Errorf("tenant %s: completed %d, want 15 (merged across replicas)", ts.Tenant, ts.Completed)
		}
		if ts.P50LatencyCycles <= 0 || ts.P99LatencyCycles < ts.P50LatencyCycles {
			t.Errorf("tenant %s: degenerate merged percentiles %+v", ts.Tenant, ts)
		}
		if ts.SLATracked != 15 || ts.SLAViolations != 0 {
			t.Errorf("tenant %s: SLA accounting %+v", ts.Tenant, ts)
		}
	}
	// Each round-robin replica saw 10 of the 30 requests.
	for _, rs := range st.PerReplica {
		if rs.Dispatched != 10 {
			t.Errorf("replica %d: dispatched %d, want 10", rs.Replica, rs.Dispatched)
		}
		if rs.Engine.Completed != 10 {
			t.Errorf("replica %d: engine completed %d, want 10", rs.Replica, rs.Engine.Completed)
		}
	}
	if st.MakespanCycles <= 0 || st.SimThroughputRPS <= 0 {
		t.Errorf("aggregate throughput: %+v", st)
	}
}

// TestHeterogeneousTopKFleet: a fleet over the top-K points of a DSE
// search serves across distinct partitions, and cost-aware dispatch
// still completes everything.
func TestHeterogeneousTopKFleet(t *testing.T) {
	cache := newTestCache()
	w := workload.ARVRA()
	res, err := dse.Search(cache, dse.Space{
		Class:   accel.Edge,
		Styles:  []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao},
		PEUnits: 4, BWUnits: 2,
	}, w, dse.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopK(dse.ObjectiveLatency, 2)
	if len(top) != 2 {
		t.Fatalf("TopK returned %d points", len(top))
	}
	opts := DefaultOptions()
	opts.Policy = CostAware
	f, err := New(cache, []*accel.HDA{top[0].HDA, top[1].HDA}, opts)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]serve.Request, 0, 12)
	for i := 0; i < 12; i++ {
		model := []string{"unet", "mobilenetv2", "brq-handpose"}[i%3]
		reqs = append(reqs, serve.Request{Tenant: "arvr", Model: model, ArrivalCycle: 0})
	}
	_, st := driveSequential(t, f, reqs)
	if st.Completed != 12 || st.Failed != 0 {
		t.Fatalf("heterogeneous fleet stats: %+v", st)
	}
	names := map[string]bool{}
	for _, rs := range st.PerReplica {
		names[rs.HDA] = true
	}
	if len(names) != 2 {
		t.Errorf("expected 2 distinct replica HDAs, got %v", names)
	}
}

// TestFleetValidation covers constructor errors.
func TestFleetValidation(t *testing.T) {
	cache := newTestCache()
	if _, err := New(nil, []*accel.HDA{testHDA(t)}, DefaultOptions()); err == nil {
		t.Error("nil cache accepted")
	}
	if _, err := New(cache, nil, DefaultOptions()); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := Replicated(cache, testHDA(t), 0, DefaultOptions()); err == nil {
		t.Error("0 replicas accepted")
	}
	bad := DefaultOptions()
	bad.Policy = Policy(99)
	if _, err := Replicated(cache, testHDA(t), 1, bad); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(cache, []*accel.HDA{nil}, DefaultOptions()); err == nil {
		t.Error("nil replica HDA accepted")
	}
}

// TestParsePolicy covers the flag-facing parser.
func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]Policy{
		"round-robin": RoundRobin, "rr": RoundRobin,
		"least-outstanding": LeastOutstanding, "lo": LeastOutstanding,
		"cost-aware": CostAware, "eta": CostAware,
	} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy name accepted")
	}
	for _, p := range []Policy{RoundRobin, LeastOutstanding, CostAware, Policy(42)} {
		if p.String() == "" {
			t.Errorf("empty String for %d", int(p))
		}
	}
}

// TestOnRequestDoneChain: a user hook installed on Options.Serve
// reaches every replica engine and fires once per request.
func TestOnRequestDoneChain(t *testing.T) {
	done := make(chan serve.Record, 4)
	opts := DefaultOptions()
	opts.Serve.OnRequestDone = func(rec serve.Record) { done <- rec }
	f, err := Replicated(newTestCache(), testHDA(t), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(done)
	n := 0
	for rec := range done {
		n++
		if rec.Status != serve.StatusDone {
			t.Errorf("hook saw %+v", rec)
		}
	}
	if n != 2 {
		t.Errorf("user hook fired %d times, want 2", n)
	}
}

// TestLiveClockArrivalCaptured: a live-clock ("now") arrival is fixed
// once, on the fleet's clock, so the OnAccept capture records the cycle
// the engine scheduled: on the original engines, on the fresh engines
// of a Migrate, and on an engine rebuilt by a crash→recover fault pair.
func TestLiveClockArrivalCaptured(t *testing.T) {
	const faultCycle = 1 << 40 // beyond any wall-clock arrival; an explicit arrival fires it
	var mu sync.Mutex
	var captured []serve.Request
	opts := DefaultOptions()
	opts.OnAccept = func(req serve.Request, _ string) {
		mu.Lock()
		captured = append(captured, req)
		mu.Unlock()
	}
	opts.Faults = mustPlan(t, // replica 2 is the migrated generation's first
		FaultEvent{Cycle: faultCycle, Replica: 2, Kind: FaultCrash},
		FaultEvent{Cycle: faultCycle, Replica: 2, Kind: FaultRecover})
	h := testHDA(t)
	f, err := Replicated(newTestCache(), h, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	submit := func(arrival int64) {
		t.Helper()
		tk, err := f.Submit(serve.Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: arrival})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
		waitAll(t, []*Ticket{tk}) // served before the next step, so no crash re-arrives it
	}
	submit(-1)
	if err := f.Migrate(context.Background(), []*accel.HDA{h, h}); err != nil {
		t.Fatal(err)
	}
	submit(-1)
	submit(faultCycle)
	submit(-1)
	if st := f.Stats(); st.Crashes != 1 || st.Recoveries != 1 {
		t.Fatalf("crashes %d, recoveries %d; want the fault pair to fire once", st.Crashes, st.Recoveries)
	}
	if got := tickets[3].Served(); got != 2 {
		t.Errorf("post-recovery request served by replica %d, want the rebuilt replica 2", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(captured) != len(tickets) {
		t.Fatalf("captured %d submissions, want %d", len(captured), len(tickets))
	}
	for i, tk := range tickets {
		rec, _ := tk.Wait(context.Background())
		if got := captured[i].ArrivalCycle; got < 0 || got != rec.ArrivalCycle {
			t.Errorf("submission %d: captured arrival %d, engine scheduled arrival %d", i, got, rec.ArrivalCycle)
		}
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestNilHDAError double-checks New's error path names the replica.
func TestNilHDAError(t *testing.T) {
	_, err := New(newTestCache(), []*accel.HDA{testHDA(t), nil}, DefaultOptions())
	if err == nil {
		t.Fatal("nil second HDA accepted")
	}
	if !strings.Contains(err.Error(), "replica 1") {
		t.Errorf("error %q does not name the failing replica", err)
	}
}
