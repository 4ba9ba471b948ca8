package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/maestro"
)

// TestDrainZeroOutstanding: draining an engine that never admitted a
// request completes immediately instead of hanging on an empty queue.
func TestDrainZeroOutstanding(t *testing.T) {
	e := testEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := e.Drain(ctx)
	if err != nil {
		t.Fatalf("zero-outstanding drain: %v", err)
	}
	if st.Submitted != 0 || st.Pending != 0 {
		t.Fatalf("zero-outstanding drain stats: %+v", st)
	}
}

// TestQuiesceIdempotent: Quiesce and Drain may be called repeatedly in
// any order; every call after the first is a no-op that still
// completes, and every submission after the first Quiesce fails with
// ErrDraining — deterministically, not just eventually.
func TestQuiesceIdempotent(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Submit(Request{Tenant: "a", Model: "mobilenetv1"}); err != nil {
		t.Fatal(err)
	}

	e.Quiesce()
	e.Quiesce() // double-Quiesce: no panic, no second broadcast needed

	for i := 0; i < 3; i++ {
		if _, err := e.Submit(Request{Tenant: "a", Model: "mobilenetv1"}); !errors.Is(err, ErrDraining) {
			t.Fatalf("post-Quiesce submit %d: err %v, want ErrDraining", i, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st1, err := e.Drain(ctx)
	if err != nil {
		t.Fatalf("drain after quiesce: %v", err)
	}
	// Drain after Done: idempotent, returns the same final counters.
	st2, err := e.Drain(ctx)
	if err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if st1.Submitted != st2.Submitted || st1.Completed != st2.Completed || st2.Pending != 0 {
		t.Fatalf("drain not idempotent: first %+v, second %+v", st1, st2)
	}
	if st1.Completed != 1 {
		t.Fatalf("completed %d, want 1", st1.Completed)
	}

	// Post-Done submission still fails with ErrDraining.
	if _, err := e.Submit(Request{Tenant: "a", Model: "mobilenetv1"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-Done submit: err %v, want ErrDraining", err)
	}
}

// manualEngine builds an engine without a driver: submissions stay
// queued until the test calls Admit.
func manualEngine(t *testing.T) *Engine {
	t.Helper()
	o := DefaultOptions()
	o.Manual = true
	e, err := New(maestro.NewCache(energy.Default28nm()), testHDA(t), o)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestManualAdmit: a manual engine keeps accepting but schedules
// nothing until Admit, which returns with every queued request final
// and every completion hook fired on the caller's goroutine; Drain
// admits what is left and closes Done.
func TestManualAdmit(t *testing.T) {
	e := manualEngine(t)
	var hooks []int64
	var tickets []*Ticket
	for i := 0; i < 3; i++ {
		ticket, err := e.SubmitTracked(Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: int64(i)},
			func(rec Record) { hooks = append(hooks, rec.ID) })
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, ticket)
	}
	select {
	case <-tickets[0].Done():
		t.Fatal("manual engine scheduled a request before Admit")
	case <-time.After(20 * time.Millisecond):
	}
	if ld := e.Load(); ld.Pending != 3 {
		t.Fatalf("pending %d before Admit, want 3", ld.Pending)
	}

	e.Admit()
	if len(hooks) != 3 {
		t.Fatalf("%d hooks fired by Admit, want 3", len(hooks))
	}
	for i, ticket := range tickets {
		select {
		case <-ticket.Done():
		default:
			t.Fatalf("ticket %d unresolved after Admit", i)
		}
		if rec, _ := ticket.Wait(context.Background()); rec.Status != StatusDone {
			t.Fatalf("ticket %d: status %q (err %q), want done", i, rec.Status, rec.Err)
		}
	}

	late, err := e.Submit(Request{Tenant: "b", Model: "mobilenetv1"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec, _ := late.Wait(context.Background()); rec.Status != StatusDone || st.Completed != 4 || st.Pending != 0 {
		t.Fatalf("drain left work: late %q, stats %+v", rec.Status, st)
	}
	select {
	case <-e.Done():
	default:
		t.Fatal("Done open after Drain")
	}
}

// TestCrashExtractsQueued: crashing an engine extracts exactly the
// queued requests as StatusLost — tickets resolve, completion hooks
// fire, and the engine's own accounting erases them so a fleet-side
// re-admission counts each exactly once.
func TestCrashExtractsQueued(t *testing.T) {
	e := manualEngine(t) // nothing admits, so the queued set is exact

	const n = 4
	var tickets []*Ticket
	var hooks []Record
	for i := 0; i < n; i++ {
		ticket, err := e.SubmitTracked(Request{Tenant: "a", Model: "mobilenetv1", ArrivalCycle: int64(i)},
			func(rec Record) { hooks = append(hooks, rec) })
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, ticket)
	}

	if got := e.Crash(); got != n {
		t.Fatalf("Crash extracted %d, want %d", got, n)
	}
	if !e.Crashed() {
		t.Fatal("Crashed() false after Crash")
	}
	// Crash fires hooks synchronously on the caller's goroutine.
	if len(hooks) != n {
		t.Fatalf("%d completion hooks fired, want %d", len(hooks), n)
	}
	for i, ticket := range tickets {
		rec, err := ticket.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rec.Status != StatusLost || rec.Err == "" {
			t.Fatalf("ticket %d: status %q (err %q), want lost", i, rec.Status, rec.Err)
		}
		if hooks[i].Status != StatusLost {
			t.Fatalf("hook %d: status %q, want lost", i, hooks[i].Status)
		}
	}
	// Extraction order is tenant round-robin then FIFO: one tenant here,
	// so hooks fire in submission order.
	for i := 1; i < len(hooks); i++ {
		if hooks[i].ArrivalCycle < hooks[i-1].ArrivalCycle {
			t.Fatalf("extraction out of order: %v", hooks)
		}
	}

	st := e.Stats()
	if st.Lost != n || !st.Crashed {
		t.Fatalf("stats after crash: lost %d crashed %v, want %d true", st.Lost, st.Crashed, n)
	}
	// The lost requests are erased from Submitted, so engine-level
	// conservation holds with no pending work left.
	if st.Submitted != 0 || st.Pending != 0 || st.Completed != 0 || st.Failed != 0 {
		t.Fatalf("crashed engine accounting not rolled back: %+v", st)
	}

	// Idempotent: a second crash extracts nothing.
	if got := e.Crash(); got != 0 {
		t.Fatalf("second Crash extracted %d, want 0", got)
	}
	// Post-crash submissions are refused like any draining engine.
	if _, err := e.Submit(Request{Tenant: "a", Model: "mobilenetv1"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-crash submit: err %v, want ErrDraining", err)
	}
	// The next Admit finds the crashed engine empty: Done closes.
	e.Admit()
	select {
	case <-e.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("Done did not close after Crash")
	}
}

// TestCrashSparesScheduledWork: requests already scheduled before the
// crash complete normally — only queued work is extracted.
func TestCrashSparesScheduledWork(t *testing.T) {
	e := manualEngine(t)
	done, err := e.Submit(Request{Tenant: "a", Model: "mobilenetv1"})
	if err != nil {
		t.Fatal(err)
	}
	e.Admit()
	if rec, err := done.Wait(context.Background()); err != nil || rec.Status != StatusDone {
		t.Fatalf("pre-crash request: %v %+v", err, rec)
	}

	doomed, err := e.Submit(Request{Tenant: "a", Model: "mobilenetv1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Crash(); got != 1 {
		t.Fatalf("Crash extracted %d, want 1", got)
	}
	if rec, _ := doomed.Wait(context.Background()); rec.Status != StatusLost {
		t.Fatalf("queued request status %q, want lost", rec.Status)
	}

	st := e.Stats()
	if st.Completed != 1 || st.Submitted != 1 || st.Lost != 1 {
		t.Fatalf("crash erased served work: %+v", st)
	}
}
