package fleet

// Tests of the fleet's one tenant ledger: a Stats payload's request
// counters are the sums of its own tenant rows, and folding keeps each
// tenant's newest latency samples.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
)

// tenantSumsErr reports whether st's Submitted, Completed, Failed and
// Shed differ from the sums of st's own tenant rows.
func tenantSumsErr(st Stats) error {
	var sum serve.TenantStats
	for _, ts := range st.Tenants {
		sum.Submitted += ts.Submitted
		sum.Completed += ts.Completed
		sum.Failed += ts.Failed
		sum.Shed += ts.Shed
	}
	if sum.Submitted != st.Submitted || sum.Completed != st.Completed || sum.Failed != st.Failed || sum.Shed != st.Shed {
		return fmt.Errorf("submitted/completed/failed/shed %d/%d/%d/%d, tenant rows sum to %d/%d/%d/%d",
			st.Submitted, st.Completed, st.Failed, st.Shed, sum.Submitted, sum.Completed, sum.Failed, sum.Shed)
	}
	return nil
}

// TestStatsScrapeCountsOnce scrapes a live two-replica cost-aware
// fleet for about a second while two submitters load it, every eighth
// request with a hopeless SLA so shedding runs too. Every payload's
// request counters must be the sums of its own tenant rows — which
// totals read from the engines apart from their tenant windows do not
// guarantee under load.
func TestStatsScrapeCountsOnce(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = CostAware
	opts.Health = HealthOptions{ShedSLAFactor: 1}
	f, err := Replicated(newTestCache(), testHDA(t), 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for _, tenant := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Waiting out every batch keeps each tenant's queue short
			// of the engine's cap, so no breaker trips on queue-full.
			var batch []*Ticket
			for i := 0; time.Now().Before(deadline); i++ {
				req := serve.Request{Tenant: tenant, Model: "brq-handpose", ArrivalCycle: -1, SLACycles: 1 << 50}
				if i%8 == 7 {
					req.SLACycles = 1
				}
				tk, err := f.Submit(req)
				switch {
				case errors.Is(err, ErrShed):
					continue
				case err != nil:
					errc <- err
					return
				}
				if batch = append(batch, tk); len(batch) == 64 {
					for _, tk := range batch {
						if _, err := tk.Wait(context.Background()); err != nil {
							errc <- err
							return
						}
					}
					batch = batch[:0]
				}
			}
		}()
	}
	var scrapes, bad int
	var first error
	for time.Now().Before(deadline) {
		if err := tenantSumsErr(f.Stats()); err != nil {
			if bad == 0 {
				first = err
			}
			bad++
		}
		scrapes++
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bad > 0 {
		t.Errorf("%d of %d scrapes disagree with their tenant rows; first: %v", bad, scrapes, first)
	}
	if err := tenantSumsErr(st); err != nil {
		t.Errorf("drained stats: %v", err)
	}
	if st.Submitted == 0 || st.Submitted != st.Completed+st.Failed {
		t.Errorf("drained: submitted %d, completed %d, failed %d", st.Submitted, st.Completed, st.Failed)
	}
	t.Logf("%d scrapes; %d submitted, %d shed", scrapes, st.Submitted, st.Shed)
}

// TestFoldKeepsNewestLatencies folds a replica onto a history window
// whose ring has wrapped: the history must keep its newest samples,
// oldest first, and drop the oldest.
func TestFoldKeepsNewestLatencies(t *testing.T) {
	opts := DefaultOptions()
	opts.Serve.Manual = true
	f, err := Replicated(newTestCache(), testHDA(t), 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	done := func(lat int64) *serve.Record {
		return &serve.Record{Tenant: "a", Status: serve.StatusDone, LatencyCycles: lat}
	}
	const wrap, fresh = 50, 100
	var want []int64
	f.mu.Lock()
	for i := range int64(serve.MaxLatencySamples + wrap) {
		window(f.history, "a").AddRecord(done(i))
		want = append(want, i)
	}
	r := f.replicas[0]
	f.outMu.Lock()
	for i := range int64(fresh) {
		window(r.fused, "a").AddRecord(done(1_000_000 + i))
		want = append(want, 1_000_000+i)
	}
	f.outMu.Unlock()
	f.foldLocked(r)
	got := f.history["a"].Latencies
	f.mu.Unlock()
	want = want[len(want)-serve.MaxLatencySamples:]
	if !slices.Equal(got, want) {
		t.Errorf("folded history keeps %d samples %v..%v, want %v..%v",
			len(got), got[:3], got[len(got)-3:], want[:3], want[len(want)-3:])
	}
	if _, err := f.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
