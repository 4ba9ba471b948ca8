// Chaos harness: drive a replicated serving fleet through a seeded
// fault schedule — a stall, an admission-failure burst, a replica
// crash with requests queued on it, and a recovery — and assert the
// fault-tolerance contract end to end:
//
//  1. conservation: every admitted request is served exactly once or
//     terminally failed; nothing is lost or double-served across the
//     crash and the failovers;
//  2. bounded degradation: the steady tenant's p99 latency under
//     chaos stays within a generous factor of the fault-free control
//     run (survivors absorb the failed-over work, they do not melt);
//  3. determinism: the same trace plus the same FaultPlan replays to
//     an identical fault-handling decision log, identical final
//     counters and an identical steady-tenant p99, run to run.
//
// The fleet is manual (serve.Options.Manual): engines admit only when
// the harness calls Fleet.Admit, so which requests the crash finds
// queued — and every batch the engines schedule — is fixed by the
// order of the calls. The harness exits non-zero on any violation, so
// CI can gate on it (make chaos).
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/maestro"
	"repro/internal/serve"
)

const (
	stallCycle   = 2_000_000
	admitCycle   = 4_000_000
	crashCycle   = 8_000_000
	recoverCycle = 12_000_000
	phaseGap     = 400_000 // arrival spacing of the steady trace
)

func main() {
	// Fault-free control run: the baseline the chaos run's latency
	// inflation is measured against.
	control := run(nil)
	fmt.Printf("control: %d completed, steady-tenant p99 %.2f ms\n",
		control.stats.Completed, ms(control.p99))

	plan, err := fleet.NewFaultPlan([]fleet.FaultEvent{
		{Cycle: stallCycle, Replica: 2, Kind: fleet.FaultStall, Factor: 8},
		{Cycle: admitCycle, Replica: 1, Kind: fleet.FaultAdmitFail, Count: 4},
		{Cycle: crashCycle, Replica: 0, Kind: fleet.FaultCrash},
		{Cycle: recoverCycle, Replica: 0, Kind: fleet.FaultRecover},
	})
	if err != nil {
		log.Fatal(err)
	}

	first := run(plan)
	second := run(plan)

	fmt.Printf("\nchaos:   %d completed, %d lost to the crash, %d failovers, "+
		"%d breaker trips, %d recovery; steady-tenant p99 %.2f ms\n",
		first.stats.Completed, first.stats.Lost, first.stats.Failovers,
		first.stats.BreakerTrips, first.stats.Recoveries, ms(first.p99))
	fmt.Println("\nfault-handling decision log:")
	for _, d := range first.decisions {
		fmt.Printf("  #%d cycle %8d %-14s replica %2d  %s\n", d.Seq, d.Cycle, d.Kind, d.Replica, d.Detail)
	}

	// 1. Conservation under chaos (run() already checked the per-ticket
	// outcomes; this is the aggregate identity).
	st := first.stats
	if st.Submitted != st.Completed+st.Failed || st.Pending != 0 {
		log.Fatalf("CONSERVATION VIOLATED: submitted %d != completed %d + failed %d (pending %d)",
			st.Submitted, st.Completed, st.Failed, st.Pending)
	}
	if st.Lost == 0 || st.Failovers != st.Lost || st.Crashes != 1 || st.Recoveries != 1 {
		log.Fatalf("fault counters off: lost %d failovers %d crashes %d recoveries %d",
			st.Lost, st.Failovers, st.Crashes, st.Recoveries)
	}

	// 2. Bounded survivor degradation: a 10x envelope is deliberately
	// loose — the point is "degraded, not melted down".
	if maxP99 := 10 * control.p99; first.p99 > maxP99 {
		log.Fatalf("DEGRADATION UNBOUNDED: steady p99 %.2f ms exceeds 10x the fault-free %.2f ms",
			ms(first.p99), ms(control.p99))
	}

	// 3. Bit-identical replay: decisions, final counters and p99.
	if !reflect.DeepEqual(first.decisions, second.decisions) {
		log.Fatalf("REPLAY DIVERGED: decision logs differ\n first: %+v\nsecond: %+v",
			first.decisions, second.decisions)
	}
	if first.counters() != second.counters() {
		log.Fatalf("REPLAY DIVERGED: final counters differ\n first: %+v\nsecond: %+v",
			first.counters(), second.counters())
	}

	fmt.Printf("\nOK: conservation held across a mid-flight crash (%d failovers), "+
		"steady p99 inflated %.1fx (bound 10x), and the decision log, counters and p99 replayed bit-identically\n",
		st.Failovers, float64(first.p99)/float64(control.p99))
}

type result struct {
	stats     fleet.Stats
	decisions []fleet.FaultDecision
	p99       int64
}

// counters projects the final statistics a replay must reproduce
// exactly, the steady tenant's p99 included.
func (r result) counters() [9]int64 {
	return [9]int64{r.stats.Submitted, r.stats.Completed, r.stats.Failed, r.stats.Lost,
		r.stats.Failovers, r.stats.Crashes, r.stats.Recoveries, r.stats.BreakerTrips, r.p99}
}

// run drives the fixed two-phase trace through a fresh 3-replica
// cost-aware fleet under the given fault plan (nil = control) and
// checks every per-ticket outcome.
func run(plan *fleet.FaultPlan) result {
	cache := maestro.NewCache(energy.Default28nm())
	hda, err := accel.New("chaos", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	opts := fleet.DefaultOptions()
	opts.Policy = fleet.CostAware
	opts.Faults = plan
	opts.Serve.Manual = true
	f, err := fleet.Replicated(cache, hda, 3, opts)
	if err != nil {
		log.Fatal(err)
	}

	var tickets []*fleet.Ticket
	submit := func(tenant, model string, arrival int64) {
		t, err := f.Submit(serve.Request{
			Tenant: tenant, Model: model, ArrivalCycle: arrival, SLACycles: 1 << 50,
		})
		if err != nil {
			log.Fatalf("submit %s %s @%d: %v", tenant, model, arrival, err)
		}
		tickets = append(tickets, t)
	}

	// Phase A: steady AR/VR-style mix across the healthy fleet. The
	// arrivals walk the fault clock through the stall and the
	// admission-failure burst.
	for i := 0; i < 16; i++ {
		submit("steady", "brq-handpose", int64(i)*phaseGap)
		if i%2 == 0 {
			submit("steady", "mobilenetv1", int64(i)*phaseGap+phaseGap/2)
		}
	}
	// Admit phase A before staging the crash: the doomed set is then
	// exactly the burst requests the dispatcher routes to replica 0,
	// which stay queued until the crash extracts and fails them over.
	f.Admit()
	for i := 0; i < 6; i++ {
		submit("burst", "mobilenetv1", crashCycle-phaseGap+int64(i))
	}

	// The trigger arrival fires the crash: replica 0 dies with its
	// queue, survivors absorb the failovers. A later arrival fires the
	// recovery, and phase B spreads over the healed fleet.
	for i := 0; i < 16; i++ {
		submit("steady", "brq-handpose", crashCycle+int64(i)*phaseGap)
	}
	f.Admit()

	for i, t := range tickets {
		rec, err := t.Wait(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		if rec.Status != serve.StatusDone {
			log.Fatalf("request %d (%s): %s — a fault leaked to a client", i, rec.Tenant, rec.Err)
		}
	}

	st, err := f.Drain(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	var p99 int64
	for _, ts := range st.Tenants {
		if ts.Tenant == "steady" {
			p99 = ts.P99LatencyCycles
		}
	}
	if p99 <= 0 {
		log.Fatal("no steady-tenant p99 recorded")
	}
	return result{stats: st, decisions: f.Decisions(), p99: p99}
}

// ms converts cycles to milliseconds at the 1 GHz reference clock.
func ms(c int64) float64 { return float64(c) / 1e6 }
