// Fleet serving: scale the online serving tier beyond one accelerator.
// A deploy-time DSE fixes the edge-class Maelstrom partitioning, then
// three fleets serve the same skewed request mix:
//
//  1. four homogeneous replicas with round-robin dispatch,
//  2. four homogeneous replicas with cost-aware ETA dispatch,
//  3. a heterogeneous fleet over the top-2 DSE design points.
//
// The mix alternates a heavy model (unet) and a light one
// (brq-handpose) 1:1 — the aliasing pattern that defeats round-robin
// on even-sized fleets: every heavy request lands on the same
// replicas while the cost-aware dispatcher balances actual work. The
// run prints each fleet's per-replica dispatch counts, the per-tenant
// p99 latencies, and the throughput scaling over a single engine.
package main

import (
	"context"
	"fmt"
	"log"

	herald "repro"
)

const pairs = 30 // heavy+light request pairs per fleet

func main() {
	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	sp := herald.SearchSpace{
		Class:   herald.Edge,
		Styles:  herald.MaelstromStyles(),
		PEUnits: 8,
		BWUnits: 4,
	}
	opts := herald.DefaultSearchOptions()
	opts.Objective = herald.ObjectiveLatency
	res, err := herald.Search(cache, sp, herald.ARVRA(), opts)
	if err != nil {
		log.Fatal(err)
	}
	best := res.Best.HDA
	fmt.Printf("deploy-time DSE: %d points, best %v\n\n", len(res.Points), best)

	// Baseline: the same mix through a single engine.
	single := drive(mustFleet(herald.NewReplicatedFleet(cache, best, 1, fleetOpts(herald.RouteRoundRobin))))

	fmt.Println("=== 4 homogeneous replicas, round-robin dispatch ===")
	rr := drive(mustFleet(herald.NewReplicatedFleet(cache, best, 4, fleetOpts(herald.RouteRoundRobin))))
	report(rr, single)

	fmt.Println("=== 4 homogeneous replicas, cost-aware ETA dispatch ===")
	ca := drive(mustFleet(herald.NewReplicatedFleet(cache, best, 4, fleetOpts(herald.RouteCostAware))))
	report(ca, single)

	fmt.Println("=== heterogeneous fleet: top-2 DSE design points ===")
	top := res.TopK(herald.ObjectiveLatency, 2)
	hetero := drive(mustFleet(herald.NewFleet(cache,
		[]*herald.HDA{top[0].HDA, top[1].HDA}, fleetOpts(herald.RouteCostAware))))
	report(hetero, single)

	p99 := func(st herald.FleetStats, tenant string) int64 {
		for _, ts := range st.Tenants {
			if ts.Tenant == tenant {
				return ts.P99LatencyCycles
			}
		}
		return 0
	}
	fmt.Printf("cost-aware vs round-robin heavy-tenant p99: %.2f ms vs %.2f ms (%.1fx better)\n",
		ms(p99(ca, "render")), ms(p99(rr, "render")),
		float64(p99(rr, "render"))/float64(p99(ca, "render")))
	fmt.Printf("4-replica throughput scaling over one engine: %.2fx (round-robin), %.2fx (cost-aware)\n",
		rr.SimThroughputRPS/single.SimThroughputRPS, ca.SimThroughputRPS/single.SimThroughputRPS)
}

// fleetOpts builds a manual fleet: its engines admit only on Admit,
// so the printed figures do not depend on driver-goroutine timing.
func fleetOpts(p herald.FleetPolicy) herald.FleetOptions {
	o := herald.DefaultFleetOptions()
	o.Policy = p
	o.Serve.Manual = true
	return o
}

func mustFleet(f *herald.Fleet, err error) *herald.Fleet {
	if err != nil {
		log.Fatal(err)
	}
	return f
}

// drive submits the skewed mix sequentially (dispatch decisions are
// deterministic for a fixed sequence), admits it in one Admit call,
// waits for every completion, and drains the fleet.
func drive(f *herald.Fleet) herald.FleetStats {
	var tickets []*herald.FleetTicket
	submit := func(tenant, model string) {
		t, err := f.Submit(herald.InferenceRequest{
			Tenant: tenant, Model: model,
			SLACycles: 500_000_000, ArrivalCycle: 0,
		})
		if err != nil {
			log.Fatalf("%s %s: %v", tenant, model, err)
		}
		tickets = append(tickets, t)
	}
	for i := 0; i < pairs; i++ {
		submit("render", "unet")        // heavy
		submit("track", "brq-handpose") // light
	}
	f.Admit()
	for _, t := range tickets {
		rec, err := t.Wait(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		if rec.Status != herald.StatusDone {
			log.Fatalf("request %d failed: %s", rec.ID, rec.Err)
		}
	}
	st, err := f.Drain(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	return st
}

func report(st, single herald.FleetStats) {
	fmt.Printf("served %d requests at %.1f simulated req/s (%.2fx one engine)\n",
		st.Completed, st.SimThroughputRPS, st.SimThroughputRPS/single.SimThroughputRPS)
	for _, rs := range st.PerReplica {
		fmt.Printf("  replica %d %-28s dispatched %2d, busy-horizon %6.2f ms, makespan %6.2f ms\n",
			rs.Replica, rs.HDA, rs.Dispatched, ms(rs.HorizonCycles), ms(rs.Engine.MakespanCycles))
	}
	fmt.Println("  tenant     done   p50        p95        p99")
	for _, ts := range st.Tenants {
		fmt.Printf("  %-9s %5d  %7.2fms  %7.2fms  %7.2fms\n",
			ts.Tenant, ts.Completed, ms(ts.P50LatencyCycles), ms(ts.P95LatencyCycles), ms(ts.P99LatencyCycles))
	}
	fmt.Println()
}

// ms converts cycles to milliseconds at the 1 GHz reference clock.
func ms(c int64) float64 { return float64(c) / 1e6 }
