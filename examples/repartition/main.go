// Dynamic repartitioning: close the probe→action gap live.
//
// A deploy-time DSE fixes a partitioning for the *expected* workload
// (a mobilenet-style edge mix), and a 2-replica fleet serves on it.
// Then the live traffic shifts to unet — a model whose optimal
// PE split is different — and the repartitioning controller:
//
//  1. holds while the serving partition is still the sweep winner,
//  2. confirms the shifted mix across consecutive probes (hysteresis),
//  3. live-migrates: spawns a new replica generation on the winning
//     partition, drains the old engines (every in-flight request
//     completes), and hands the tenants over,
//  4. refuses to flap back while the new partition serves the new
//     mix.
//
// The run prints each controller decision, the unet burst's p99
// latency before vs. after the migration, and the final fleet
// statistics (generations, retired replicas, conservation of every
// request).
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	herald "repro"
)

const (
	replicas  = 2
	burst     = 8 // unet requests per measured burst
	warmupMob = 12
)

func main() {
	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	sp := herald.SearchSpace{
		Class:   herald.Edge,
		Styles:  herald.MaelstromStyles(),
		PEUnits: 4,
		BWUnits: 2,
	}
	dopts := herald.DefaultSearchOptions()
	dopts.BestOnly = true
	dopts.Prune = true

	// Deploy-time: optimize the partitioning for the expected
	// mobilenet-heavy traffic.
	expected, err := herald.SingleDNN("mobilenetv1", 3)
	if err != nil {
		log.Fatal(err)
	}
	boot, err := herald.Search(cache, sp, expected, dopts)
	if err != nil {
		log.Fatal(err)
	}
	design := herald.DesignFromSearch(boot)
	fmt.Printf("deploy-time DSE on %s: best %v (EDP %.4g J*s)\n\n", expected.Name, design.HDA, design.EDP)

	// The serving fleet holds a warm sweeper so the controller's
	// probes cost a warm re-sweep, not a cold search.
	sweeper, err := herald.NewSweeper(cache, sp, dopts)
	if err != nil {
		log.Fatal(err)
	}
	fopts := herald.DefaultFleetOptions()
	fopts.Sweeper = sweeper
	// A manual fleet admits only on Admit, so each burst's latencies
	// (and the printed p99s) do not depend on driver-goroutine timing.
	fopts.Serve.Manual = true
	fl, err := herald.NewReplicatedFleet(cache, design.HDA, replicas, fopts)
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := herald.NewRepartitionController(fl, herald.RepartitionOptions{
		Threshold: 0.05, // winner must beat the serving partition by 5%
		Confirm:   2,    // ...on two consecutive probes
		Cooldown:  2,    // ...and rest two probes after migrating
	})
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: the expected traffic arrives; the controller holds.
	fmt.Println("=== phase 1: mobilenet traffic (matches the deploy-time assumption) ===")
	waitAll(fl, submit(fl, "mobile", "mobilenetv1", warmupMob, 0))
	step(ctrl)

	// Phase 2: the mix shifts — an AR/VR tenant starts streaming unet
	// bursts. Measure the burst's p99 on the old partition, then let
	// the controller confirm the shift and migrate.
	fmt.Println("\n=== phase 2: traffic shifts to unet ===")
	before := waitAll(fl, submit(fl, "arvr", "unet", burst, 2_000_000_000))
	fmt.Printf("unet burst p99 on the old partition: %d cycles\n", p99(before))
	step(ctrl) // confirming (streak 1 of 2)
	d := step(ctrl)
	if d.Action != herald.RepartitionMigrated {
		log.Fatalf("expected a migration, got %+v", d)
	}
	fmt.Printf("fleet is now generation %d on %v\n", fl.Generation(), fl.ActiveHDAs()[0])

	// Phase 3: the same burst shape on the new generation.
	fmt.Println("\n=== phase 3: the same unet burst on the new partition ===")
	after := waitAll(fl, submit(fl, "arvr", "unet", burst, 0))
	fmt.Printf("unet burst p99: %d -> %d cycles (%.1f%% better)\n",
		p99(before), p99(after), 100*(1-float64(p99(after))/float64(p99(before))))
	fmt.Printf("objective on the shifted mix: %.4g -> %.4g (%s, %.1f%% better)\n",
		d.ServingValue, d.WinnerValue, d.Objective, 100*d.Improvement)

	// Anti-flap: the new partition is the winner for the new mix, so
	// further probes hold (and the cooldown would block a flap even if
	// they did not).
	fmt.Println("\n=== anti-flap: further probes on the shifted mix ===")
	for i := 0; i < 2; i++ {
		if d := step(ctrl); d.Action == herald.RepartitionMigrated {
			log.Fatal("controller flapped")
		}
	}

	st, err := fl.Drain(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal: generation %d, %d migration(s), %d retired replicas; %d submitted = %d completed (nothing lost)\n",
		st.Generation, st.Migrations, st.RetiredReplicas, st.Submitted, st.Completed)
}

// submit sends n explicit-arrival requests of one model (arrivals at
// base, a burst) and returns the tickets.
func submit(fl *herald.Fleet, tenant, model string, n int, base int64) []*herald.FleetTicket {
	out := make([]*herald.FleetTicket, 0, n)
	for i := 0; i < n; i++ {
		tk, err := fl.Submit(herald.InferenceRequest{Tenant: tenant, Model: model, ArrivalCycle: base})
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, tk)
	}
	return out
}

// waitAll admits the fleet's queued requests, waits for every ticket
// and returns the latencies in cycles.
func waitAll(fl *herald.Fleet, tickets []*herald.FleetTicket) []int64 {
	fl.Admit()
	lats := make([]int64, 0, len(tickets))
	for _, tk := range tickets {
		rec, err := tk.Wait(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		if rec.Status != herald.StatusDone {
			log.Fatalf("request %d failed: %s", rec.ID, rec.Err)
		}
		lats = append(lats, rec.LatencyCycles)
	}
	return lats
}

// step runs one controller iteration and prints its decision.
func step(ctrl *herald.RepartitionController) herald.RepartitionDecision {
	d, err := ctrl.Step(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(d)
	return d
}

// p99 is the nearest-rank 99th percentile.
func p99(lats []int64) int64 {
	sorted := append([]int64(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (99*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	return sorted[idx-1]
}
