// Layer-fused segment serving: split each model into contiguous layer
// segments at the dataflow-preference boundaries (dse.PlanSegments),
// then serve each request as a precedence chain of per-segment
// instances. The replicas here serve different partitions, so the
// fleet dispatcher routes each segment independently (on identical
// replicas it would route the whole request to one engine instead).
//
// The demo drives the same back-to-back AR/VR burst through a
// dataflow-specialized fleet — one NVDLA FDA replica and one
// Shi-diannao FDA replica — unfused and fused. Unfused, every request
// runs end to end on whichever single-dataflow replica the dispatcher
// picks, so the depthwise half of a MobileNet pays NVDLA's penalty
// (or the pointwise half pays Shi-diannao's). Fused, each segment
// lands on the replica whose dataflow prefers its layers and the
// chains pipeline across the fleet: segment 2 of one request overlaps
// segment 1 of the next.
package main

import (
	"context"
	"fmt"
	"log"

	herald "repro"
)

const pairs = 16 // render+track request pairs per run

func main() {
	cache := herald.NewCostCache(herald.DefaultEnergyTable())

	// The planning HDA carries both dataflows: segment cuts fall at
	// the layer ranges where the preferred style flips.
	planHDA, err := herald.NewHDA("maelstrom-edge", herald.Edge, []herald.Partition{
		{Style: herald.NVDLA, PEs: 512, BWGBps: 8},
		{Style: herald.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	models := []string{"mobilenetv2", "mobilenetv1"}
	plans := make(map[string]herald.SegmentPlan)
	for _, name := range models {
		m, err := herald.ModelByName(name)
		if err != nil {
			log.Fatal(err)
		}
		p, err := herald.PlanSegments(cache, planHDA, m, herald.ObjectiveEDP, 4)
		if err != nil {
			log.Fatal(err)
		}
		plans[name] = p
		fmt.Printf("fusion plan %-12s %d segments (period %.2f ms, chain %.2f ms)\n",
			name, p.NumSegments(), ms(p.PeriodCycles), ms(p.ChainCycles))
		for _, sg := range p.Segments {
			fmt.Printf("  layers [%3d,%3d) -> %-12s %6.2f ms\n",
				sg.From, sg.To, planHDA.Subs[sg.SubAcc].Style, ms(sg.Cycles))
		}
	}
	fmt.Println()

	// The serving fleet: the same silicon split into one FDA per
	// dataflow. Whole requests must pick one style; segments need not.
	nvdla, err := herald.NewFDA(herald.Edge, herald.NVDLA)
	if err != nil {
		log.Fatal(err)
	}
	shi, err := herald.NewFDA(herald.Edge, herald.ShiDiannao)
	if err != nil {
		log.Fatal(err)
	}
	hdas := []*herald.HDA{nvdla, shi}

	unfused := drive(cache, hdas, nil)
	fused := drive(cache, hdas, plans)

	fmt.Println("=== unfused (whole-model requests, cost-aware routing) ===")
	report(unfused)
	fmt.Println("=== fused (segment chains, cost-aware per-segment routing) ===")
	report(fused)

	sg := fused.Segments
	fmt.Printf("fused served %d requests as %d segments, %d cross-replica handoffs\n",
		sg.FusedCompleted, sg.SegmentsCompleted, fused.CrossReplicaHandoffs)
	fmt.Printf("pipeline overlap: %.2f ms of handoff bubbles over %.2f ms of segment span\n",
		ms(sg.HandoffBubbleCycles), ms(sg.SegmentSpanCycles))
	fmt.Printf("burst makespan %.2f ms -> %.2f ms: %.2fx from segment pipelining\n",
		ms(unfused.MakespanCycles), ms(fused.MakespanCycles),
		float64(unfused.MakespanCycles)/float64(fused.MakespanCycles))
}

// drive submits the AR/VR burst (every request arrives at cycle 0 —
// the regime where whole-request dispatch strands each request on one
// dataflow), admits it, waits for every completion, drains the fleet
// and returns its stats. The fleet is manual — its engines admit only
// on Admit — so the printed figures do not depend on driver-goroutine
// timing. The fleet counts a fused request once, on its merged
// record, so fused and unfused tenant latencies compare at the same
// granularity (a fused request's latency ends at its last segment's
// completion).
func drive(cache *herald.CostCache, hdas []*herald.HDA, plans map[string]herald.SegmentPlan) herald.FleetStats {
	opts := herald.DefaultFleetOptions()
	opts.Serve.Plans = plans
	opts.Serve.Manual = true
	f, err := herald.NewFleet(cache, hdas, opts)
	if err != nil {
		log.Fatal(err)
	}
	var tickets []*herald.FleetTicket
	for i := 0; i < pairs; i++ {
		for _, rq := range []struct{ tenant, model string }{
			{"render", "mobilenetv2"},
			{"track", "mobilenetv1"},
		} {
			t, err := f.Submit(herald.InferenceRequest{
				Tenant: rq.tenant, Model: rq.model, ArrivalCycle: 0,
			})
			if err != nil {
				log.Fatalf("%s %s: %v", rq.tenant, rq.model, err)
			}
			tickets = append(tickets, t)
		}
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

func report(st herald.FleetStats) {
	fmt.Printf("burst of %d requests done in %.2f ms\n", st.Completed, ms(st.MakespanCycles))
	for _, rs := range st.PerReplica {
		fmt.Printf("  replica %d %-28s dispatched %3d, busy %6.2f ms\n",
			rs.Replica, rs.HDA, rs.Dispatched, ms(rs.Engine.MakespanCycles))
	}
	for _, ts := range st.Tenants {
		fmt.Printf("  %-9s done %3d  request p50 %7.2f ms  p99 %7.2f ms\n",
			ts.Tenant, ts.Completed, ms(ts.P50LatencyCycles), ms(ts.P99LatencyCycles))
	}
	fmt.Println()
}

// ms converts cycles to milliseconds at the 1 GHz reference clock.
func ms(c int64) float64 { return float64(c) / 1e6 }
