// Online multi-tenant serving: the runtime counterpart of the other
// examples. A deploy-time DSE fixes the best edge-class Maelstrom
// partitioning for the AR/VR-A workload, heraldd's HTTP front end
// serves it in-process as a fleet of one replica (the daemon's default
// path), and two tenants — an AR/VR pipeline and an MLPerf
// multi-stream client — drive a mixed request stream of 120
// interleaved inference requests with jittered periodic arrivals.
// Every request comes back with its schedule placement and latency;
// the run ends with the per-tenant SLA/latency summary and aggregate
// throughput a serving operator would watch.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"

	herald "repro"
)

func main() {
	// Deploy time: fix the serving substrate via DSE (coarse
	// granularity keeps the example snappy).
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
	hda := res.Best.HDA
	fmt.Printf("deploy-time DSE: %d points, serving on %v\n\n", len(res.Points), hda)

	// Runtime: a fleet of one behind heraldd's HTTP API.
	fl, err := herald.NewReplicatedFleet(cache, hda, 1, herald.DefaultFleetOptions())
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: fl.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("heraldd serving at %s\n\n", base)

	// Two tenants' traffic as jittered periodic streams.
	arvr, err := herald.Stream([]herald.StreamEntry{
		{Model: "brq-handpose", Count: 24, PeriodCycles: 2_000_000, JitterCycles: 400_000},
		{Model: "mobilenetv2", Count: 20, PeriodCycles: 2_500_000, JitterCycles: 500_000},
		{Model: "unet", Count: 16, PeriodCycles: 3_000_000, OffsetCycles: 1_000_000, JitterCycles: 600_000},
	}, 42)
	if err != nil {
		log.Fatal(err)
	}
	mlperf, err := herald.Stream([]herald.StreamEntry{
		{Model: "mobilenetv1", Count: 24, PeriodCycles: 2_200_000, JitterCycles: 300_000},
		{Model: "ssd-mobilenetv1", Count: 20, PeriodCycles: 2_800_000, JitterCycles: 400_000},
		{Model: "resnet50", Count: 16, PeriodCycles: 3_500_000, OffsetCycles: 500_000, JitterCycles: 700_000},
	}, 43)
	if err != nil {
		log.Fatal(err)
	}
	streams := map[string][]herald.Arrival{"arvr": arvr, "mlperf": mlperf}
	total := len(arvr) + len(mlperf)
	fmt.Printf("driving %d interleaved requests from %d tenants...\n", total, len(streams))

	var wg sync.WaitGroup
	var mu sync.Mutex
	slowest := map[string]herald.RequestRecord{}
	for tenant, arrivals := range streams {
		for _, a := range arrivals {
			wg.Add(1)
			go func(tenant string, a herald.Arrival) {
				defer wg.Done()
				rec, err := submit(base, tenant, a)
				if err != nil {
					log.Fatalf("%s %s: %v", tenant, a.Model, err)
				}
				mu.Lock()
				if rec.LatencyCycles > slowest[tenant].LatencyCycles {
					slowest[tenant] = rec
				}
				mu.Unlock()
			}(tenant, a)
		}
	}
	wg.Wait()

	for tenant, rec := range slowest {
		fmt.Printf("slowest %-7s request: %s #%d — queued %.2f ms, ran %.2f ms, latency %.2f ms\n",
			tenant, rec.Model, rec.ID,
			cyclesToMs(rec.QueueCycles), cyclesToMs(rec.BusyCycles), cyclesToMs(rec.LatencyCycles))
	}

	// Drain and print the operator's dashboard.
	var stats herald.FleetStats
	if err := call("POST", base+"/v1/drain", nil, &stats); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserved %d/%d requests, simulated throughput %.1f req/s\n",
		stats.Completed, stats.Submitted, stats.SimThroughputRPS)
	engine := stats.PerReplica[0].Engine
	for i, u := range engine.Utilization {
		fmt.Printf("  %-24s busy %5.1f%%\n", hda.Subs[i].Name, 100*u)
	}
	fmt.Println("\ntenant     done   mean-lat    p50        p95        p99")
	for _, ts := range stats.Tenants {
		fmt.Printf("%-10s %4d   %7.2fms  %7.2fms  %7.2fms  %7.2fms\n",
			ts.Tenant, ts.Completed,
			cyclesToMs(ts.MeanLatencyCycles), cyclesToMs(ts.P50LatencyCycles),
			cyclesToMs(ts.P95LatencyCycles), cyclesToMs(ts.P99LatencyCycles))
	}
	fmt.Printf("\ncost-model cache: %d footprints shared across all requests\n", engine.CostCacheEntries)
}

// submit posts one synchronous inference request.
func submit(base, tenant string, a herald.Arrival) (herald.RequestRecord, error) {
	var rec herald.RequestRecord
	err := call("POST", base+"/v1/requests", map[string]any{
		"tenant":        tenant,
		"model":         a.Model,
		"arrival_cycle": a.Cycle,
		"sla_cycles":    200_000_000, // 200 ms at 1 GHz
		"wait":          true,
	}, &rec)
	if err == nil && rec.Status != "done" {
		err = fmt.Errorf("request not served: %+v", rec)
	}
	return rec, err
}

func call(method, url string, body, out any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: HTTP %d", method, url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// cyclesToMs converts cycles to milliseconds at the 1 GHz reference
// clock.
func cyclesToMs(c int64) float64 { return float64(c) / 1e6 }
