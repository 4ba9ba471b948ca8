package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	herald "repro"
	"repro/internal/config"
)

// serving parses heraldd's serving flags from args.
func serving(t *testing.T, args ...string) *config.Serving {
	t.Helper()
	fs := flag.NewFlagSet("heraldd", flag.ContinueOnError)
	sv := config.BindServing(fs, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return sv
}

// TestParsePartition checks the -partition spec as the daemon consumes
// it: parsed by config.ParsePartition, then built into the served HDA
// by the serving flags.
func TestParsePartition(t *testing.T) {
	spec := "nvdla:512:8, shi-diannao:512:8"
	parts, err := config.ParsePartition(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0].PEs != 512 || parts[1].BWGBps != 8 {
		t.Errorf("parts = %+v", parts)
	}
	if _, err := herald.NewHDA("heraldd", herald.Edge, parts); err != nil {
		t.Errorf("parsed partition not buildable: %v", err)
	}
	hda, err := serving(t, "-class", "edge", "-partition", spec).HDA("heraldd")
	if err != nil || hda == nil || len(hda.Subs) != 2 {
		t.Errorf("-partition %q served %v (err %v)", spec, hda, err)
	}
	if hda, err := serving(t).HDA("heraldd"); hda != nil || err != nil {
		t.Errorf("empty -partition built %v (err %v), want the bootstrap DSE", hda, err)
	}
	for _, bad := range []string{"nvdla:512", "tpu:512:8", "nvdla:x:8", "nvdla:512:y"} {
		if _, err := config.ParsePartition(bad); err == nil {
			t.Errorf("%q: accepted", bad)
		}
		if _, err := serving(t, "-partition", bad).HDA("heraldd"); err == nil {
			t.Errorf("-partition %q: served", bad)
		}
	}
}

// TestBootstrapSearch runs the deploy-time DSE at coarse granularity
// and checks the best point is a servable HDA for the class.
func TestBootstrapSearch(t *testing.T) {
	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	coarse := []string{"-pe-units", "4", "-bw-units", "2"}
	res, objective, err := bootstrapSearch(cache, serving(t, append(coarse, "-objective", "latency")...), "exhaustive", "arvr-a")
	if err != nil {
		t.Fatal(err)
	}
	if objective != herald.ObjectiveLatency {
		t.Errorf("objective %v, want latency", objective)
	}
	hda := res.Best.HDA
	if hda.NumSubs() != 2 || hda.Class.Name != "edge" {
		t.Fatalf("bootstrap HDA %v", hda)
	}
	for _, bad := range [][3]string{
		{"exhaustive", "edp", "nope"},
		{"nope", "edp", "arvr-a"},
		{"exhaustive", "nope", "arvr-a"},
		{"exhaustive", "edp", "arvr-a"},
	} {
		strategy, objective, wl := bad[0], bad[1], bad[2]
		if strategy == "exhaustive" && objective == "edp" && wl == "arvr-a" {
			continue // the valid combination
		}
		if _, _, err := bootstrapSearch(cache, serving(t, append(coarse, "-objective", objective)...), strategy, wl); err == nil {
			t.Errorf("bootstrapSearch(%s,%s,%s) accepted", strategy, objective, wl)
		}
	}
	if _, _, err := bootstrapSearch(cache, serving(t, append(coarse, "-styles", "nvdla,warp")...), "exhaustive", "arvr-a"); err == nil {
		t.Error("bad style accepted")
	}
}

// TestResweepProbe: the -resweep-every machinery end to end — a fleet
// of one with the flag-built sweeper reports "no traffic" before any
// request, and after serving a mixed load the probe names the
// partition the observed mix would pick.
func TestResweepProbe(t *testing.T) {
	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	sw, err := serving(t, "-pe-units", "4", "-bw-units", "2").Sweeper(cache, "exhaustive")
	if err != nil {
		t.Fatal(err)
	}
	hda, err := herald.NewHDA("probe", herald.Edge, []herald.Partition{
		{Style: herald.NVDLA, PEs: 512, BWGBps: 8},
		{Style: herald.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := herald.DefaultFleetOptions()
	opts.Sweeper = sw
	fl, err := herald.NewReplicatedFleet(cache, hda, 1, opts)
	if err != nil {
		t.Fatal(err)
	}

	if line := resweepProbe(fl); !strings.Contains(line, "no traffic") {
		t.Errorf("probe before traffic: %q", line)
	}

	for _, model := range []string{"mobilenetv1", "mobilenetv1", "resnet50"} {
		tk, err := fl.Submit(herald.InferenceRequest{Tenant: "t", Model: model, ArrivalCycle: 0})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	line := resweepProbe(fl)
	if !strings.Contains(line, "would pick") || !strings.Contains(line, "evaluated") {
		t.Errorf("probe after traffic: %q", line)
	}
	if _, err := fl.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The flag parsers behind the sweeper must keep rejecting garbage.
	if _, err := serving(t, "-styles", "warp").Sweeper(cache, "exhaustive"); err == nil {
		t.Error("bad style accepted")
	}
	if _, err := serving(t).Sweeper(cache, "nope"); err == nil {
		t.Error("bad strategy accepted")
	}
	if _, err := serving(t, "-objective", "nope").Sweeper(cache, "exhaustive"); err == nil {
		t.Error("bad objective accepted")
	}
}

// TestRepartitionController: the -repartition wiring end to end — a
// fleet with the flag-built sweeper, serving a partition the live
// traffic disagrees with, migrates to the traffic's winner on one
// controller step and keeps serving.
func TestRepartitionController(t *testing.T) {
	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	sw, err := serving(t, "-pe-units", "4", "-bw-units", "2").Sweeper(cache, "exhaustive")
	if err != nil {
		t.Fatal(err)
	}
	// Serve the mobilenet-optimal NVDLA-heavy split while the live
	// traffic is all unet (which wants a different partition).
	hda, err := herald.NewHDA("boot", herald.Edge, []herald.Partition{
		{Style: herald.NVDLA, PEs: 768, BWGBps: 8},
		{Style: herald.ShiDiannao, PEs: 256, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := herald.DefaultFleetOptions()
	opts.Sweeper = sw
	fl, err := herald.NewReplicatedFleet(cache, hda, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := herald.NewRepartitionController(fl, herald.RepartitionOptions{Confirm: 1, Cooldown: 2})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 4; i++ {
		tk, err := fl.Submit(herald.InferenceRequest{Tenant: "arvr", Model: "unet", ArrivalCycle: 0})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	d, err := ctrl.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != herald.RepartitionMigrated || fl.Generation() != 1 {
		t.Fatalf("controller step: %+v (generation %d)", d, fl.Generation())
	}
	if !strings.Contains(d.String(), "MIGRATED") {
		t.Errorf("decision log line %q", d)
	}
	// The migrated fleet still serves.
	tk, err := fl.Submit(herald.InferenceRequest{Tenant: "arvr", Model: "unet", ArrivalCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rec, err := tk.Wait(context.Background()); err != nil || rec.Status != herald.StatusDone {
		t.Fatalf("post-migration request: %+v %v", rec, err)
	}
	st, err := fl.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != 5 || st.Migrations != 1 {
		t.Fatalf("final stats: %+v", st)
	}
}

// TestTopKHDAs: heterogeneous fleets take their substrates from the
// bootstrap search's top-K points, cycling when the cloud is small.
func TestTopKHDAs(t *testing.T) {
	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	res, objective, err := bootstrapSearch(cache, serving(t, "-pe-units", "4", "-bw-units", "2", "-objective", "latency"), "exhaustive", "arvr-a")
	if err != nil {
		t.Fatal(err)
	}
	hdas := topKHDAs(res, objective, 3)
	if len(hdas) != 3 {
		t.Fatalf("%d HDAs, want 3", len(hdas))
	}
	if hdas[0] != res.Best.HDA {
		t.Errorf("replica 0 should serve the best point, got %v", hdas[0])
	}
	if hdas[0] == hdas[1] {
		t.Errorf("top-K fleet is homogeneous: %v", hdas)
	}
	// A fleet larger than the design cloud cycles through the top-K.
	many := topKHDAs(res, objective, len(res.Points)+2)
	if many[len(res.Points)] != many[0] {
		t.Error("oversized fleet does not cycle through the cloud")
	}

	// Without -fleet-topk the replicas are copies of the best point.
	rep := serving(t, "-replicas", "4").Replicas(res.Best.HDA)
	if len(rep) != 4 || rep[0] != rep[3] || rep[0] != res.Best.HDA {
		t.Errorf("homogeneous replicas: %v", rep)
	}
}

// TestCaptureReplayRoundTrip: the -capture wiring end to end through
// the HTTP surface — a fleet records its accepted submissions through
// the recorder's OnAccept method, as main() wires it, traffic flows through POST
// /v1/requests and /v1/drain, and the captured trace replays under
// cmd/heraldplay's engine (herald.Replay) to the live run's counters,
// twice, byte-identically.
func TestCaptureReplayRoundTrip(t *testing.T) {
	cache := herald.NewCostCache(herald.DefaultEnergyTable())
	hda, err := herald.NewHDA("cap", herald.Edge, []herald.Partition{
		{Style: herald.NVDLA, PEs: 512, BWGBps: 8},
		{Style: herald.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	rec, err := herald.NewTraceRecorder(&buf, "heraldd capture")
	if err != nil {
		t.Fatal(err)
	}
	opts := herald.DefaultFleetOptions()
	opts.OnAccept = rec.OnAccept
	fl, err := herald.NewReplicatedFleet(cache, hda, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fl.Handler())
	defer srv.Close()

	// Live traffic with explicit arrival cycles (what a replayable
	// client sends) through the public endpoint.
	reqs := []string{
		`{"tenant":"a","model":"mobilenetv1","arrival_cycle":1000,"sla_cycles":90000000,"wait":true}`,
		`{"tenant":"b","model":"brq-handpose","arrival_cycle":2000,"wait":true}`,
		`{"tenant":"a","model":"mobilenetv1","arrival_cycle":250000,"priority":1,"wait":true}`,
		`{"tenant":"c","model":"no-such-model","arrival_cycle":3000}`, // rejected: must NOT be captured
		`{"tenant":"b","model":"resnet50","arrival_cycle":500000,"wait":true}`,
	}
	for i, body := range reqs {
		resp, err := http.Post(srv.URL+"/v1/requests", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if i == 3 {
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("bad-model submission: status %d", resp.StatusCode)
			}
		} else if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var live struct {
		Submitted int64 `json:"submitted"`
		Completed int64 `json:"completed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Count() != 4 {
		t.Fatalf("captured %d entries, want 4 (the rejected submission must not be recorded)", rec.Count())
	}

	tr, err := herald.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) != 4 {
		t.Fatalf("trace holds %d entries, want 4", len(tr.Entries))
	}
	if e := tr.Entries[0]; e.Tenant != "a" || e.SLACycles != 90000000 {
		t.Fatalf("entry 0 lost fields: %+v", e)
	}
	if e := tr.Entries[2]; e.Priority != 1 {
		t.Fatalf("entry 2 lost priority: %+v", e)
	}

	// Replay the capture twice against the same config: byte-identical
	// digests, counters matching the live run.
	run := func() ([]byte, *herald.ReplayDigest) {
		d, err := herald.Replay(context.Background(), cache, []*herald.HDA{hda, hda}, tr,
			herald.ReplayOptions{Fleet: herald.DefaultFleetOptions()})
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return b, d
	}
	b1, d1 := run()
	b2, _ := run()
	if !bytes.Equal(b1, b2) {
		t.Fatal("replaying the captured trace twice produced different digests")
	}
	if !d1.Conservation.Holds {
		t.Fatalf("replay conservation violated: %+v", d1.Conservation)
	}
	if d1.Counters.Submitted != live.Submitted || d1.Counters.Completed != live.Completed {
		t.Fatalf("replay counters (%d submitted, %d completed) diverge from the live run (%d, %d)",
			d1.Counters.Submitted, d1.Counters.Completed, live.Submitted, live.Completed)
	}
}

// TestServeFleetOfOne: main's one serving path at -replicas 1 with
// -fuse and -capture. The daemon serves the fleet surface (fleet
// stats, acks carrying the replica), fuses the request (the merged
// record carries its segments), and captures the fused request with
// its plan id.
func TestServeFleetOfOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "capture.jsonl")
	fs := flag.NewFlagSet("heraldd", flag.ContinueOnError)
	cfg := bindFlags(fs)
	if err := fs.Parse([]string{"-partition", "nvdla:512:8,shi-diannao:512:8", "-replicas", "1", "-fuse", "-capture", path}); err != nil {
		t.Fatal(err)
	}
	s, err := newServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.fleet.Handler())
	defer srv.Close()

	post := func(body string, out any) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/requests", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	var ack map[string]any
	if code := post(`{"tenant":"arvr","model":"brq-handpose","arrival_cycle":0}`, &ack); code != http.StatusAccepted {
		t.Fatalf("async submit: %d %v", code, ack)
	}
	if r, ok := ack["replica"]; !ok || r != float64(0) {
		t.Errorf("ack %v does not carry replica 0", ack)
	}
	var rec herald.RequestRecord
	if code := post(`{"tenant":"arvr","model":"mobilenetv2","arrival_cycle":1000,"wait":true}`, &rec); code != http.StatusOK || rec.Status != herald.StatusDone {
		t.Fatalf("fused submit: %d %+v", code, rec)
	}
	if len(rec.Segments) < 2 {
		t.Fatalf("mobilenetv2 served unfused under -fuse: %+v", rec)
	}
	resp, err := http.Get(srv.URL + "/v1/fleet/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/fleet/stats: %d", resp.StatusCode)
	}

	s.shutdown(context.Background(), t.Logf)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := herald.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) != 2 {
		t.Fatalf("captured %d entries, want 2", len(tr.Entries))
	}
	if e, want := tr.Entries[1], fmt.Sprintf("mobilenetv2/%d", len(rec.Segments)); e.Model != "mobilenetv2" || e.Plan != want {
		t.Errorf("fused entry %+v, want plan %q", e, want)
	}
}

// TestServeFuseAtEngineLayer: at -replicas 2 -fuse the daemon's two
// replicas serve one partition, so each fused request goes whole to
// one replica engine, which chains its segments — the layer heraldplay
// replays the same flags at (cmd/heraldplay TestFuseAtEngineLayer).
// No segment crosses replicas, and every segment carries the replica
// that served the request.
func TestServeFuseAtEngineLayer(t *testing.T) {
	fs := flag.NewFlagSet("heraldd", flag.ContinueOnError)
	cfg := bindFlags(fs)
	if err := fs.Parse([]string{"-partition", "nvdla:512:8,shi-diannao:512:8", "-replicas", "2", "-fuse"}); err != nil {
		t.Fatal(err)
	}
	s, err := newServer(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var tickets []*herald.FleetTicket
	for i := 0; i < n; i++ {
		tk, err := s.fleet.Submit(herald.InferenceRequest{Tenant: "arvr", Model: "mobilenetv2", ArrivalCycle: int64(i) * 500_000})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		rec, err := tk.Wait(context.Background())
		if err != nil || rec.Status != herald.StatusDone || len(rec.Segments) < 2 {
			t.Fatalf("request %d: %+v %v", i, rec, err)
		}
		for k, sr := range rec.Segments {
			if sr.Replica != tk.Served() {
				t.Errorf("request %d segment %d on replica %d, request served by %d", i, k, sr.Replica, tk.Served())
			}
		}
	}
	s.shutdown(context.Background(), t.Logf)
	st := s.fleet.Stats()
	if st.CrossReplicaHandoffs != 0 || st.Segments.FusedCompleted != n || st.Submitted != n {
		t.Errorf("%d cross-replica handoffs, %d fused completed, %d submitted; want 0, %d, %d",
			st.CrossReplicaHandoffs, st.Segments.FusedCompleted, st.Submitted, n, n)
	}
}
