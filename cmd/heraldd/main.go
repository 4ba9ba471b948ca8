// Command heraldd is Herald's online serving daemon: the runtime
// counterpart of cmd/herald's design-time search. At startup it fixes
// an HDA — either the best point of a bootstrap dse.Search over a
// representative workload (-bootstrap takes the names cmd/herald's
// -workload takes), or an explicit -partition — then serves a
// JSON-over-HTTP API that admits DNN inference requests at runtime,
// extends the layer schedule incrementally, and reports per-request
// latency/SLA statistics plus aggregate throughput.
//
// The substrate, engine, fleet, fault, fusion, search and ladder flags
// are the serving flag family internal/config binds for both heraldd
// and cmd/heraldplay (same names, same defaults except -partition);
// only -addr, -strategy, -bootstrap, -fleet-topk, -resweep-every and
// -capture are the daemon's own. docs/OPERATIONS.md lists them all.
//
// The daemon always serves a *fleet*: -replicas N replica engines (a
// fleet of one by default) behind a routing policy (-fleet-policy
// round-robin, least-outstanding or cost-aware). -fleet-topk makes the
// fleet heterogeneous: the replicas take the top-K design points of
// the bootstrap DSE instead of K copies of the best.
//
// Examples:
//
//	go run ./cmd/heraldd -addr :8080 -class edge -bootstrap arvr-a
//	go run ./cmd/heraldd -class mobile -styles nvdla,shi-diannao \
//	    -pe-units 8 -bw-units 4 -objective latency
//	go run ./cmd/heraldd -class edge -partition "nvdla:512:8,shi-diannao:512:8"
//	go run ./cmd/heraldd -class edge -replicas 4 -fleet-policy cost-aware
//	go run ./cmd/heraldd -class edge -replicas 3 -fleet-topk
//	go run ./cmd/heraldd -class edge -replicas 2 -resweep-every 30s
//	go run ./cmd/heraldd -class edge -replicas 2 -resweep-every 30s -repartition
//	go run ./cmd/heraldd -class edge -fuse -max-segments 4
//	go run ./cmd/heraldd -class edge -replicas 2 -fuse -mix-half-life 256
//
// -fuse turns on layer-fused segment serving: at startup the daemon
// searches each zoo model's fusion cuts on the serving HDA (bounded by
// -max-segments) and admits each request for a splitting model as a
// chain of per-segment instances, so consecutive requests pipeline
// across sub-accelerators. The fleet owns every chain and picks how
// many segments one admission carries: when every replica serves the
// same partition (any -replicas without -fleet-topk) all of them go to
// one replica engine, which links them; on a heterogeneous -fleet-topk
// fleet each segment is routed cost-aware across replicas when its
// predecessor completes. heraldplay replays a capture the same way.
// GET /v1/stats reports the segment counters.
// -mix-half-life makes the resweep probe's observed mix exponentially
// decayed instead of all-time.
//
// -resweep-every N steps the control ladder once per period on the
// observed tenant mix. Alone it steps a hold-only ladder: the
// migration rung re-runs the partition DSE and records a hold that
// names the winner, but never acts. With -repartition the ladder
// acts: preempt low-priority work on new SLA violations
// (-elastic-preempt-below), else re-slice PEs between sub-accelerators in place
// (-elastic-quantum), else live-migrate the fleet to the winning
// partition (spawn new replica engines, drain the old generation,
// hand tenants over) when the winner beats the serving partition by
// -repartition-threshold for -repartition-confirm consecutive probes,
// then rest for -repartition-cooldown probes (anti-flap). See
// docs/OPERATIONS.md for the full runbook.
//
// Fault tolerance (see docs/OPERATIONS.md, "Failure handling"):
// -faults injects a deterministic, cycle-scheduled fault plan
// ("3000:0:crash,5000:0:recover") for chaos testing; crashed
// replicas' queued requests fail over to survivors (bounded by
// -max-attempts) and a consecutive-failure circuit breaker
// (-breaker-threshold, -breaker-probe-after) routes around replicas
// that stop admitting. -shed-sla-factor turns on overload shedding:
// arrivals whose best ETA already blows their SLA budget get 429 +
// Retry-After instead of queueing. GET /v1/fleet/stats reports
// per-replica health and the fault counters, GET /v1/fleet/decisions
// the decision log. The daemon
// shuts down gracefully on SIGINT/SIGTERM: stop admissions, drain
// in-flight work, log final stats.
//
// -capture streams every accepted request (tenant, model, arrival
// cycle, SLA, fusion-plan id) to a versioned JSONL trace file in
// admission order, flushed after the graceful drain. Together with the
// exported fault log (GET /v1/fleet/decisions) the trace re-runs
// offline under cmd/heraldplay — byte-reproducible incident replay and
// config A/B (docs/OPERATIONS.md, "Trace capture & replay").
//
// API (internal/fleet's Handler; docs/OPERATIONS.md, "HTTP API"):
//
//	POST /v1/requests      {"tenant":"arvr","model":"unet","wait":true}
//	GET  /v1/stats         (alias of /v1/fleet/stats)
//	POST /v1/drain
//	GET  /v1/fleet/decisions | /v1/fleet/repartition
//	GET  /v1/models | /v1/healthz
//	GET  /v1/replicas/{i}/requests/{id} | stats | schedule | hda | healthz
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	herald "repro"
	"repro/internal/config"
)

// flags is the daemon's command line: its own flags plus the serving
// flag family internal/config binds.
type flags struct {
	addr, strategy, bootstrap, capture string
	fleetTopK                          bool
	resweepEvery                       time.Duration
	sv                                 *config.Serving
}

func bindFlags(fs *flag.FlagSet) *flags {
	c := &flags{}
	fs.StringVar(&c.addr, "addr", ":8080", "HTTP listen address")
	fs.StringVar(&c.strategy, "strategy", "exhaustive", "bootstrap search strategy: exhaustive, binary, random")
	fs.StringVar(&c.bootstrap, "bootstrap", "arvr-a", "bootstrap workload the DSE optimizes the HDA for: arvr-a, arvr-b, mlperf, mlperf8, a zoo model, or model:batches")
	fs.BoolVar(&c.fleetTopK, "fleet-topk", false, "heterogeneous fleet: replicas take the top-K bootstrap-DSE points instead of K copies of the best")
	fs.DurationVar(&c.resweepEvery, "resweep-every", 0, "periodically re-run the partition DSE on the observed tenant mix (0 = off; a hold-only ladder unless -repartition)")
	fs.StringVar(&c.capture, "capture", "", "stream every accepted request to this JSONL trace file, flushed on graceful shutdown (replay it with cmd/heraldplay)")
	c.sv = config.BindServing(fs, "")
	return c
}

func main() {
	cfg := bindFlags(flag.CommandLine)
	flag.Parse()
	s, err := newServer(cfg, log.Printf)
	if err != nil {
		log.Fatal(err)
	}

	// The signal context drives graceful shutdown: stop admitting, stop
	// the control loop, drain, log final stats.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if s.ctrl != nil {
		go s.ctrl.Run(ctx, cfg.resweepEvery)
	}

	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           s.fleet.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	log.Printf("heraldd listening on %s", cfg.addr)
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stopSignals() // a second signal kills the process the default way
	log.Printf("signal received; shutting down (draining in-flight work)")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.Canceled) {
		log.Printf("http shutdown: %v", err)
	}
	s.shutdown(shutCtx, log.Printf)
}

// server is what the daemon serves: a fleet (of one at -replicas 1),
// its optional control ladder, and the optional capture stream.
type server struct {
	fleet *herald.Fleet
	// ctrl steps the control ladder once per -resweep-every period
	// (nil without -resweep-every; hold-only without -repartition).
	ctrl *herald.RepartitionController
	// rec and captureFile are the -capture stream (nil without it).
	rec         *herald.TraceRecorder
	captureFile *os.File
}

// newServer builds the served fleet from the parsed flags: the replica
// HDAs (a fixed -partition, or the bootstrap DSE's best or top-K
// points), the -fuse plans, the -capture recorder, the resweep
// sweeper and the control ladder. On error it releases whatever it
// already built.
func newServer(cfg *flags, logf func(string, ...any)) (_ *server, err error) {
	s := &server{}
	defer func() {
		if err == nil {
			return
		}
		if s.fleet != nil {
			_, _ = s.fleet.Drain(context.Background())
		}
		if s.captureFile != nil {
			s.captureFile.Close()
		}
	}()
	sv := cfg.sv
	fopts, err := sv.FleetOptions()
	if err != nil {
		return nil, err
	}
	ctrlOpts, err := sv.Ladder.Options()
	if err != nil {
		return nil, err
	}
	if ctrlOpts != nil && cfg.resweepEvery <= 0 {
		return nil, errors.New("-repartition needs -resweep-every > 0 (the probe period is the control period)")
	}
	holdOnly := ctrlOpts == nil && cfg.resweepEvery > 0
	if holdOnly {
		// The migration rung alone, behind a threshold no step reaches:
		// improvement is (serving-winner)/serving over non-negative
		// objectives, so at most 1. Every step holds and names the winner.
		ctrlOpts = &herald.RepartitionOptions{Threshold: 2}
	}
	cache := herald.NewCostCache(herald.DefaultEnergyTable())

	hda, err := sv.HDA("heraldd")
	if err != nil {
		return nil, err
	}
	var hdas []*herald.HDA
	if hda != nil {
		if cfg.fleetTopK {
			return nil, errors.New("-fleet-topk needs the bootstrap DSE; it cannot be combined with -partition")
		}
		logf("serving on fixed partition %v", hda)
		hdas = sv.Replicas(hda)
	} else {
		res, objective, err := bootstrapSearch(cache, sv, cfg.strategy, cfg.bootstrap)
		if err != nil {
			return nil, err
		}
		logf("bootstrap DSE: %d points, best (%v) %v", len(res.Points), objective, res.Best.HDA)
		hdas = sv.Replicas(res.Best.HDA)
		if cfg.fleetTopK && len(hdas) > 1 {
			hdas = topKHDAs(res, objective, len(hdas))
		}
	}

	if fopts.Serve.Plans, err = sv.Plans(cache, hdas[0], logf); err != nil {
		return nil, err
	}
	if cfg.resweepEvery > 0 {
		if fopts.Sweeper, err = sv.Sweeper(cache, cfg.strategy); err != nil {
			return nil, err
		}
	}

	// Trace capture: the recorder hooks the fleet's OnAccept, so the
	// trace is exactly the accepted-submission sequence in admission
	// order — the input cmd/heraldplay replays.
	if cfg.capture != "" {
		if s.captureFile, err = os.Create(cfg.capture); err != nil {
			return nil, err
		}
		if s.rec, err = herald.NewTraceRecorder(s.captureFile, "heraldd capture"); err != nil {
			return nil, err
		}
		fopts.OnAccept = s.rec.OnAccept
		logf("capturing accepted requests to %s", cfg.capture)
	}

	if s.fleet, err = herald.NewFleet(cache, hdas, fopts); err != nil {
		return nil, err
	}
	for i, h := range hdas {
		logf("  replica %d: %v", i, h)
	}
	logf("fleet of %d replica(s), %s routing, clock %g GHz", len(hdas), fopts.Policy, fopts.Serve.ClockGHz)
	if fopts.Faults != nil {
		logf("fault injection on: %d scheduled events (-faults)", len(fopts.Faults.Events))
	}
	if f := fopts.Health.ShedSLAFactor; f > 0 {
		logf("overload shedding on: budget %gx SLA (-shed-sla-factor)", f)
	}
	if ctrlOpts == nil {
		return s, nil
	}
	ctrlOpts.Logf = logf
	if s.ctrl, err = herald.NewRepartitionController(s.fleet, *ctrlOpts); err != nil {
		return nil, err
	}
	if holdOnly {
		logf("resweep probe every %v (hold-only ladder; add -repartition to act on it)", cfg.resweepEvery)
	} else {
		logf("control ladder every %v (migrate threshold %.3g, confirm %d, cooldown %d; reassign quantum %d threshold %.3g; preempt below %d max %d)",
			cfg.resweepEvery, ctrlOpts.Threshold, ctrlOpts.Confirm, ctrlOpts.Cooldown,
			ctrlOpts.PEQuantum, ctrlOpts.ReassignThreshold, ctrlOpts.PreemptBelow, ctrlOpts.PreemptMax)
	}
	return s, nil
}

// shutdown drains the fleet, logs the final stats and flushes the
// capture. The flush comes after the drain: admissions have stopped,
// so the trace is complete and replayable the moment the process
// exits.
func (s *server) shutdown(ctx context.Context, logf func(string, ...any)) {
	st, err := s.fleet.Drain(ctx)
	if err != nil {
		logf("drain: %v", err)
	}
	logf("final stats: %d submitted, %d completed, %d failed, %d rejected, %d shed, %d failovers",
		st.Submitted, st.Completed, st.Failed, st.Rejected, st.Shed, st.Failovers)
	if s.rec == nil {
		return
	}
	if err := s.rec.Flush(); err != nil {
		logf("capture flush: %v", err)
	} else {
		logf("captured %d accepted requests to %s", s.rec.Count(), s.captureFile.Name())
	}
	if err := s.captureFile.Close(); err != nil {
		logf("capture close: %v", err)
	}
}

// topKHDAs takes the fleet's replica substrates from the bootstrap
// search's top-K design points (cycling when the cloud is smaller
// than the fleet).
func topKHDAs(res *herald.SearchResult, objective herald.SearchObjective, n int) []*herald.HDA {
	top := res.TopK(objective, n)
	out := make([]*herald.HDA, n)
	for i := range out {
		out[i] = top[i%len(top)].HDA
	}
	return out
}

// bootstrapSearch runs the deploy-time DSE over the bootstrap
// workload in the flags' search space; the caller picks the best point
// (homogeneous serving) or the top-K (heterogeneous fleet).
func bootstrapSearch(cache *herald.CostCache, sv *config.Serving, strategy, bootstrap string) (*herald.SearchResult, herald.SearchObjective, error) {
	sp, opts, err := sv.Search(strategy)
	if err != nil {
		return nil, 0, err
	}
	w, err := config.ParseWorkload(bootstrap)
	if err != nil {
		return nil, 0, err
	}
	res, err := herald.Search(cache, sp, w, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("bootstrap DSE: %w", err)
	}
	return res, opts.Objective, nil
}
