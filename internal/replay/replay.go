// Package replay re-runs a captured or generated request trace
// (internal/capture) against a candidate fleet configuration and
// renders a deterministic digest of everything that happened:
// counters, conservation, per-tenant latency percentiles, the
// fault-handling decision log and any repartitioning decisions.
//
// Determinism is the whole point: the same trace, fault plan and
// configuration produce byte-identical digests run after run, at any
// GOMAXPROCS, so an operator can export a live incident (trace +
// decision log), re-run it offline under a changed partition, routing
// policy, fusion plan or shedding knob, and byte-compare the outcomes.
// The harness gets there by replaying in windows over a manual fleet
// (serve.Options.Manual: no engine admits on its own): a window of
// trace entries is submitted, fleet.Fleet.Admit admits everything
// queued — batch composition, fused-chain successors and failovers
// are a pure function of the submissions — and an optional control
// ladder steps at the now idle boundary; work it re-queues (preempted
// suffixes) is admitted with the next window. Submission order is the
// trace order, the fault clock advances only on arrival cycles, and
// nothing reads the wall clock. Both engine-level
// (Fleet.Serve.Plans) and fleet-level (Fleet.Plans) fusion replay.
package replay

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"

	"repro/internal/accel"
	"repro/internal/capture"
	"repro/internal/fleet"
	"repro/internal/maestro"
	"repro/internal/serve"
)

// Options configures one replay run.
type Options struct {
	// Fleet is the candidate configuration under test. Serve.Manual is
	// forced on (the windowed protocol requires it).
	Fleet fleet.Options

	// Window is the admission-window size in trace entries: after
	// every Window submissions the fleet admits the queued work before
	// the next entries are submitted. 0 replays the
	// whole trace as one window. Smaller windows interleave admission
	// with execution more finely (closer to live arrival pacing);
	// either way the composition of every scheduling round is a pure
	// function of trace order, so any fixed Window is deterministic.
	Window int

	// Controller, when set, attaches the control ladder
	// (fleet.NewController) and steps it once at every window boundary
	// — the deterministic stand-in for the live ticker. When its
	// preemption rung is armed (PreemptBelow > 0) Fleet.Serve.Elastic
	// is forced on so preemption can act. Requires Window > 0.
	Controller *fleet.ControllerOptions

	// Elastic is a synonym of Controller; setting both is an error.
	//
	// Deprecated: kept only because the benchmark harness in bench/
	// sets it; use Controller.
	Elastic *fleet.ControllerOptions
}

// Run replays the trace and returns its digest. See the package
// comment for the windowed protocol and its determinism argument.
func Run(ctx context.Context, cache *maestro.Cache, hdas []*accel.HDA, tr *capture.Trace, o Options) (*Digest, error) {
	if tr == nil || len(tr.Entries) == 0 {
		return nil, fmt.Errorf("replay: empty trace")
	}
	if o.Window < 0 {
		return nil, fmt.Errorf("replay: window must be >= 0 (got %d)", o.Window)
	}
	if o.Elastic != nil {
		if o.Controller != nil {
			return nil, fmt.Errorf("replay: Elastic is a synonym of Controller; set only one")
		}
		o.Controller = o.Elastic
	}
	if o.Controller != nil && o.Window <= 0 {
		return nil, fmt.Errorf("replay: a controller needs a window (set Options.Window)")
	}
	for i, e := range tr.Entries {
		if e.ArrivalCycle < 0 {
			return nil, fmt.Errorf("replay: entry %d: negative arrival cycle %d (traces must carry explicit arrivals)", i, e.ArrivalCycle)
		}
	}

	o.Fleet.Serve.Manual = true
	if o.Controller != nil && o.Controller.PreemptBelow > 0 {
		o.Fleet.Serve.Elastic = true
	}
	f, err := fleet.New(cache, hdas, o.Fleet)
	if err != nil {
		return nil, err
	}
	var ctrl *fleet.Controller
	if o.Controller != nil {
		ctrl, err = fleet.NewController(f, *o.Controller)
		if err != nil {
			return nil, err
		}
	}

	d := &Digest{
		Version: DigestVersion,
		Trace: TraceInfo{
			Note:       tr.Note,
			Entries:    len(tr.Entries),
			FirstCycle: tr.Entries[0].ArrivalCycle,
			LastCycle:  tr.Entries[0].ArrivalCycle,
		},
		Setup: Setup{
			Policy:        f.Policy().String(),
			Replicas:      len(hdas),
			ShedSLAFactor: o.Fleet.Health.ShedSLAFactor,
			Window:        o.Window,
			Repartition:   ctrl != nil,
		},
	}
	for _, e := range tr.Entries {
		if e.ArrivalCycle < d.Trace.FirstCycle {
			d.Trace.FirstCycle = e.ArrivalCycle
		}
		if e.ArrivalCycle > d.Trace.LastCycle {
			d.Trace.LastCycle = e.ArrivalCycle
		}
	}
	for _, h := range hdas {
		d.Setup.HDAs = append(d.Setup.HDAs, h.Name)
	}
	fused := slices.Sorted(maps.Keys(o.Fleet.Serve.Plans))
	if len(o.Fleet.Plans) > 0 {
		fused = slices.Sorted(maps.Keys(o.Fleet.Plans))
	}
	d.Setup.FusedModels = fused
	if o.Fleet.Faults != nil {
		d.Setup.FaultEvents = len(o.Fleet.Faults.Events)
	}

	// The windowed loop: submit a window, admit it, step the
	// controller at the idle boundary. Scheduling failures resolve
	// with a failed record and stay in the counters.
	rejects := make(map[string]int64)
	for i, e := range tr.Entries {
		_, err := f.Submit(e.Request())
		switch {
		case err == nil:
		case errors.As(err, new(*fleet.ShedError)):
			// Shed arrivals are already counted (Counters.Shed and the
			// per-tenant rows); no separate reject bucket.
		case errors.Is(err, serve.ErrQueueFull):
			rejects["queue-full"]++
		case errors.Is(err, serve.ErrDraining):
			rejects["draining"]++
		case errors.Is(err, fleet.ErrNoReplicas):
			rejects["no-replicas"]++
		default:
			rejects["client"]++
		}
		if o.Window > 0 && (i+1)%o.Window == 0 {
			f.Admit()
			if ctrl != nil {
				dec, err := ctrl.Step(ctx)
				if err != nil {
					return nil, fmt.Errorf("replay: controller step: %w", err)
				}
				d.Control = append(d.Control, dec)
			}
		}
	}
	// Drain admits the final partial window without a controller step
	// (the step cadence is one per full window, so a trace of length
	// k·W steps exactly k times).
	st, err := f.Drain(ctx)
	if err != nil {
		return nil, fmt.Errorf("replay: drain: %w", err)
	}

	d.Counters = Counters{
		Submitted:            st.Submitted,
		Completed:            st.Completed,
		Failed:               st.Failed,
		Rejected:             st.Rejected,
		Pending:              st.Pending,
		Shed:                 st.Shed,
		Failovers:            st.Failovers,
		Lost:                 st.Lost,
		Crashes:              st.Crashes,
		Recoveries:           st.Recoveries,
		BreakerTrips:         st.BreakerTrips,
		Migrations:           st.Migrations,
		Preemptions:          st.Preemptions,
		Resumes:              st.Resumes,
		PEReassigns:          st.PEReassigns,
		Generation:           st.Generation,
		MakespanCycles:       st.MakespanCycles,
		CrossReplicaHandoffs: st.CrossReplicaHandoffs,
		Segments:             st.Segments,
	}
	d.Conservation = Conservation{
		Submitted: st.Submitted,
		Completed: st.Completed,
		Failed:    st.Failed,
		Pending:   st.Pending,
		Holds:     st.Submitted == st.Completed+st.Failed && st.Pending == 0,
	}
	if len(rejects) > 0 {
		d.Rejects = rejects
	}
	d.Tenants = st.Tenants
	d.FaultDecisions = f.Decisions()
	return d, nil
}
