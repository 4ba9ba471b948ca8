package fleet

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/accel"
	"repro/internal/serve"
)

// This file is the fleet's fault-tolerance layer: deterministic fault
// injection (FaultPlan), per-replica health tracking (circuit breaker
// with half-open probing, stall detection over the work-horizon
// ledger), crash failover with the conservation invariant (no request
// lost or double-served), and SLA-driven overload shedding. Everything
// here is clocked by submission arrival cycles under the dispatch
// lock — wall time never enters — so a fixed request trace plus a
// fixed FaultPlan replays to identical failover decisions.

// Sentinel errors of the fault-tolerance layer.
var (
	// ErrNoReplicas rejects a dispatch when no active replica can take
	// it (all crashed or breaker-open). HTTP maps it to 503.
	ErrNoReplicas = errors.New("fleet: no replicas available")
	// ErrShed is the sentinel every ShedError unwraps to. HTTP maps it
	// to 429 with a Retry-After header.
	ErrShed = errors.New("fleet: request shed")
	// ErrReplicaFault marks an injected admission failure (FaultAdmitFail)
	// — visible only in breaker decision logs, never returned to
	// submitters (the dispatcher retries another replica).
	ErrReplicaFault = errors.New("fleet: injected replica admission fault")
)

// ShedError rejects an arrival the admission controller shed: the best
// achievable completion estimate already blew the request's SLA budget
// and the tenant was at or above its fair share of outstanding work.
type ShedError struct {
	// Tenant is the shed request's tenant.
	Tenant string
	// ETACycles is the best completion-cycle estimate across replicas.
	ETACycles int64
	// BudgetCycles is the admission bound it exceeded
	// (ShedSLAFactor × the request's SLACycles).
	BudgetCycles int64
	// RetryAfterSeconds is the suggested client backoff: the excess
	// lateness converted to wall seconds at the serving clock.
	RetryAfterSeconds int
}

// Error renders the shed rejection.
func (e *ShedError) Error() string {
	return fmt.Sprintf("fleet: request shed: tenant %q best ETA %d cycles exceeds the %d-cycle admission budget (retry after %ds)",
		e.Tenant, e.ETACycles, e.BudgetCycles, e.RetryAfterSeconds)
}

// Unwrap makes errors.Is(err, ErrShed) hold for every ShedError.
func (e *ShedError) Unwrap() error { return ErrShed }

// FaultKind enumerates the injectable replica fault events.
type FaultKind int

const (
	// FaultCrash abruptly kills a replica: its engine stops, queued
	// requests are extracted and failed over to survivors.
	FaultCrash FaultKind = iota
	// FaultStall slows a replica by a cycle factor: the dispatcher's
	// cost estimate for it scales by Factor, so cost-aware routing
	// drains traffic away from it (a gray failure — the committed
	// schedule itself is untouched, keeping replays bit-identical).
	FaultStall
	// FaultAdmitFail makes the replica's next Count admission attempts
	// fail transiently — the burst that exercises the circuit breaker.
	FaultAdmitFail
	// FaultRecover heals a replica: a crashed one is rebuilt as a
	// fresh engine on the same HDA (same id), a stalled or
	// breaker-open one has its health state reset.
	FaultRecover
)

// String names the kind as ParseFaultPlan spells it.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultStall:
		return "stall"
	case FaultAdmitFail:
		return "admit-fail"
	case FaultRecover:
		return "recover"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent is one cycle-scheduled fault against one replica.
type FaultEvent struct {
	// Cycle is when the event fires on the fault clock — the maximum
	// submission arrival cycle the dispatcher has seen. An event is
	// applied (in plan order) the moment a submission at or past its
	// cycle arrives, before that submission is routed.
	Cycle int64 `json:"cycle"`
	// Replica is the target replica id (stable across migrations).
	Replica int `json:"replica"`
	// Kind selects the fault.
	Kind FaultKind `json:"kind"`
	// Factor is the stall slowdown multiplier (FaultStall, finite,
	// > 1 and < 2^63).
	Factor float64 `json:"factor,omitempty"` //herald:jsonzero only stall events carry a factor; 0 is never a valid factor
	// Count is the injected admission-failure burst length
	// (FaultAdmitFail, >= 1).
	Count int `json:"count,omitempty"` //herald:jsonzero only admit-fail events carry a count; 0 is never a valid count
}

// FaultPlan is a deterministic schedule of fault events, replayable
// alongside a fixed arrival trace: the fault clock advances only with
// submission arrival cycles, so the same trace plus the same plan
// yields the same crashes at the same points in the dispatch sequence.
type FaultPlan struct {
	// Events fire in ascending cycle order (ties keep plan order).
	Events []FaultEvent
}

// NewFaultPlan validates the events and returns a plan with them
// stably sorted by cycle.
func NewFaultPlan(events []FaultEvent) (*FaultPlan, error) {
	sorted := append([]FaultEvent(nil), events...)
	for i, ev := range sorted {
		if ev.Cycle < 0 {
			return nil, fmt.Errorf("fleet: fault event %d: cycle must be >= 0 (got %d)", i, ev.Cycle)
		}
		if ev.Replica < 0 {
			return nil, fmt.Errorf("fleet: fault event %d: replica must be >= 0 (got %d)", i, ev.Replica)
		}
		switch ev.Kind {
		case FaultCrash, FaultRecover:
		case FaultStall:
			// Negated so NaN fails too; a factor of 2^63 or more would
			// overflow every cycle estimate it scales.
			if !(ev.Factor > 1 && ev.Factor < math.MaxInt64) {
				return nil, fmt.Errorf("fleet: fault event %d: stall factor must be > 1 and < 2^63 (got %g)", i, ev.Factor)
			}
		case FaultAdmitFail:
			if ev.Count < 1 {
				return nil, fmt.Errorf("fleet: fault event %d: admit-fail count must be >= 1 (got %d)", i, ev.Count)
			}
		default:
			return nil, fmt.Errorf("fleet: fault event %d: unknown kind %d", i, int(ev.Kind))
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cycle < sorted[j].Cycle })
	return &FaultPlan{Events: sorted}, nil
}

// ParseFaultPlan parses the heraldd -faults flag syntax: a
// comma-separated list of "cycle:replica:kind[:arg]" events, where
// kind is crash, stall (arg = slowdown factor > 1 and < 2^63), admit-fail
// (arg = burst length >= 1) or recover. Example:
//
//	"1000:0:stall:4,2000:1:admit-fail:3,3000:0:crash,5000:0:recover"
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	var events []FaultEvent
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		fields := strings.Split(item, ":")
		if len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("fleet: fault %q: want cycle:replica:kind[:arg]", item)
		}
		cycle, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fleet: fault %q: bad cycle: %v", item, err)
		}
		rep, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("fleet: fault %q: bad replica: %v", item, err)
		}
		ev := FaultEvent{Cycle: cycle, Replica: rep}
		switch fields[2] {
		case "crash":
			ev.Kind = FaultCrash
		case "stall":
			ev.Kind = FaultStall
			if len(fields) != 4 {
				return nil, fmt.Errorf("fleet: fault %q: stall needs a factor arg", item)
			}
			if ev.Factor, err = strconv.ParseFloat(fields[3], 64); err != nil {
				return nil, fmt.Errorf("fleet: fault %q: bad stall factor: %v", item, err)
			}
		case "admit-fail":
			ev.Kind = FaultAdmitFail
			if len(fields) != 4 {
				return nil, fmt.Errorf("fleet: fault %q: admit-fail needs a count arg", item)
			}
			if ev.Count, err = strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("fleet: fault %q: bad admit-fail count: %v", item, err)
			}
		case "recover":
			ev.Kind = FaultRecover
		default:
			return nil, fmt.Errorf("fleet: fault %q: unknown kind %q (want crash, stall, admit-fail, recover)", item, fields[2])
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("fleet: empty fault plan %q", spec)
	}
	return NewFaultPlan(events)
}

// ExportFaultPlan reconstructs a runnable FaultPlan from a
// fault-handling decision log: injected-fault applications (crash,
// stall, admit-fail, recover) become schedule events again, so a live
// incident's Decisions() — or the payload of GET /v1/fleet/decisions —
// can be re-run offline against a candidate configuration
// (heraldplay -faults). Derived decisions (failovers, breaker
// transitions, sheds) are consequences of the schedule, not part of
// it, and are skipped. Returns (nil, nil) when the log holds no
// injectable events.
func ExportFaultPlan(decs []FaultDecision) (*FaultPlan, error) {
	var events []FaultEvent
	for _, d := range decs {
		ev := FaultEvent{Cycle: d.Cycle, Replica: d.Replica}
		switch d.Kind {
		case "crash":
			ev.Kind = FaultCrash
		case "stall":
			ev.Kind = FaultStall
			ev.Factor = d.Factor
		case "admit-fail":
			ev.Kind = FaultAdmitFail
			ev.Count = d.Count
		case "recover":
			ev.Kind = FaultRecover
		default:
			continue
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		return nil, nil
	}
	return NewFaultPlan(events)
}

// FormatFaultPlan renders a plan in ParseFaultPlan's flag syntax
// ("cycle:replica:kind[:arg],..."), so an exported incident can be
// handed straight to a -faults flag. FormatFaultPlan and
// ParseFaultPlan round-trip.
func FormatFaultPlan(p *FaultPlan) string {
	if p == nil || len(p.Events) == 0 {
		return ""
	}
	items := make([]string, len(p.Events))
	for i, ev := range p.Events {
		switch ev.Kind {
		case FaultStall:
			items[i] = fmt.Sprintf("%d:%d:stall:%g", ev.Cycle, ev.Replica, ev.Factor)
		case FaultAdmitFail:
			items[i] = fmt.Sprintf("%d:%d:admit-fail:%d", ev.Cycle, ev.Replica, ev.Count)
		default:
			items[i] = fmt.Sprintf("%d:%d:%s", ev.Cycle, ev.Replica, ev.Kind)
		}
	}
	return strings.Join(items, ",")
}

// HealthOptions tunes failure detection, failover budgets and overload
// shedding. The zero value is safe: detection thresholds default to
// sane values and the opt-in features (stall detection, shedding) stay
// off, so a fleet without faults routes exactly as before.
type HealthOptions struct {
	// FailureThreshold is the consecutive replica-attributable
	// admission failures (queue-full, draining, injected faults —
	// never client errors) that open a replica's circuit breaker
	// (default 3).
	FailureThreshold int
	// ProbeAfter is how many fleet dispatches after opening before an
	// open breaker goes half-open and admits one probe request
	// (default 8).
	ProbeAfter int
	// StallFactor flags a replica degraded when its dispatch horizon
	// exceeds StallFactor × the smallest positive horizon in the
	// active set — stall detection over the work ledger the cost-aware
	// policy already keeps. 0 disables detection (default).
	StallFactor float64
	// MaxAttempts is the per-request admission budget, counting the
	// initial dispatch and every crash failover: a request that has
	// been admitted MaxAttempts times and is orphaned again fails fast
	// instead of cycling through a dying fleet (default 3).
	MaxAttempts int
	// ShedSLAFactor turns on admission control (cost-aware fleets,
	// SLA-carrying requests): an arrival whose best ETA lateness
	// exceeds ShedSLAFactor × its SLACycles is shed with a 429 +
	// Retry-After — unless its tenant is below the fair share of
	// outstanding work, so one flooding tenant cannot get the others
	// shed. 0 disables shedding (default).
	ShedSLAFactor float64
}

// withDefaults fills the detection defaults, leaving opt-in features
// (StallFactor, ShedSLAFactor) at their explicit values.
func (h HealthOptions) withDefaults() HealthOptions {
	if h.FailureThreshold <= 0 {
		h.FailureThreshold = 3
	}
	if h.ProbeAfter <= 0 {
		h.ProbeAfter = 8
	}
	if h.MaxAttempts <= 0 {
		h.MaxAttempts = 3
	}
	return h
}

// healthState is a replica's dispatcher-side health.
type healthState int

const (
	healthHealthy healthState = iota
	// healthOpen: the circuit breaker tripped; no dispatches until the
	// half-open probe window.
	healthOpen
	// healthHalfOpen: the breaker admits one probe request; success
	// closes it, failure re-opens it.
	healthHalfOpen
	// healthCrashed: the replica's engine crashed (FaultCrash); it
	// takes no dispatches until a FaultRecover rebuilds it.
	healthCrashed
)

// String names the state as the stats surface spells it.
func (h healthState) String() string {
	switch h {
	case healthHealthy:
		return "healthy"
	case healthOpen:
		return "breaker-open"
	case healthHalfOpen:
		return "breaker-half-open"
	case healthCrashed:
		return "crashed"
	}
	return fmt.Sprintf("healthState(%d)", int(h))
}

// FaultDecision is one entry of the fleet's fault-handling decision
// log: fault applications, breaker transitions, failovers and sheds,
// in the order the dispatcher took them. For a fixed submission trace
// and FaultPlan the log replays identically.
type FaultDecision struct {
	// Seq orders decisions (1-based, monotonic).
	Seq int `json:"seq"`
	// Cycle is the fault-clock cycle the decision was taken at.
	Cycle int64 `json:"cycle"`
	// Kind is the decision type: crash, stall, admit-fail, recover,
	// failover, failover-fail, shed, breaker-open, breaker-reopen,
	// breaker-probe, breaker-close.
	Kind string `json:"kind"`
	// Replica is the replica acted on (-1 when not replica-specific).
	Replica int `json:"replica"`
	// Detail is the human-readable rationale.
	Detail string `json:"detail,omitempty"`
	// Factor carries a stall decision's injected slowdown factor, so
	// ExportFaultPlan can turn the log back into a runnable plan.
	Factor float64 `json:"factor,omitempty"` //herald:jsonzero only stall decisions carry a factor; 0 is never a valid factor
	// Count carries an admit-fail decision's burst length (see Factor).
	Count int `json:"count,omitempty"` //herald:jsonzero only admit-fail decisions carry a count; 0 is never a valid count
}

// maxDecisions bounds the retained decision log; older halves are
// dropped once exceeded.
const maxDecisions = 4096

// noteDecisionLocked appends one decision log entry and returns a
// pointer to it so callers can attach structured parameters (Factor,
// Count); the pointer must not outlive f.mu. f.mu held.
func (f *Fleet) noteDecisionLocked(cycle int64, kind string, replica int, detail string) *FaultDecision {
	f.decSeq++
	if len(f.decisions) >= maxDecisions {
		keep := f.decisions[len(f.decisions)-maxDecisions/2:]
		f.decisions = append(f.decisions[:0], keep...)
	}
	f.decisions = append(f.decisions, FaultDecision{
		Seq: f.decSeq, Cycle: cycle, Kind: kind, Replica: replica, Detail: detail,
	})
	return &f.decisions[len(f.decisions)-1]
}

// Decisions returns a copy of the fault-handling decision log.
func (f *Fleet) Decisions() []FaultDecision {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]FaultDecision(nil), f.decisions...)
}

// advanceFaultsLocked advances the fault clock to cycle and applies
// every scheduled event that has come due, in plan order. The clock is
// monotonic and driven only by submission arrival cycles under the
// dispatch lock — wall time never enters — so a fixed trace replays
// the same faults at the same points in the dispatch sequence. f.mu
// held.
func (f *Fleet) advanceFaultsLocked(cycle int64) {
	if cycle > f.faultCycle {
		f.faultCycle = cycle
	}
	for f.faultNext < len(f.faults) && f.faults[f.faultNext].Cycle <= f.faultCycle {
		ev := f.faults[f.faultNext]
		f.faultNext++
		f.applyFaultLocked(ev)
	}
}

// activeByID resolves an active replica by id. f.mu held.
func (f *Fleet) activeByID(id int) *replica {
	for _, r := range f.replicas {
		if r.id == id {
			return r
		}
	}
	return nil
}

// applyFaultLocked applies one due fault event. f.mu held.
func (f *Fleet) applyFaultLocked(ev FaultEvent) {
	switch ev.Kind {
	case FaultCrash:
		f.applyCrashLocked(ev)
	case FaultStall:
		r := f.activeByID(ev.Replica)
		if r == nil {
			f.noteDecisionLocked(ev.Cycle, "stall", ev.Replica, "replica not active; ignored").Factor = ev.Factor
			return
		}
		r.stall = ev.Factor
		f.noteDecisionLocked(ev.Cycle, "stall", r.id, fmt.Sprintf("cost estimates scaled by %g", ev.Factor)).Factor = ev.Factor
	case FaultAdmitFail:
		r := f.activeByID(ev.Replica)
		if r == nil {
			f.noteDecisionLocked(ev.Cycle, "admit-fail", ev.Replica, "replica not active; ignored").Count = ev.Count
			return
		}
		r.admitFails += ev.Count
		f.noteDecisionLocked(ev.Cycle, "admit-fail", r.id, fmt.Sprintf("next %d admissions will fail", ev.Count)).Count = ev.Count
	case FaultRecover:
		f.applyRecoverLocked(ev)
	}
}

// applyCrashLocked kills an active replica: it is removed from the
// dispatch set, its engine crashes (extracting every queued request as
// StatusLost and firing their resolution hooks synchronously), and the
// orphaned requests fail over to survivors. f.mu held.
func (f *Fleet) applyCrashLocked(ev FaultEvent) {
	idx := -1
	for i, r := range f.replicas {
		if r.id == ev.Replica {
			idx = i
			break
		}
	}
	if idx < 0 {
		f.noteDecisionLocked(ev.Cycle, "crash", ev.Replica, "replica not active; ignored")
		return
	}
	r := f.replicas[idx]
	f.replicas = append(f.replicas[:idx], f.replicas[idx+1:]...)
	f.failedReplicas = append(f.failedReplicas, r)
	r.health = healthCrashed
	f.crashes++
	// Crash fires every lost request's resolve hook before returning,
	// so lostQ is complete for this event when failover runs. Safe
	// under f.mu: resolution takes only outMu, and the engine never
	// takes f.mu.
	lost := r.engine.Crash()
	f.noteDecisionLocked(ev.Cycle, "crash", r.id, fmt.Sprintf("%d queued requests extracted", lost))
	f.failoverLocked(ev.Cycle)
}

// failoverLocked re-admits every request the last crash orphaned
// (their resolve callbacks queued them on lostQ) onto survivors, in
// the crashed engine's deterministic extraction order. A lost chain
// admission resumes at the chain's first unfinished segment — on
// identical and mixed replica sets alike — once every record of the
// admission is in: a live engine finishes the batch it was admitting
// when the crash hit, so earlier segments of the chain may still be
// completing, and the last of their records parks the chain for Admit
// to resume instead. f.mu held.
func (f *Fleet) failoverLocked(cycle int64) {
	f.outMu.Lock()
	q := f.lostQ
	f.lostQ = nil
	waiting := make([]bool, len(q))
	for i, d := range q {
		waiting[i] = d.out > 0
	}
	f.outMu.Unlock()
	for i, d := range q {
		d.lostCycle = cycle
		if !waiting[i] {
			f.settleLocked(d)
		}
	}
}

// failoverOneLocked re-admits one lost admission on a survivor: a
// whole request, or a chain from its first unfinished segment. One
// over its attempt budget, or with no survivor left to take it, fails
// fast with a terminal fleet-side record. f.mu held.
func (f *Fleet) failoverOneLocked(d *dispatch, cycle int64) {
	// A re-admission cannot arrive before the crash that caused it.
	if d.req.ArrivalCycle >= 0 && d.req.ArrivalCycle < cycle {
		d.req.ArrivalCycle = cycle
	}
	if d.attempts >= f.health.MaxAttempts {
		f.failTicketLocked(d, cycle, fmt.Sprintf("attempt budget exhausted (%d admissions)", d.attempts))
		return
	}
	if err := f.dispatchLocked(d); err != nil {
		f.failTicketLocked(d, cycle, err.Error())
		return
	}
	d.attempts++
	f.failovers++
	what := fmt.Sprintf("request %d", d.t.ID)
	if d.segs != nil {
		what = fmt.Sprintf("fused request %d segment %d", d.t.ID, len(d.rec.Segments))
	}
	f.noteDecisionLocked(cycle, "failover", d.rep.id,
		fmt.Sprintf("%s (tenant %q) re-admitted, attempt %d", what, d.req.Tenant, d.attempts))
}

// failTicketLocked terminates a failed-over request that no replica
// could take: its ticket resolves with a fleet-synthesized failed
// record (for a chain, the merged record with its first unfinished
// segment failed, which the fleet's fused ledger counts). A whole
// request's lost admission is no longer in any engine's accounting
// (the crash rolled it back), so fleet aggregates count it via
// lostFailed — added to both Submitted and Failed, keeping
// conservation exact. f.mu held.
func (f *Fleet) failTicketLocked(d *dispatch, cycle int64, reason string) {
	f.noteDecisionLocked(cycle, "failover-fail", -1,
		fmt.Sprintf("request %d (tenant %q): %s", d.t.ID, d.req.Tenant, reason))
	if d.segs != nil {
		k := len(d.rec.Segments)
		d.rec.Segments = append(d.rec.Segments, serve.SegmentRecord{
			Index: k, Model: d.segs[k].Name, Replica: d.rep.id, Err: "failover: " + reason,
		})
		d.rec.Status = serve.StatusFailed
		d.rec.Err = fmt.Sprintf("segment %d on replica %d: failover: %s", k, d.rep.id, reason)
		f.finishChainLocked(d)
		return
	}
	f.lostFailed++
	f.lostFailedT[d.req.Tenant]++
	rec := serve.Record{
		ID:           d.t.ID,
		Tenant:       d.req.Tenant,
		Model:        d.req.Model,
		Priority:     d.req.Priority,
		Status:       serve.StatusFailed,
		ArrivalCycle: d.req.ArrivalCycle,
		SLACycles:    d.req.SLACycles,
		Err:          "failover: " + reason,
	}
	f.resolveTicket(d, &rec, -1)
}

// applyRecoverLocked heals a replica: a crashed one is rebuilt as a
// fresh engine on the same HDA under the same id (the old engine's
// final statistics fold into the fleet history first, so its served
// requests never drop out of the aggregates); a stalled, fault-laden
// or breaker-open replica just has its health state reset. f.mu held.
func (f *Fleet) applyRecoverLocked(ev FaultEvent) {
	for i, r := range f.failedReplicas {
		if r.id != ev.Replica {
			continue
		}
		rs, err := f.buildReplicas([]*accel.HDA{r.hda})
		if err != nil {
			f.noteDecisionLocked(ev.Cycle, "recover", ev.Replica, "engine rebuild failed: "+err.Error())
			return
		}
		f.failedReplicas = append(f.failedReplicas[:i], f.failedReplicas[i+1:]...)
		f.foldLocked(r)
		nr := rs[0]
		nr.id = r.id
		nr.gen = f.generation
		f.replicas = append(f.replicas, nr)
		f.recoveries++
		f.noteDecisionLocked(ev.Cycle, "recover", r.id, "crashed replica rebuilt on "+r.hda.Name)
		return
	}
	r := f.activeByID(ev.Replica)
	if r == nil {
		f.noteDecisionLocked(ev.Cycle, "recover", ev.Replica, "replica not found; ignored")
		return
	}
	r.stall = 1
	r.admitFails = 0
	r.consecFails = 0
	r.health = healthHealthy
	f.recoveries++
	f.noteDecisionLocked(ev.Cycle, "recover", r.id, "health state reset")
}

// noteFailureLocked records one replica-attributable admission failure
// on the breaker: consecutive failures past the threshold open it; a
// failed half-open probe re-opens it. Client-attributable rejections
// (unknown model, infeasible layers) never reach here. f.mu held.
func (f *Fleet) noteFailureLocked(r *replica, cycle int64, reason string) {
	r.consecFails++
	switch r.health {
	case healthHalfOpen:
		r.health = healthOpen
		r.openedSeq = f.dispatchSeq
		f.noteDecisionLocked(cycle, "breaker-reopen", r.id, "probe failed: "+reason)
	case healthOpen, healthCrashed:
	default:
		if r.consecFails >= f.health.FailureThreshold {
			r.health = healthOpen
			r.openedSeq = f.dispatchSeq
			f.breakerTrips++
			f.noteDecisionLocked(cycle, "breaker-open", r.id,
				fmt.Sprintf("%d consecutive failures, last: %s", r.consecFails, reason))
		}
	}
}

// noteSuccessLocked records a successful admission: the failure streak
// resets and a half-open breaker closes. f.mu held.
func (f *Fleet) noteSuccessLocked(r *replica, cycle int64) {
	if r.health == healthHalfOpen {
		f.noteDecisionLocked(cycle, "breaker-close", r.id, "probe succeeded")
	}
	r.consecFails = 0
	if r.health == healthOpen || r.health == healthHalfOpen {
		r.health = healthHealthy
	}
}

// eligibleLocked filters the active set for dispatch: breaker-open
// replicas are skipped until their probe window elapses (they then go
// half-open), and the first half-open replica is returned as the
// designated probe target. Order follows f.replicas, so a fully
// healthy fleet picks exactly as it did before this layer existed.
// f.mu held.
func (f *Fleet) eligibleLocked(tried map[int]bool) (elig []*replica, probe *replica) {
	for _, r := range f.replicas {
		if tried != nil && tried[r.id] {
			continue
		}
		if r.health == healthOpen {
			if f.dispatchSeq-r.openedSeq < int64(f.health.ProbeAfter) {
				continue
			}
			r.health = healthHalfOpen
			f.noteDecisionLocked(f.faultCycle, "breaker-probe", r.id,
				fmt.Sprintf("half-open after %d dispatches", f.dispatchSeq-r.openedSeq))
		}
		if r.health == healthHalfOpen && probe == nil {
			probe = r
		}
		elig = append(elig, r)
	}
	return elig, probe
}

// stallCycles scales a cost estimate by a replica's injected stall
// factor, saturating at math.MaxInt64 (a stalled replica must never
// wrap around to the cheapest ETA). A nominal replica (factor 1)
// passes the estimate through bit-exactly, preserving pre-fault
// routing decisions.
func stallCycles(est int64, stall float64) int64 {
	if stall <= 1 {
		return est
	}
	if v := float64(est) * stall; v < math.MaxInt64 {
		return int64(v)
	}
	return math.MaxInt64
}

// shedEnabled reports whether the admission controller applies to this
// request: shedding is opt-in (ShedSLAFactor), needs the cost-aware
// ETA machinery, and only governs SLA-carrying requests.
func (f *Fleet) shedEnabled(req serve.Request) bool {
	return f.policy == CostAware && f.health.ShedSLAFactor > 0 && req.SLACycles > 0
}

// shedLocked decides whether to shed one arrival given the best ETA
// any replica offers it: if the lateness (ETA minus arrival) exceeds
// ShedSLAFactor × SLACycles, the SLA is already unmeetable at
// admission time — serving the request would only push every later one
// further out. Fairness: a tenant strictly below the average
// outstanding load is spared (its traffic is not what built the
// backlog), so shedding lands on the tenants flooding the fleet. f.mu
// held.
func (f *Fleet) shedLocked(req serve.Request, eta int64) error {
	if !f.shedEnabled(req) {
		return nil
	}
	arrival := max(req.ArrivalCycle, 0)
	lateness := eta - arrival
	budget := int64(float64(req.SLACycles) * f.health.ShedSLAFactor)
	if lateness <= budget {
		return nil
	}
	f.outMu.Lock()
	out := f.tenantOut[req.Tenant]
	var total int64
	//herald:nondet exact integer sum; order cannot change the result
	for _, v := range f.tenantOut {
		total += v
	}
	n := int64(len(f.tenantOut))
	f.outMu.Unlock()
	if n > 0 && out*n < total {
		return nil // below fair share: spare this tenant
	}
	clock := f.serveOpts.ClockGHz
	if clock <= 0 {
		clock = 1
	}
	retry := int(math.Ceil(float64(lateness-budget) / (clock * 1e9)))
	if retry < 1 {
		retry = 1
	}
	f.shed++
	f.shedT[req.Tenant]++
	f.noteDecisionLocked(arrival, "shed", -1,
		fmt.Sprintf("tenant %q: lateness %d exceeds budget %d (%.3g x SLA %d), outstanding %d of %d",
			req.Tenant, lateness, budget, f.health.ShedSLAFactor, req.SLACycles, out, total))
	return &ShedError{Tenant: req.Tenant, ETACycles: eta, BudgetCycles: budget, RetryAfterSeconds: retry}
}

// retryableAdmit reports whether an engine admission error is
// replica-attributable (worth trying another replica and noting on the
// breaker) as opposed to a client error that would fail everywhere.
func retryableAdmit(err error) bool {
	return errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrDraining)
}

// ReplicaHealth is one replica's health slice of the fleet's fault
// surface.
type ReplicaHealth struct {
	// Replica is the stable replica id; HDA names its partition.
	Replica int    `json:"replica"`
	HDA     string `json:"hda"`
	// Health is the dispatcher-side state: healthy, degraded,
	// breaker-open, breaker-half-open or crashed.
	Health string `json:"health"`
	// StallFactor is the injected slowdown multiplier (omitted at 1).
	StallFactor float64 `json:"stall_factor,omitempty"` //herald:jsonzero a valid stall factor is > 1; unset means not stalled
	// ConsecutiveFailures is the current breaker failure streak.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// PendingAdmitFaults is the remaining injected admission-failure
	// burst.
	PendingAdmitFaults int `json:"pending_admit_faults"`
	// HorizonCycles is the dispatcher's completion-time ledger for the
	// replica — what stall detection reads.
	HorizonCycles int64 `json:"horizon_cycles"`
}

// HealthReport is the GET /v1/fleet/health payload: per-replica health
// (active and crashed), the fault-handling counters, and the decision
// log.
type HealthReport struct {
	// Replicas covers the active dispatch set; Failed the crashed
	// replicas awaiting recovery.
	Replicas []ReplicaHealth `json:"replicas"`
	Failed   []ReplicaHealth `json:"failed,omitempty"`
	// Counters, mirroring Stats.
	Shed         int64 `json:"shed"`
	Failovers    int64 `json:"failovers"`
	Crashes      int64 `json:"crashes"`
	Recoveries   int64 `json:"recoveries"`
	BreakerTrips int64 `json:"breaker_trips"`
	// Decisions is the fault-handling decision log (bounded).
	Decisions []FaultDecision `json:"decisions"`
}

// healthString renders a replica's health, folding in stall detection:
// an otherwise-healthy replica whose horizon exceeds StallFactor × the
// smallest positive active horizon reports "degraded". f.mu held.
func (f *Fleet) healthStringLocked(r *replica, minHorizon int64) string {
	if r.health == healthHealthy && f.health.StallFactor > 0 && minHorizon > 0 &&
		float64(r.horizon) > f.health.StallFactor*float64(minHorizon) {
		return "degraded"
	}
	return r.health.String()
}

// minHorizonLocked returns the smallest positive dispatch horizon in
// the active set (0 when none) — stall detection's baseline. f.mu
// held.
func (f *Fleet) minHorizonLocked() int64 {
	var m int64
	for _, r := range f.replicas {
		if r.horizon > 0 && (m == 0 || r.horizon < m) {
			m = r.horizon
		}
	}
	return m
}

// Health snapshots the fleet's fault surface: per-replica health,
// fault counters and the decision log.
func (f *Fleet) Health() HealthReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	rep := HealthReport{
		Shed:         f.shed,
		Failovers:    f.failovers,
		Crashes:      f.crashes,
		Recoveries:   f.recoveries,
		BreakerTrips: f.breakerTrips,
		Decisions:    append([]FaultDecision(nil), f.decisions...),
	}
	minH := f.minHorizonLocked()
	for _, r := range f.replicas {
		rh := ReplicaHealth{
			Replica:             r.id,
			HDA:                 r.hda.Name,
			Health:              f.healthStringLocked(r, minH),
			ConsecutiveFailures: r.consecFails,
			PendingAdmitFaults:  r.admitFails,
			HorizonCycles:       r.horizon,
		}
		if r.stall > 1 {
			rh.StallFactor = r.stall
		}
		rep.Replicas = append(rep.Replicas, rh)
	}
	for _, r := range f.failedReplicas {
		rep.Failed = append(rep.Failed, ReplicaHealth{
			Replica: r.id, HDA: r.hda.Name, Health: r.health.String(), HorizonCycles: r.horizon,
		})
	}
	return rep
}
