// Package fleet is Herald's multi-HDA serving tier: N replica serving
// engines — homogeneous replicas of one DSE-picked HDA, or
// heterogeneous replicas taken from the top-K DSE design points
// (dse.Result.TopK) — behind a dispatcher with pluggable routing
// policies. One serve.Engine over one fixed HDA schedules at most one
// accelerator's worth of work; a fleet scales serving throughput
// near-linearly by running independent engines over a shared
// maestro.Cache, so cost-model results computed by any replica are
// reused by every other.
//
// Routing policies:
//
//   - RoundRobin cycles through replicas in dispatch order.
//   - LeastOutstanding probes every engine's live load (serve.Load)
//     and dispatches to the replica with the smallest committed
//     backlog.
//   - CostAware estimates each replica's completion time (ETA) for
//     the candidate model — the dispatcher-side horizon of work
//     already routed there, plus the model's best-case busy cycles on
//     that replica's sub-accelerators from the shared cost cache —
//     and picks the minimum. On heterogeneous fleets this routes each
//     model toward the replica whose dataflow mix runs it fastest;
//     on homogeneous fleets it is work-aware load balancing (a skewed
//     heavy/light request mix defeats round-robin's aliasing).
//
// RoundRobin and CostAware dispatch decisions are serialized and
// depend only on the submission sequence (never on wall-clock or
// goroutine timing), so a fixed request sequence always produces the
// same replica assignment — replayable capacity planning.
// LeastOutstanding is the exception on a live fleet: it probes engine
// state, so its assignments depend on how far each engine's driver has
// progressed. A manual fleet (serve.Options.Manual) admits only inside
// Fleet.Admit, which makes every policy, fused chain and fault
// failover a pure function of the Submit/Admit call sequence.
//
// A fleet equipped with a dse.Sweeper (Options.Sweeper) additionally
// supports Resweep: re-running the hardware-partition search on the
// observed tenant mix against warm sweep state. Resweep only reports
// what partition today's traffic would pick; acting on it is the
// Controller's job.
//
// # Dynamic repartitioning
//
// The Controller closes the probe→action gap. Each Step re-sweeps the
// observed mix, evaluates the serving partition on that same mix, and
// — when the sweep winner beats it by a configurable objective
// threshold for enough consecutive probes (hysteresis), outside a
// post-migration cooldown — executes a live migration via
// Fleet.Migrate: a new generation of replica engines is built on the
// winning partition (prewarmed with the mix so the cost-cache
// locality hands over), dispatch atomically switches to them, and the
// old generation is quiesced (admissions stop, in-flight requests
// finish) and retired. No request is lost or double-served: requests
// dispatched before the switch complete on their original engine, and
// every retired engine's statistics fold into the fleet aggregates.
//
// Dispatch stays deterministic across migrations: a fixed submission
// sequence with Controller.Step calls at fixed points always produces
// the same replica assignments, the same decisions, and the same
// final partition (replayable capacity planning, probed by the
// deterministic-replay tests).
//
// # Fault tolerance
//
// The fleet assumes replicas fail. A FaultPlan (Options.Faults)
// injects cycle-scheduled crashes, stalls, admission-failure bursts
// and recoveries, clocked by submission arrival cycles so chaos runs
// replay bit-identically. The dispatcher tracks per-replica health: a
// consecutive-failure circuit breaker with half-open probing routes
// around replicas that stop admitting, and stall detection over the
// cost-aware work-horizon ledger flags gray failures. A crash
// extracts the dead replica's queued requests (serve.Engine.Crash)
// and fails them over onto survivors under a per-request attempt
// budget — the conservation invariant (no request lost or
// double-served) holds across any crash point, including a fused
// segment chain whose serving replica dies mid-chain: the chain
// resumes at its first unfinished segment on a survivor. Overload sheds
// at admission: when the best ETA already blows a request's SLA
// budget and its tenant is at or above the fair share of outstanding
// work, the request is rejected with a ShedError (HTTP 429 +
// Retry-After) instead of deepening the backlog. See fault.go; every
// decision lands in a replayable decision log (Decisions, Health).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accel"
	"repro/internal/dnn"
	"repro/internal/dse"
	"repro/internal/maestro"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Policy selects how submissions are routed across replicas.
type Policy int

const (
	// RoundRobin dispatches to replicas cyclically in submission order.
	RoundRobin Policy = iota
	// LeastOutstanding dispatches to the replica with the least
	// committed work (live engine backlog probe).
	LeastOutstanding
	// CostAware dispatches to the replica with the earliest estimated
	// completion time for the candidate model (default).
	CostAware
)

// String names the policy as the flag/stats surface spells it.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastOutstanding:
		return "least-outstanding"
	case CostAware:
		return "cost-aware"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy resolves a routing policy by name.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "round-robin", "rr":
		return RoundRobin, nil
	case "least-outstanding", "lo":
		return LeastOutstanding, nil
	case "cost-aware", "eta":
		return CostAware, nil
	}
	return 0, fmt.Errorf("fleet: unknown policy %q (want round-robin, least-outstanding, cost-aware)", name)
}

// Options configures a fleet.
type Options struct {
	// Serve configures every replica engine identically.
	Serve serve.Options
	// Policy selects the routing policy (default CostAware).
	Policy Policy

	// Sweeper optionally equips the fleet with a reusable DSE handle
	// over the partition space its HDAs came from. It is what makes
	// Resweep possible: re-running the partition search on the
	// observed tenant mix against warm schedulers and memo tables —
	// the probe a dynamic-repartitioning controller periodically
	// fires to learn whether workload drift has moved the optimum.
	Sweeper *dse.Sweeper

	// MixHalfLife sets the observed-mix decay half-life, in accepted
	// submissions: each model's mix weight halves every MixHalfLife
	// subsequent accepted submissions, so ObservedMix (and with it the
	// repartitioning controller's probes) tracks recent traffic
	// instead of all-time history. Models decayed below 1% of the
	// total weight drop out of the mix. 0 disables decay (all-time
	// counts, the legacy behavior).
	MixHalfLife int

	// Faults optionally injects a deterministic fault schedule (crash,
	// stall, admission-failure burst, recover), clocked by submission
	// arrival cycles. Nil serves fault-free.
	Faults *FaultPlan

	// Health tunes failure detection, failover budgets and overload
	// shedding; the zero value uses detection defaults with the opt-in
	// features (stall detection, shedding) off.
	Health HealthOptions

	// OnAccept, when set, is called once per accepted submission with
	// the normalized request — model name resolved, live-clock
	// arrivals pinned to an explicit cycle — and the fusion-plan id
	// ("model/segments", "" when unfused) from Serve.Plans. It fires
	// under the dispatch lock, so callback order is exactly the fleet's
	// acceptance order; trace capture (internal/capture) hooks here. Callbacks must be
	// fast and must not call back into the fleet. Rejected and shed
	// submissions do not fire it.
	OnAccept func(req serve.Request, plan string)
}

// DefaultOptions returns a cost-aware fleet over the serving-engine
// defaults.
func DefaultOptions() Options {
	return Options{Serve: serve.DefaultOptions(), Policy: CostAware}
}

// replica is one serving engine plus the dispatcher's bookkeeping.
type replica struct {
	id     int
	gen    int // the migration generation that created it
	hda    *accel.HDA
	engine *serve.Engine

	// inflight counts requests dispatched but not yet finished,
	// decremented by the engine's OnRequestDone hook (runs on whichever
	// goroutine admits, hence atomic).
	inflight atomic.Int64

	// Dispatcher state, under Fleet.mu.
	dispatched int64
	// horizon is the cost-aware ETA ledger: the estimated completion
	// cycle of all work routed to this replica so far.
	horizon int64
	// est memoizes each model's best-case busy cycles on this HDA.
	est map[*dnn.Model]int64

	// fused holds the tenant windows of fused requests counted on this
	// replica: accepted with their first admission here (Submitted),
	// resolved with their last admission here (the outcome). Engines
	// keep chain segments out of their tenant ledgers, so these are the
	// requests' only count; they merge at the replica's position, and
	// fold into the fleet history with it. Under Fleet.outMu.
	fused map[string]*serve.TenantWindow
	// folded marks a replica whose statistics went into the fleet
	// history (retired or crash-recovered), under Fleet.mu.
	folded bool

	// Fault-layer state (see fault.go), under Fleet.mu.
	health healthState
	// stall scales this replica's cost estimates — the injected
	// slowdown factor (1 = nominal).
	stall float64
	// admitFails is the remaining injected admission-failure burst.
	admitFails int
	// consecFails is the circuit breaker's failure streak.
	consecFails int
	// openedSeq is the fleet dispatch sequence at which the breaker
	// last opened (the half-open probe window counts from here).
	openedSeq int64
}

// estWork returns the best-case busy cycles of one admission's models
// on this replica's HDA. The estimate is an integer sum over layers,
// so a chain's segments add up exactly to the whole model's. Fleet.mu
// held.
func (r *replica) estWork(cache *maestro.Cache, work []*dnn.Model) int64 {
	var total int64
	for _, m := range work {
		total += r.estCycles(cache, m)
	}
	return total
}

// estCycles returns the model's best-case busy cycles on this
// replica's HDA — every layer on its cheapest sub-accelerator, via
// the shared cost cache. Steady state is one map hit per dispatch.
// Fleet.mu held.
func (r *replica) estCycles(cache *maestro.Cache, model *dnn.Model) int64 {
	if model == nil {
		return 0
	}
	if v, ok := r.est[model]; ok {
		return v
	}
	var total int64
	for li := range model.Layers {
		best := int64(math.MaxInt64)
		for _, sub := range r.hda.Subs {
			if c := cache.EstimateRef(&model.Layers[li], sub.Style, sub.HW).Cycles; c < best {
				best = c
			}
		}
		total += best
	}
	r.est[model] = total
	return total
}

// Fleet dispatches inference requests across replica serving engines.
type Fleet struct {
	cache     *maestro.Cache
	policy    Policy
	serveOpts serve.Options
	start     time.Time
	// onAccept is the capture hook (Options.OnAccept); construction-set,
	// immutable afterwards.
	onAccept func(req serve.Request, plan string)

	// mu serializes dispatch decisions (and guards the dispatcher
	// bookkeeping), which is what makes routing deterministic for a
	// fixed submission sequence.
	mu       sync.Mutex
	replicas []*replica // the active generation: the only dispatch targets; guarded by mu
	// retiring holds previous-generation replicas that are quiesced
	// but still finishing in-flight work; once drained they fold into
	// history and are dropped. Guarded by mu.
	retiring []*replica
	// history accumulates the final statistics of fully-retired
	// generations so fleet aggregates never lose a served request.
	// Guarded by mu.
	history    retiredHistory
	rrNext     int   // guarded by mu
	draining   bool  // guarded by mu
	generation int   // guarded by mu
	migrations int64 // guarded by mu
	nextID     int   // guarded by mu

	// mix tracks accepted submissions per model name (under mu) — the
	// observed tenant mix Resweep searches over. With MixHalfLife set,
	// entries decay exponentially per accepted submission (lazily, at
	// mixTick distance); with decay 1 the weights are exact counts.
	mix      map[string]*mixEntry // guarded by mu
	mixTick  int64                // guarded by mu
	mixDecay float64              // per-submission multiplier; 1 = no decay (construction-set, immutable)

	// crossHandoffs counts chain admissions routed to another replica
	// than their predecessor.
	crossHandoffs int64 // guarded by mu
	// ready parks the fused chains whose admission a completion hook
	// settled with a successor to route — the next segment, or the
	// first lost one — keyed by the replica that ran it; Admit settles
	// them in replica-id order. readyCond (on mu) wakes the relay
	// goroutine that runs Admit for a live fleet, and relayStop, set by
	// Drain, ends it. Guarded by mu.
	ready     map[int][]*dispatch
	readyCond *sync.Cond
	relayStop bool

	// resweepMu serializes Resweep calls: a dse.Sweeper is a reusable
	// handle but not safe for concurrent sweeps.
	resweepMu sync.Mutex
	sweeper   *dse.Sweeper

	// ctrlMu guards the attached repartitioning controller (set by
	// NewController, read by the HTTP status endpoint).
	ctrlMu     sync.Mutex
	controller *Controller // guarded by ctrlMu

	// Fault-tolerance state (see fault.go), under mu. The fault clock
	// (faultCycle) advances only with submission arrival cycles;
	// dispatchSeq counts routing decisions (the breaker's probe window
	// is measured in it).
	health         HealthOptions    // construction-set limits, immutable afterwards
	faults         []FaultEvent     // guarded by mu
	faultNext      int              // guarded by mu
	faultCycle     int64            // guarded by mu
	dispatchSeq    int64            // guarded by mu
	failedReplicas []*replica       // crashed, awaiting FaultRecover; guarded by mu
	decisions      []FaultDecision  // guarded by mu
	decSeq         int              // guarded by mu
	shed           int64            // guarded by mu
	shedT          map[string]int64 // guarded by mu
	failovers      int64            // guarded by mu
	crashes        int64            // guarded by mu
	recoveries     int64            // guarded by mu
	breakerTrips   int64            // guarded by mu
	// lostFailed counts crash-orphaned requests no survivor could take
	// (terminal fleet-side failures). Their engines erased them, so
	// aggregates add lostFailed to both Submitted and Failed to keep
	// conservation exact.
	// Guarded by mu.
	lostFailed  int64
	lostFailedT map[string]int64 // guarded by mu

	// outMu guards the failover queue and the per-tenant outstanding
	// counts. Lock order: mu → outMu. Lost-request hooks take only
	// outMu, so crash extraction can fire them while mu is held and
	// have lostQ complete before failover runs. outIdle broadcasts when
	// the last outstanding ticket resolves (Drain waits on it).
	outMu     sync.Mutex
	outIdle   *sync.Cond
	lostQ     []*dispatch      // guarded by outMu
	tenantOut map[string]int64 // guarded by outMu

	// segStats is the fused-request ledger, folded from each fused
	// request's final merged record at ticket resolution, so a
	// failed-over chain counts once. The requests' tenant windows live
	// per replica (replica.fused).
	segStats serve.SegmentStats // guarded by outMu
}

// retiredHistory is the folded statistics of retired and
// crash-recovered engines.
type retiredHistory struct {
	replicas                               int
	submitted, completed, failed, rejected int64
	pending                                int64 // requests lost to a cancelled drain (should stay 0)
	lost                                   int64 // crash-extracted requests (failover re-admits them)
	preemptions, resumes, reassigns        int64 // elastic counters of retired engines
	makespan                               int64
	tenants                                map[string]*serve.TenantWindow
}

// New starts one serving engine per HDA, all sharing one cost cache.
// Passing the same *accel.HDA several times builds a homogeneous
// fleet (see Replicated); distinct HDAs — e.g. the top-K points of a
// dse.Search — build a heterogeneous one.
func New(cache *maestro.Cache, hdas []*accel.HDA, opts Options) (*Fleet, error) {
	if cache == nil {
		return nil, fmt.Errorf("fleet: nil cost cache")
	}
	if len(hdas) == 0 {
		return nil, fmt.Errorf("fleet: needs at least one replica HDA")
	}
	if opts.Policy < RoundRobin || opts.Policy > CostAware {
		return nil, fmt.Errorf("fleet: unknown policy %d", int(opts.Policy))
	}
	if opts.MixHalfLife < 0 {
		return nil, fmt.Errorf("fleet: MixHalfLife must be >= 0 (got %d)", opts.MixHalfLife)
	}
	f := &Fleet{
		cache:       cache,
		policy:      opts.Policy,
		serveOpts:   opts.Serve,
		start:       time.Now(), //herald:nondet uptime diagnostics only; dispatch and the fault clock run on arrival_cycle
		mix:         make(map[string]*mixEntry),
		mixDecay:    1,
		sweeper:     opts.Sweeper,
		health:      opts.Health.withDefaults(),
		shedT:       make(map[string]int64),
		lostFailedT: make(map[string]int64),
		tenantOut:   make(map[string]int64),
		ready:       make(map[int][]*dispatch),
		onAccept:    opts.OnAccept,
	}
	f.outIdle = sync.NewCond(&f.outMu)
	f.readyCond = sync.NewCond(&f.mu)
	if opts.Faults != nil && len(opts.Faults.Events) > 0 {
		// Re-validate and re-sort: callers may hand-build the plan
		// instead of going through NewFaultPlan.
		fp, err := NewFaultPlan(opts.Faults.Events)
		if err != nil {
			return nil, err
		}
		f.faults = fp.Events
	}
	if opts.MixHalfLife > 0 {
		f.mixDecay = math.Exp2(-1 / float64(opts.MixHalfLife))
	}
	rs, err := f.buildReplicas(hdas)
	if err != nil {
		return nil, err
	}
	for i, r := range rs {
		r.id = i
	}
	f.replicas = rs
	f.nextID = len(rs)
	if !f.serveOpts.Manual && len(f.serveOpts.Plans) > 0 {
		go f.relay()
	}
	return f, nil
}

// buildReplicas constructs one engine per HDA (generation and ids are
// assigned by the caller). On any failure the already-started engines
// are drained before the error is reported, so a failed build leaks
// no goroutines.
func (f *Fleet) buildReplicas(hdas []*accel.HDA) ([]*replica, error) {
	rs := make([]*replica, 0, len(hdas))
	for i, h := range hdas {
		r := &replica{hda: h, est: make(map[*dnn.Model]int64), fused: make(map[string]*serve.TenantWindow), stall: 1}
		so := f.serveOpts
		userHook := so.OnRequestDone
		so.OnRequestDone = func(rec serve.Record) {
			r.inflight.Add(-1)
			if userHook != nil {
				userHook(rec)
			}
		}
		eng, err := serve.New(f.cache, h, so)
		if err != nil {
			for _, started := range rs {
				_, _ = started.engine.Drain(context.Background())
			}
			return nil, fmt.Errorf("fleet: replica %d: %w", i, err)
		}
		r.engine = eng
		rs = append(rs, r)
	}
	return rs, nil
}

// Replicated starts a homogeneous fleet: n replica engines of one HDA.
func Replicated(cache *maestro.Cache, hda *accel.HDA, n int, opts Options) (*Fleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("fleet: needs n >= 1 replicas (got %d)", n)
	}
	hdas := make([]*accel.HDA, n)
	for i := range hdas {
		hdas[i] = hda
	}
	return New(cache, hdas, opts)
}

// Policy returns the fleet's routing policy.
func (f *Fleet) Policy() Policy { return f.policy }

// Size returns the number of active replicas.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.replicas)
}

// Generation returns the current replica generation: 0 at startup,
// incremented by every completed Migrate.
func (f *Fleet) Generation() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.generation
}

// Engine returns active replica i's serving engine (for per-replica
// probes and tests; HTTP delegation resolves replicas by id instead,
// which stays stable across migrations).
func (f *Fleet) Engine(i int) *serve.Engine {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.replicas[i].engine
}

// ActiveHDAs returns the partitions the active generation serves on
// (one entry per replica, in replica order).
func (f *Fleet) ActiveHDAs() []*accel.HDA {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*accel.HDA, len(f.replicas))
	for i, r := range f.replicas {
		out[i] = r.hda
	}
	return out
}

// replicaByID resolves a live (active or retiring) replica by id.
func (f *Fleet) replicaByID(id int) *replica {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.replicas {
		if r.id == id {
			return r
		}
	}
	for _, r := range f.retiring {
		if r.id == id {
			return r
		}
	}
	for _, r := range f.failedReplicas {
		if r.id == id {
			return r
		}
	}
	return nil
}

// Ticket tracks a dispatched submission and the replica serving it.
// Every accepted ticket resolves exactly once — even if its replica
// crashes, the failover path either re-admits the request elsewhere
// or terminates it with a failed record — so a submitter waiting on
// Done never hangs on a dead replica.
type Ticket struct {
	// ID is the request's record id on its first replica engine (a
	// failed-over request keeps this id on the fleet surface; its
	// final record carries the surviving engine's own id).
	ID int64
	// Replica is the replica the request was first dispatched to —
	// for a fused chain, the replica of its first segment. Failover
	// may move the request; Served reports where it ended up.
	Replica int

	// served is the final serving replica (-1 until resolution, and
	// for requests that failed without being served); rec is the final
	// record. Both are fully written before done closes.
	served int
	rec    *serve.Record
	done   chan struct{}
}

// Done is closed when the request (all segments, for a fused chain)
// has been scheduled or failed.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the request completes or ctx is cancelled, and
// returns the final record. A fused chain's record carries one
// SegmentRecord per plan segment with the serving replica of each.
func (t *Ticket) Wait(ctx context.Context) (serve.Record, error) {
	select {
	case <-t.done:
		return *t.rec, nil
	case <-ctx.Done():
		return serve.Record{}, ctx.Err()
	}
}

// Served returns the replica that finally served the request: equal
// to Replica in the common case, a survivor's id after a crash
// failover, the last segment's replica for a fused chain, and -1 for
// a request that terminated unserved. Valid once Done is closed.
func (t *Ticket) Served() int {
	select {
	case <-t.done:
		return t.served
	default:
		return -1
	}
}

// dispatch is one request's dispatcher-side lifetime: the submission,
// its fleet ticket, and the attempt budget consumed so far. Its resolve
// method is the engine completion hook of every admission it makes — a
// terminal record closes the ticket, a StatusLost record (replica
// crash) queues the dispatch for failover instead.
//
// A fused request is one dispatch for its whole segment chain (segs
// set): rec is the merged record its finished segments fold into, in
// order, so len(rec.Segments) is the first unfinished segment. Each
// admission carries the unfinished segments to one engine — all of
// them when every active replica serves one partition, else just the
// first, whose successor is routed when it completes.
// req.ArrivalCycle is the next admission's arrival: the request's own,
// then the latest folded segment's finish cycle.
type dispatch struct {
	f     *Fleet
	req   serve.Request
	whole [1]*dnn.Model // the request's model (nil when unknown)
	t     *Ticket
	// attempts counts admissions of the request (initial + failovers;
	// a chain's later segments share its budget), under f.mu.
	attempts int
	// rep is the latest admission's replica, written under f.mu before
	// the engine sees the request (so resolve reads it safely).
	rep *replica

	// out counts the latest admission's records still to come, and
	// lost marks an admission a crash cut short (its first StatusLost
	// record queued the dispatch for failover). dispatchLocked resets
	// both before the engine sees the admission; hooks update them
	// under f.outMu.
	out  int
	lost bool
	// lostCycle is the crash cycle of a lost admission whose earlier
	// segments were still in the admitting batch: the chain resumes
	// once their records are in (under f.mu).
	lostCycle int64

	segs []*dnn.Model
	rec  *serve.Record
}

// workLocked is what d's next admission carries: the request's model,
// or the chain's unfinished segments — all of them on a uniform
// replica set, else the first. f.mu held.
func (f *Fleet) workLocked(d *dispatch) []*dnn.Model {
	if d.segs == nil {
		return d.whole[:]
	}
	k := len(d.rec.Segments)
	if f.uniformLocked() {
		return d.segs[k:]
	}
	return d.segs[k : k+1]
}

// submitTo admits work to one engine with resolve as its completion
// hook and returns the first record id: the whole request as a tracked
// one, or chain segments through SubmitChain. Segments carry the
// chain's tenant and priority but no SLA: the SLA is a request-level
// contract, checked on the merged record.
func (d *dispatch) submitTo(e *serve.Engine, work []*dnn.Model) (int64, error) {
	if d.segs == nil {
		t, err := e.SubmitTracked(d.req, d.resolve)
		if err != nil {
			return 0, err
		}
		return t.ID, nil
	}
	seg := serve.Request{Tenant: d.req.Tenant, Priority: d.req.Priority, ArrivalCycle: d.req.ArrivalCycle}
	ts, err := e.SubmitChain(seg, work, d.resolve)
	if err != nil {
		return 0, err
	}
	return ts[0].ID, nil
}

// resolve is the engine-side completion hook: it runs on the goroutine
// admitting the request (or the Crash caller's). A lost record takes
// only outMu — crash extraction fires it with f.mu held — and queues
// the dispatch for failover once per admission; later lost segments of
// the same admission only count down. A whole request's final record
// resolves its ticket under outMu. A chain segment's record folds
// under f.mu; once the admission's last record is in, a finished chain
// resolves here and any other parks in f.ready for Admit to route (run
// by the relay goroutine on a live fleet).
func (d *dispatch) resolve(rec serve.Record) {
	f := d.f
	if rec.Status == serve.StatusLost {
		f.outMu.Lock()
		d.out--
		if !d.lost {
			d.lost = true
			f.lostQ = append(f.lostQ, d)
		}
		f.outMu.Unlock()
		return
	}
	if d.segs == nil {
		f.resolveTicket(d, &rec, d.rep.id)
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d.foldSegment(rec)
	f.outMu.Lock()
	d.out--
	settled, lost := d.out == 0, d.lost
	f.outMu.Unlock()
	switch {
	case !settled:
	case !lost && d.chainOver():
		f.finishChainLocked(d)
	default:
		f.ready[d.rep.id] = append(f.ready[d.rep.id], d)
		f.readyCond.Signal()
	}
}

// foldSegment merges the next segment's record into the chain's; a
// done segment sets the arrival of whatever is admitted next. f.mu
// held.
func (d *dispatch) foldSegment(rec serve.Record) {
	k := len(d.rec.Segments)
	if k == 0 {
		d.rec.ArrivalCycle = rec.ArrivalCycle // "now" arrivals resolve at admission
	}
	sr := serve.SegmentRecord{Index: k, Model: rec.Model, Replica: d.rep.id}
	if rec.Status != serve.StatusDone {
		sr.Err = rec.Err
		d.rec.Segments = append(d.rec.Segments, sr)
		if d.rec.Status == serve.StatusDone {
			d.rec.Status = serve.StatusFailed
			d.rec.Err = fmt.Sprintf("segment %d on replica %d: %s", k, d.rep.id, rec.Err)
		}
		return
	}
	sr.Instance = rec.Instance
	sr.StartCycle = rec.StartCycle
	sr.FinishCycle = rec.FinishCycle
	sr.BusyCycles = rec.BusyCycles
	sr.EnergyPJ = rec.EnergyPJ
	d.rec.Segments = append(d.rec.Segments, sr)
	d.rec.BusyCycles += rec.BusyCycles
	d.rec.EnergyPJ += rec.EnergyPJ
	d.req.ArrivalCycle = rec.FinishCycle
}

// chainOver reports whether a chain has failed or folded its last
// segment. f.mu held.
func (d *dispatch) chainOver() bool {
	return d.rec.Status != serve.StatusDone || len(d.rec.Segments) == len(d.segs)
}

// settleLocked moves on a request whose latest admission has reported
// every record: a finished chain resolves, a lost admission fails over
// (a chain resumes at its first unfinished segment), and a live chain
// routes its next segment. f.mu held.
func (f *Fleet) settleLocked(d *dispatch) {
	switch {
	case d.segs != nil && d.chainOver():
		f.finishChainLocked(d)
	case d.lost:
		f.failoverOneLocked(d, d.lostCycle)
	default:
		if err := f.dispatchLocked(d); err != nil {
			d.rec.Status = serve.StatusFailed
			d.rec.Err = fmt.Sprintf("segment %d: %s", len(d.rec.Segments), err)
			f.finishChainLocked(d)
		}
	}
}

// finishChainLocked completes a fused request: the merged record's
// request-level placement, then the ticket. f.mu held.
func (f *Fleet) finishChainLocked(d *dispatch) {
	rec := d.rec
	rec.ID = d.t.ID
	served := -1
	if rec.Status == serve.StatusDone {
		first, last := rec.Segments[0], rec.Segments[len(rec.Segments)-1]
		rec.Instance = first.Instance
		rec.StartCycle = first.StartCycle
		rec.FinishCycle = last.FinishCycle
		rec.LatencyCycles = last.FinishCycle - rec.ArrivalCycle
		rec.QueueCycles = first.StartCycle - rec.ArrivalCycle
		rec.SLAViolated = rec.SLACycles > 0 && rec.LatencyCycles > rec.SLACycles
		served = d.rep.id
	}
	f.resolveTicket(d, rec, served)
}

// resolveTicket closes a request's ticket with its final record: the
// one place every accepted request ends. A fused request's merged
// record folds into the fleet's fused ledger and into the tenant
// window of the replica that ran its last admission. It takes only
// outMu, so it runs under f.mu and from engine hooks alike (a fused
// request resolves under f.mu).
func (f *Fleet) resolveTicket(d *dispatch, rec *serve.Record, served int) {
	f.outMu.Lock()
	if d.segs != nil {
		foldFused(&f.segStats, rec, len(d.segs))
		f.countFusedLocked(d.rep, rec)
	}
	f.tenantOutDecLocked(d.req.Tenant)
	f.outMu.Unlock()
	d.t.rec = rec
	d.t.served = served
	close(d.t.done)
}

// foldFused counts one fused request's final merged record of n plan
// segments into s: segments without an error completed, the rest
// (including any past a chain break) failed, so segment conservation
// holds; a done request adds its span, busy and handoff-bubble cycles.
func foldFused(s *serve.SegmentStats, rec *serve.Record, n int) {
	var completed int64
	for _, sr := range rec.Segments {
		if sr.Err == "" {
			completed++
		}
	}
	s.SegmentsCompleted += completed
	if rec.Status != serve.StatusDone {
		s.FusedFailed++
		s.SegmentsFailed += int64(n) - completed
		return
	}
	first, last := rec.Segments[0], rec.Segments[n-1]
	s.FusedCompleted++
	s.SegmentSpanCycles += last.FinishCycle - first.StartCycle
	s.SegmentBusyCycles += rec.BusyCycles
	for k := 1; k < n; k++ {
		s.HandoffBubbleCycles += rec.Segments[k].StartCycle - rec.Segments[k-1].FinishCycle
	}
}

// countFusedLocked counts a fused request's final record in its
// tenant's window on r — or in the fleet history, totals included,
// once r has been folded into it (a chain can only end failed there).
// f.mu and f.outMu held.
func (f *Fleet) countFusedLocked(r *replica, rec *serve.Record) {
	if !r.folded {
		window(r.fused, rec.Tenant).AddRecord(rec)
		return
	}
	window(f.history.tenants, rec.Tenant).AddRecord(rec)
	if rec.Status == serve.StatusDone {
		f.history.completed++
	} else {
		f.history.failed++
	}
}

// window returns (creating if needed) a tenant's window in ws.
func window(ws map[string]*serve.TenantWindow, tenant string) *serve.TenantWindow {
	w := ws[tenant]
	if w == nil {
		w = &serve.TenantWindow{Tenant: tenant}
		ws[tenant] = w
	}
	return w
}

// tenantOutDecLocked retires one outstanding request from the
// shed-fairness ledger. f.outMu held.
func (f *Fleet) tenantOutDecLocked(tenant string) {
	if f.tenantOut[tenant]--; f.tenantOut[tenant] <= 0 {
		delete(f.tenantOut, tenant)
		if len(f.tenantOut) == 0 {
			f.outIdle.Broadcast()
		}
	}
}

// tenantOutInc admits one outstanding request into the shed-fairness
// ledger. Incremented before the engine sees the request: completion
// hooks can fire before dispatch even returns.
func (f *Fleet) tenantOutInc(tenant string) {
	f.outMu.Lock()
	f.tenantOut[tenant]++
	f.outMu.Unlock()
}

// Submit routes one request to a replica under the fleet's policy and
// admits it there. The returned ticket carries the serving replica's
// index. Dispatch bookkeeping is only committed for accepted
// submissions, so a rejected request (unknown model, full tenant
// queue, a plan that does not tile its model) does not skew future
// routing.
//
// A model with a multi-segment plan (Serve.Plans) is decomposed into
// its plan's segment chain, which the fleet owns. The active replica
// set decides only how many segments one admission carries. When every
// active replica serves the same partition, all remaining segments go
// to one engine in one SubmitChain call, which links them with
// scheduling precedences. Otherwise one segment goes, and each
// successor is routed when its predecessor completes, with the
// predecessor's finish cycle as its arrival — to the replica whose ETA
// then wins, so each segment can land on the dataflow that suits it.
func (f *Fleet) Submit(req serve.Request) (*Ticket, error) {
	// Unknown models resolve to nil: the picked engine rejects and
	// accounts them, and a zero cost estimate keeps routing sound.
	model, _ := dnn.ByName(req.Model)
	d := &dispatch{f: f, req: req, whole: [1]*dnn.Model{model},
		t: &Ticket{Replica: -1, served: -1, done: make(chan struct{})}}
	if model != nil {
		if p, ok := f.serveOpts.Plans[model.Name]; ok && p.NumSegments() > 1 {
			if err := d.decompose(p); err != nil {
				return nil, err
			}
		}
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.draining {
		return nil, serve.ErrDraining
	}
	f.advanceFaultsLocked(max(req.ArrivalCycle, 0))
	if f.shedEnabled(req) {
		if eta, ok := f.bestETALocked(f.workLocked(d), req.ArrivalCycle); ok {
			if err := f.shedLocked(req, eta); err != nil {
				return nil, err
			}
		}
	}
	f.tenantOutInc(req.Tenant)
	if err := f.dispatchLocked(d); err != nil {
		f.outMu.Lock()
		f.tenantOutDecLocked(req.Tenant)
		f.outMu.Unlock()
		return nil, err
	}
	d.attempts = 1
	if model != nil {
		f.mixAdd(model.Name)
		if f.onAccept != nil {
			id := ""
			if d.segs != nil {
				id = fmt.Sprintf("%s/%d", model.Name, len(d.segs))
			}
			f.onAccept(f.acceptedLocked(req, model), id)
		}
	}
	if d.segs != nil {
		f.outMu.Lock()
		f.segStats.FusedRequests++
		f.segStats.Segments += int64(len(d.segs))
		window(d.rep.fused, req.Tenant).Submitted++
		f.outMu.Unlock()
	}
	return d.t, nil
}

// uniformLocked reports whether every active replica serves the same
// partition (accel.HDA.SamePartition: the class, and each sub's style
// and slice — never pointers or names, which migrations and
// reassignments change). f.mu held.
func (f *Fleet) uniformLocked() bool {
	for i := 1; i < len(f.replicas); i++ {
		if !f.replicas[i].hda.SamePartition(f.replicas[0].hda) {
			return false
		}
	}
	return true
}

// decompose turns a fused request into a chain of the plan's segment
// models under one merged record.
func (d *dispatch) decompose(plan dse.SegmentPlan) error {
	segs, err := plan.Slices(d.whole[0])
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	d.segs = segs
	d.rec = &serve.Record{
		Tenant:       d.req.Tenant,
		Model:        d.whole[0].Name,
		Priority:     d.req.Priority,
		Status:       serve.StatusDone,
		ArrivalCycle: d.req.ArrivalCycle,
		SLACycles:    d.req.SLACycles,
		Segments:     make([]serve.SegmentRecord, 0, len(segs)),
	}
	return nil
}

// acceptedLocked normalizes an accepted submission for the OnAccept
// capture hook: the model name canonicalized and a live-clock arrival
// pinned to an explicit cycle, so a captured trace always replays
// deterministically even though the capturing run was wall-clock
// driven. f.mu held.
func (f *Fleet) acceptedLocked(req serve.Request, model *dnn.Model) serve.Request {
	req.Model = model.Name
	if req.ArrivalCycle < 0 {
		ghz := f.serveOpts.ClockGHz
		if ghz <= 0 {
			ghz = 1
		}
		//herald:nondet live-mode arrival fallback by design; bit-reproducible replays pass explicit arrival_cycle
		req.ArrivalCycle = int64(time.Since(f.start).Seconds() * ghz * 1e9)
	}
	return req
}

// dispatchLocked admits one tracked request (or a fused chain's next
// segments, workLocked) on a replica chosen under the routing policy,
// rotating to the next-best replica on every replica-attributable
// admission failure (full queue, draining engine, injected fault)
// while feeding the circuit breaker. It returns an error only when the
// request cannot be admitted anywhere: a client error from the first
// engine that evaluated it, or, once every eligible replica has been
// tried, the last engine's overload rejection (a full queue stays
// retryable overload) or else ErrNoReplicas. A chain admission landing
// on another replica than its predecessor counts a cross-replica
// handoff. f.mu held.
func (f *Fleet) dispatchLocked(d *dispatch) error {
	f.dispatchSeq++
	cycle := f.faultCycle
	work := f.workLocked(d)
	prev := d.rep
	var tried map[int]bool
	var overload error
	for {
		r, eta, err := f.pickLocked(work, d.req.ArrivalCycle, tried)
		if err != nil {
			if overload != nil {
				return overload
			}
			return err
		}
		if tried == nil {
			tried = make(map[int]bool)
		}
		tried[r.id] = true
		if r.admitFails > 0 {
			r.admitFails--
			f.noteFailureLocked(r, cycle, "injected admission fault")
			continue
		}
		// Publish the serving replica and count the dispatch before the
		// engine sees the request: a live engine can finish it (firing
		// resolve and the inflight hook, once per record) before this
		// returns.
		d.rep = r
		d.out, d.lost = len(work), false
		r.inflight.Add(int64(len(work)))
		id, err := d.submitTo(r.engine, work)
		if err != nil {
			d.rep = prev
			r.inflight.Add(-int64(len(work)))
			if retryableAdmit(err) {
				f.noteFailureLocked(r, cycle, err.Error())
				overload = err
				continue
			}
			return err
		}
		f.noteSuccessLocked(r, cycle)
		if d.t.ID == 0 {
			d.t.ID = id
			d.t.Replica = r.id
		} else if d.segs != nil && r.id != prev.id {
			f.crossHandoffs++
		}
		r.dispatched++
		if f.policy == CostAware {
			r.horizon = eta
		}
		if f.policy == RoundRobin {
			f.rrNext++
		}
		return nil
	}
}

// Admit runs admission rounds on the caller's goroutine until no
// replica queue holds work and no fused chain is parked. Each round
// runs serve.Engine.Admit on every live replica (active or retiring)
// with queued work, one goroutine per engine, joins them, and then
// routes the chains whose admissions settled with a successor to route
// — in replica-id order, then in the order each engine finalized them.
// Admitting first keeps a successor, which arrives at its
// predecessor's finish cycle, from being placed ahead of work already
// queued. Manual fleets (serve.Options.Manual) admit only here, so a
// fixed sequence of Submit and Admit calls yields the same schedules,
// records, decisions and statistics run to run, at any GOMAXPROCS. On
// a live fleet it returns once the queues it found are admitted.
func (f *Fleet) Admit() {
	for {
		f.mu.Lock()
		var busy []*serve.Engine
		for _, set := range [][]*replica{f.replicas, f.retiring} {
			for _, r := range set {
				if r.engine.Load().Pending > 0 {
					busy = append(busy, r.engine)
				}
			}
		}
		f.mu.Unlock()
		var wg sync.WaitGroup
		for _, e := range busy {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.Admit()
			}()
		}
		wg.Wait()
		f.mu.Lock()
		released := len(f.ready) > 0
		f.dispatchReadyLocked()
		f.mu.Unlock()
		if len(busy) == 0 && !released {
			return
		}
	}
}

// relay is a live fused fleet's counterpart of an engine's driver
// goroutine: it runs Admit whenever a completion hook parks a chain,
// until Drain stops it.
func (f *Fleet) relay() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		for len(f.ready) == 0 && !f.relayStop {
			f.readyCond.Wait()
		}
		if len(f.ready) == 0 {
			return
		}
		f.mu.Unlock()
		f.Admit()
		f.mu.Lock()
	}
}

// dispatchReadyLocked settles the parked fused chains in replica-id
// order, then in the order each was parked. Routing here, not on the
// engine goroutines that ran the segments, keeps every routing
// decision in one order at any GOMAXPROCS. f.mu held.
func (f *Fleet) dispatchReadyLocked() {
	for _, id := range slices.Sorted(maps.Keys(f.ready)) {
		for _, d := range f.ready[id] {
			f.settleLocked(d)
		}
	}
	clear(f.ready)
}

// mixAdd counts one accepted submission of a model into the observed
// mix, applying the pending exponential decay lazily. f.mu held.
func (f *Fleet) mixAdd(name string) {
	f.mixTick++
	e := f.mix[name]
	if e == nil {
		e = &mixEntry{}
		f.mix[name] = e
	}
	if f.mixDecay < 1 && f.mixTick > e.tick {
		e.w *= math.Pow(f.mixDecay, float64(f.mixTick-e.tick))
	}
	e.w++
	e.tick = f.mixTick
}

// mixEntry is one model's decayed submission weight, valid as of tick
// (lazy decay: the weight is brought forward when touched or read).
type mixEntry struct {
	w    float64
	tick int64
}

// etaLocked is one replica's cost-aware completion estimate for an
// admission's models arriving at the given cycle: the horizon of work
// already routed there (or the arrival, whichever is later) plus the
// models' best-case busy cycles, scaled by any injected stall. Returns
// 0 under the other policies (they keep no horizon). f.mu held.
func (f *Fleet) etaLocked(r *replica, work []*dnn.Model, arrival int64) int64 {
	if f.policy != CostAware {
		return 0
	}
	// "Now" arrivals (negative) estimate from cycle 0: the horizon
	// term dominates and wall-clock must not enter dispatch (it
	// would break replayability).
	if arrival < 0 {
		arrival = 0
	}
	from, cost := max(r.horizon, arrival), stallCycles(r.estWork(f.cache, work), r.stall)
	if cost > math.MaxInt64-from {
		return math.MaxInt64 // a saturated stall stays the latest ETA
	}
	return from + cost
}

// bestETALocked is the minimum cost-aware ETA any eligible replica
// offers an admission — what the admission controller compares against
// the SLA budget. ok is false when no replica is eligible. f.mu held.
func (f *Fleet) bestETALocked(work []*dnn.Model, arrival int64) (int64, bool) {
	elig, _ := f.eligibleLocked(nil)
	if len(elig) == 0 {
		return 0, false
	}
	best := int64(math.MaxInt64)
	for _, r := range elig {
		if eta := f.etaLocked(r, work, arrival); eta < best {
			best = eta
		}
	}
	return best, true
}

// pickLocked chooses the replica for one submission among the
// eligible set (active, not breaker-open, not in tried) and, for the
// cost-aware policy, returns the ETA to commit to its horizon. A
// half-open replica takes priority as the breaker's probe. Ties break
// toward the lower replica position; with every replica healthy the
// eligible set is exactly f.replicas, so routing is unchanged from
// the fault-free dispatcher. f.mu held.
func (f *Fleet) pickLocked(work []*dnn.Model, arrival int64, tried map[int]bool) (*replica, int64, error) {
	elig, probe := f.eligibleLocked(tried)
	if len(elig) == 0 {
		return nil, 0, ErrNoReplicas
	}
	if probe != nil {
		// The half-open breaker's single probe request: route it to the
		// recovering replica regardless of policy so the breaker can
		// close (or re-open) promptly.
		return probe, f.etaLocked(probe, work, arrival), nil
	}
	switch f.policy {
	case LeastOutstanding:
		best, bestLoad := elig[0], elig[0].engine.Load()
		for _, r := range elig[1:] {
			ld := r.engine.Load()
			if ld.BacklogCycles < bestLoad.BacklogCycles ||
				(ld.BacklogCycles == bestLoad.BacklogCycles && ld.Pending < bestLoad.Pending) {
				best, bestLoad = r, ld
			}
		}
		return best, 0, nil
	case CostAware:
		var best *replica
		var bestETA int64
		for _, r := range elig {
			eta := f.etaLocked(r, work, arrival)
			if best == nil || eta < bestETA {
				best, bestETA = r, eta
			}
		}
		return best, bestETA, nil
	default: // RoundRobin
		return elig[f.rrNext%len(elig)], 0, nil
	}
}

// ReplicaStats is one replica's slice of the fleet statistics.
type ReplicaStats struct {
	Replica int `json:"replica"`
	// Generation is the migration generation that created the replica
	// (0 = the fleet's original engines).
	Generation int    `json:"generation"`
	HDA        string `json:"hda"`
	// Retiring marks a previous-generation replica that no longer
	// receives dispatches but is still finishing in-flight work.
	Retiring   bool  `json:"retiring"`
	Dispatched int64 `json:"dispatched"`
	Inflight   int64 `json:"inflight"`
	// HorizonCycles is the cost-aware dispatcher's completion-time
	// estimate for everything routed here (0 under other policies).
	HorizonCycles int64 `json:"horizon_cycles"`
	// Health is the dispatcher-side health state: healthy, degraded
	// (stall detection), breaker-open, breaker-half-open or crashed.
	Health string `json:"health"`
	// StallFactor is the injected slowdown multiplier (omitted at 1);
	// ConsecutiveFailures is the breaker's current failure streak.
	StallFactor         float64     `json:"stall_factor,omitempty"` //herald:jsonzero a valid stall factor is > 1; unset means not stalled
	ConsecutiveFailures int         `json:"consecutive_failures"`
	Engine              serve.Stats `json:"engine"`
}

// Stats is a fleet-wide snapshot: per-replica engine statistics plus
// tenant aggregates merged across replicas — including retiring and
// retired generations, so no served request ever drops out of the
// aggregates across a repartition.
type Stats struct {
	Policy        string  `json:"policy"`
	Replicas      int     `json:"replicas"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Generation counts completed migrations; RetiredReplicas counts
	// fully-drained previous-generation engines folded into the
	// aggregates.
	Generation      int   `json:"generation"`
	Migrations      int64 `json:"migrations"`
	RetiredReplicas int   `json:"retired_replicas"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Rejected  int64 `json:"rejected"`
	Pending   int64 `json:"pending"`

	// Fault-tolerance counters. Shed counts arrivals turned away by
	// admission control; Failovers counts crash-orphaned requests (or
	// chain remainders) re-admitted on survivors; Lost counts engine
	// admissions extracted by replica crashes — a chain's queued
	// segments one by one — each either failed over (counted once on
	// its survivor) or terminally failed; BreakerTrips
	// counts circuit-breaker opens. FailedReplicas is the current
	// number of crashed replicas awaiting recovery.
	Shed           int64 `json:"shed"`
	Failovers      int64 `json:"failovers"`
	Lost           int64 `json:"lost"`
	Crashes        int64 `json:"crashes"`
	Recoveries     int64 `json:"recoveries"`
	BreakerTrips   int64 `json:"breaker_trips"`
	FailedReplicas int   `json:"failed_replicas"`

	// Elastic counters summed across live engines and folded history:
	// preempted placements, successful resumptions, and per-engine PE
	// reassignments (one ReassignAll counts once per replica).
	Preemptions int64 `json:"preemptions"`
	Resumes     int64 `json:"resumes"`
	PEReassigns int64 `json:"pe_reassigns"`

	// MakespanCycles is the slowest replica's committed horizon —
	// replicas run in parallel in simulated time, so fleet throughput
	// is total completions over the maximum makespan, not the sum.
	MakespanCycles   int64   `json:"makespan_cycles"`
	SimThroughputRPS float64 `json:"sim_throughput_rps"`

	// Segments reports the fleet-wide fused-serving counters: requests
	// decomposed into segment chains, their segment outcomes, and the
	// pipeline-overlap cycle sums, folded from each fused request's
	// final merged record (a failed-over chain counts once).
	Segments serve.SegmentStats `json:"segments"`
	// CrossReplicaHandoffs counts chain hops where a segment was
	// routed to a different replica than its predecessor — the
	// dispatches where the horizon-ledger ETA overruled locality, and
	// a crashed chain's resumption on a survivor.
	CrossReplicaHandoffs int64 `json:"cross_replica_handoffs"`

	// Tenants aggregates each tenant across every replica; latency
	// percentiles are computed over the merged sample windows (they
	// cannot be derived from per-replica percentiles).
	Tenants []serve.TenantStats `json:"tenants"`

	// PerReplica covers the live replicas: the active generation plus
	// any still-retiring ones. Fully-retired engines appear only in
	// the folded aggregates.
	PerReplica []ReplicaStats `json:"per_replica"`
}

// addWindow merges one tenant window into the aggregation map.
func addWindow(tenants map[string]*serve.TenantWindow, w *serve.TenantWindow) {
	window(tenants, w.Tenant).Add(w)
}

// Stats returns the current fleet-wide statistics.
func (f *Fleet) Stats() Stats {
	tenants := make(map[string]*serve.TenantWindow)

	// Snapshot the live replica set and fold the retired history under
	// the dispatch lock; engine probes run on the snapshot afterwards
	// (an engine outlives its membership in f.replicas, so reading it
	// after unlock is safe even if a migration swaps the set).
	type rsnap struct {
		r                   *replica
		retiring            bool
		dispatched, horizon int64
		health              string
		stall               float64
		consecFails         int
	}
	f.mu.Lock()
	st := Stats{
		Policy:               f.policy.String(),
		Replicas:             len(f.replicas),
		UptimeSeconds:        time.Since(f.start).Seconds(), //herald:nondet wall-clock uptime is reporting-only
		Generation:           f.generation,
		Migrations:           f.migrations,
		RetiredReplicas:      f.history.replicas,
		Submitted:            f.history.submitted + f.lostFailed,
		Completed:            f.history.completed,
		Failed:               f.history.failed + f.lostFailed,
		Rejected:             f.history.rejected,
		Pending:              f.history.pending,
		Lost:                 f.history.lost,
		Shed:                 f.shed,
		Failovers:            f.failovers,
		Crashes:              f.crashes,
		Recoveries:           f.recoveries,
		BreakerTrips:         f.breakerTrips,
		FailedReplicas:       len(f.failedReplicas),
		Preemptions:          f.history.preemptions,
		Resumes:              f.history.resumes,
		PEReassigns:          f.history.reassigns,
		MakespanCycles:       f.history.makespan,
		CrossReplicaHandoffs: f.crossHandoffs,
	}
	minH := f.minHorizonLocked()
	snaps := make([]rsnap, 0, len(f.replicas)+len(f.retiring)+len(f.failedReplicas))
	for _, r := range f.replicas {
		snaps = append(snaps, rsnap{r: r, dispatched: r.dispatched, horizon: r.horizon,
			health: f.healthStringLocked(r, minH), stall: r.stall, consecFails: r.consecFails})
	}
	for _, r := range f.retiring {
		snaps = append(snaps, rsnap{r: r, retiring: true, dispatched: r.dispatched, horizon: r.horizon,
			health: r.health.String()})
	}
	for _, r := range f.failedReplicas {
		snaps = append(snaps, rsnap{r: r, dispatched: r.dispatched, horizon: r.horizon,
			health: r.health.String()})
	}
	//herald:nondet one window per tenant, each into its own aggregate; every source merges in a fixed order (history, then each replica's engine and fused windows in snapshot order), so the float sums associate alike run to run
	for _, w := range f.history.tenants {
		addWindow(tenants, w)
	}
	shedT := make(map[string]int64, len(f.shedT))
	maps.Copy(shedT, f.shedT)
	lostFailedT := make(map[string]int64, len(f.lostFailedT))
	maps.Copy(lostFailedT, f.lostFailedT)
	f.outMu.Lock()
	st.Segments = f.segStats
	f.outMu.Unlock()
	f.mu.Unlock()

	var clockGHz float64
	for _, sn := range snaps {
		r := sn.r
		es := r.engine.Stats()
		clockGHz = es.ClockGHz
		st.Submitted += es.Submitted
		st.Completed += es.Completed
		st.Failed += es.Failed
		st.Rejected += es.Rejected
		st.Pending += es.Pending
		st.Lost += es.Lost
		st.Preemptions += es.Preemptions
		st.Resumes += es.Resumes
		st.PEReassigns += es.PEReassigns
		if es.MakespanCycles > st.MakespanCycles {
			st.MakespanCycles = es.MakespanCycles
		}
		rs := ReplicaStats{
			Replica:             r.id,
			Generation:          r.gen,
			HDA:                 r.hda.Name,
			Retiring:            sn.retiring,
			Dispatched:          sn.dispatched,
			Inflight:            r.inflight.Load(),
			HorizonCycles:       sn.horizon,
			Health:              sn.health,
			ConsecutiveFailures: sn.consecFails,
			Engine:              es,
		}
		if sn.stall > 1 {
			rs.StallFactor = sn.stall
		}
		st.PerReplica = append(st.PerReplica, rs)
		for _, w := range r.engine.TenantWindows() {
			addWindow(tenants, &w)
		}
		f.outMu.Lock()
		//herald:nondet one window per tenant, each into its own aggregate, right after the same replica's engine windows (see above)
		for _, w := range r.fused {
			addWindow(tenants, w)
			st.Submitted += w.Submitted
			st.Completed += w.Completed
			st.Failed += w.Failed
		}
		f.outMu.Unlock()
	}

	// Crash-orphaned requests that terminally failed were erased from
	// their engines; count them per tenant on both sides of the
	// conservation equation. Shed tenants get a row even if no engine
	// ever saw them.
	//herald:nondet additive per-tenant counters into a map; emission below iterates sorted names
	for tn, c := range lostFailedT {
		w := window(tenants, tn)
		w.Submitted += c
		w.Failed += c
	}
	//herald:nondet set insertion only; emission below iterates sorted names
	for tn := range shedT {
		window(tenants, tn)
	}

	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := tenants[name].Stats()
		ts.Shed = shedT[name]
		st.Tenants = append(st.Tenants, ts)
	}

	if st.MakespanCycles > 0 && clockGHz > 0 {
		simSeconds := float64(st.MakespanCycles) / (clockGHz * 1e9)
		st.SimThroughputRPS = float64(st.Completed) / simSeconds
	}
	return st
}

// ObservedMix snapshots the fleet's served traffic as a workload: one
// entry per model the dispatcher accepted, batch counts scaled to the
// smallest observed share (min positive weight = 1 batch, others
// rounded to the nearest ratio — ceiling rounding would turn a 9:8
// mix into a 2:1 probe) and capped at maxMixBatches so a probe sweep
// stays cheap regardless of absolute traffic volume. Returns nil when
// nothing has been observed yet. The mix is deterministic for a fixed
// submission history.
//
// With Options.MixHalfLife set, each model's weight is its
// exponentially-decayed submission count, and models decayed below
// mixDropFraction of the total are dropped: a model that dominated an
// hour ago but vanished from traffic stops steering repartitioning
// probes. Without decay the weights are exact all-time counts and
// nothing is dropped (legacy behavior, bit-identical mixes).
func (f *Fleet) ObservedMix(name string) *workload.Workload {
	f.mu.Lock()
	// Accumulate weights in sorted key order: total is a float sum, and
	// float addition is order-dependent, so iterating the map directly
	// would let Go's randomized iteration order perturb the
	// mixDropFraction threshold — and with it the probe mix and the
	// controller's replayed decisions — in the last bit.
	models := make([]string, 0, len(f.mix))
	for m := range f.mix {
		models = append(models, m)
	}
	sort.Strings(models)
	weights := make(map[string]float64, len(f.mix))
	var total float64
	for _, m := range models {
		e := f.mix[m]
		w := e.w
		if f.mixDecay < 1 && f.mixTick > e.tick {
			w *= math.Pow(f.mixDecay, float64(f.mixTick-e.tick))
		}
		weights[m] = w
		total += w
	}
	decayed := f.mixDecay < 1
	f.mu.Unlock()
	if len(weights) == 0 {
		return nil
	}
	names := make([]string, 0, len(weights))
	minW := 0.0
	for _, m := range models {
		w := weights[m]
		if decayed && w < mixDropFraction*total {
			continue
		}
		names = append(names, m)
		if minW == 0 || w < minW {
			minW = w
		}
	}
	if len(names) == 0 {
		return nil
	}
	entries := make([]workload.Entry, 0, len(names))
	for _, m := range names {
		b := int(weights[m]/minW + 0.5) // round to nearest share
		if b < 1 {
			b = 1
		}
		if b > maxMixBatches {
			b = maxMixBatches
		}
		entries = append(entries, workload.Entry{Model: m, Batches: b})
	}
	w, err := workload.New(name, entries)
	if err != nil {
		return nil // defensive: counted models come from the zoo
	}
	return w
}

// mixDropFraction drops models whose decayed weight fell below this
// fraction of the total observed weight (decayed mixes only).
const mixDropFraction = 0.01

// maxMixBatches caps each model's batch count in ObservedMix: the mix
// is a representative ratio, not a replay, and probe sweeps must stay
// cheap under heavy traffic.
const maxMixBatches = 8

// Resweep re-runs the fleet's partition search (Options.Sweeper) on
// workload w — or on the observed tenant mix when w is nil — and
// returns the search result. It only reports what partition the
// current traffic would pick; acting on it (spawning replicas on the
// winner and draining the old ones) is the dynamic-repartitioning
// controller's job, which builds on this probe. Sweeps are serialized
// but do not block dispatch.
func (f *Fleet) Resweep(w *workload.Workload) (*dse.Result, error) {
	if f.sweeper == nil {
		return nil, fmt.Errorf("fleet: no sweeper configured (set Options.Sweeper to enable Resweep)")
	}
	if w == nil {
		if w = f.ObservedMix("observed-mix"); w == nil {
			return nil, fmt.Errorf("fleet: no traffic observed yet")
		}
	}
	f.resweepMu.Lock()
	defer f.resweepMu.Unlock()
	return f.sweeper.Sweep(w)
}

// ResetMix clears the observed per-model traffic counters, so the
// next ObservedMix/Resweep reflects only traffic accepted after the
// reset. The repartitioning controller resets the mix after every
// migration: the history that justified the previous partition must
// not immediately argue against the one just installed.
func (f *Fleet) ResetMix() {
	f.mu.Lock()
	clear(f.mix)
	f.mixTick = 0
	f.mu.Unlock()
}

// Migrate replaces the active replicas with a new generation serving
// the given HDAs — the live-repartitioning primitive the Controller
// drives. The sequence is spawn → switch → drain → fold:
//
//  1. New engines are built on the target partitions (and prewarmed
//     with the given workload mix, if non-nil, so their scheduler
//     tables inherit the traffic's cost-cache locality). A build
//     failure leaves the fleet untouched.
//  2. Under the dispatch lock, routing atomically switches to the new
//     generation (fresh horizons, round-robin cursor reset). Requests
//     already dispatched stay on their original engine.
//  3. The old generation is quiesced — every old engine stops
//     admitting at once — then joined: each finishes its in-flight
//     and queued requests (a manual engine admits them on the caller's
//     goroutine). No request is lost or double-served.
//  4. Each drained engine's final statistics fold into the fleet
//     history, and the engine is dropped.
//
// If ctx expires mid-drain the un-drained replicas stay in the
// retiring set (their statistics remain live) and a later Drain picks
// them up. Migrating a draining fleet fails with serve.ErrDraining.
func (f *Fleet) Migrate(ctx context.Context, hdas []*accel.HDA, prewarm *workload.Workload) error {
	if len(hdas) == 0 {
		return fmt.Errorf("fleet: migration needs at least one replica HDA")
	}
	rs, err := f.buildReplicas(hdas)
	if err != nil {
		return err
	}
	for _, r := range rs {
		r.engine.Prewarm(prewarm)
	}

	f.mu.Lock()
	if f.draining {
		f.mu.Unlock()
		for _, r := range rs {
			_, _ = r.engine.Drain(context.Background())
		}
		return serve.ErrDraining
	}
	old := f.replicas
	f.generation++
	f.migrations++
	for _, r := range rs {
		r.id = f.nextID
		f.nextID++
		r.gen = f.generation
	}
	f.replicas = rs
	f.rrNext = 0
	f.retiring = append(f.retiring, old...)
	f.mu.Unlock()

	// Stop the whole old generation's admissions before waiting on
	// any single engine, then join.
	for _, r := range old {
		r.engine.Quiesce()
	}
	var errs []error
	for _, r := range old {
		if _, err := r.engine.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("fleet: replica %d drain: %w", r.id, err))
			continue
		}
		f.fold(r)
	}
	return errors.Join(errs...)
}

// fold moves a fully-drained retired replica's final statistics into
// the fleet history and drops the engine from the retiring set.
func (f *Fleet) fold(r *replica) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.foldLocked(r)
	for i, rr := range f.retiring {
		if rr == r {
			f.retiring = append(f.retiring[:i], f.retiring[i+1:]...)
			break
		}
	}
}

// foldLocked accumulates one retired (or crash-recovered) replica's
// final statistics into the fleet history: its engine's, then its
// fused-request windows, the order Stats merges them in. f.mu held —
// safe even though Stats/TenantWindows take the engine's own locks,
// because an engine never takes f.mu. Crash recovery folds under f.mu
// so the old engine's numbers and the replacement replica appear
// atomically.
func (f *Fleet) foldLocked(r *replica) {
	es := r.engine.Stats()
	windows := r.engine.TenantWindows()
	h := &f.history
	if h.tenants == nil {
		h.tenants = make(map[string]*serve.TenantWindow)
	}
	f.outMu.Lock()
	for _, name := range slices.Sorted(maps.Keys(r.fused)) {
		w := r.fused[name]
		windows = append(windows, *w)
		es.Submitted += w.Submitted
		es.Completed += w.Completed
		es.Failed += w.Failed
	}
	r.folded = true
	f.outMu.Unlock()
	h.replicas++
	h.submitted += es.Submitted
	h.completed += es.Completed
	h.failed += es.Failed
	h.rejected += es.Rejected
	h.pending += es.Pending
	h.lost += es.Lost
	h.preemptions += es.Preemptions
	h.resumes += es.Resumes
	h.reassigns += es.PEReassigns
	if es.MakespanCycles > h.makespan {
		h.makespan = es.MakespanCycles
	}
	for i := range windows {
		addWindow(h.tenants, &windows[i])
		// The folded window is a sliding window like the per-engine
		// ones: keep the most recent samples, bounded across any
		// number of retired generations.
		t := h.tenants[windows[i].Tenant]
		if n := len(t.Latencies); n > maxHistoryLatencies {
			t.Latencies = append(t.Latencies[:0], t.Latencies[n-maxHistoryLatencies:]...)
		}
	}
}

// maxHistoryLatencies bounds each tenant's folded latency window
// across retired generations (matches the per-engine window scale).
const maxHistoryLatencies = 4096

// Drain stops admissions, waits until every accepted ticket has
// resolved or ctx is done (a manual fleet admits on the caller's
// goroutine first; a live one admits on its own goroutines), then
// fans the drain out to every live replica (active and retiring),
// joins them, and returns the final statistics — with ctx's error if
// tickets were still open. The ticket wait comes first: quiescing
// engines under a fused chain would fail its remaining segments.
func (f *Fleet) Drain(ctx context.Context) (Stats, error) {
	f.mu.Lock()
	f.draining = true
	f.mu.Unlock()
	if f.serveOpts.Manual {
		f.Admit()
	}
	stop := context.AfterFunc(ctx, func() {
		f.outMu.Lock()
		f.outIdle.Broadcast()
		f.outMu.Unlock()
	})
	f.outMu.Lock()
	for len(f.tenantOut) > 0 && ctx.Err() == nil {
		f.outIdle.Wait()
	}
	idle := len(f.tenantOut) == 0
	f.outMu.Unlock()
	stop()

	f.mu.Lock()
	if idle {
		f.relayStop = true
		f.readyCond.Broadcast()
	}
	live := make([]*replica, 0, len(f.replicas)+len(f.retiring)+len(f.failedReplicas))
	live = append(live, f.replicas...)
	live = append(live, f.retiring...)
	// Crashed engines are already stopped; joining them is immediate
	// but keeps the error surface uniform.
	live = append(live, f.failedReplicas...)
	f.mu.Unlock()

	errs := make([]error, len(live))
	var wg sync.WaitGroup
	for i, r := range live {
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			if _, err := r.engine.Drain(ctx); err != nil {
				errs[i] = fmt.Errorf("fleet: replica %d drain: %w", r.id, err)
			}
		}(i, r)
	}
	wg.Wait()
	if !idle {
		errs = append(errs, ctx.Err())
	}
	return f.Stats(), errors.Join(errs...)
}
