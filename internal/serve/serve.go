// Package serve is Herald's online multi-tenant serving engine: the
// runtime counterpart of the paper's compile-time scheduler. Where the
// batch pipeline receives a whole multi-DNN workload up front, serve
// admits inference requests as they arrive, keeps one queue per
// tenant, and extends the committed schedule incrementally
// (sched.Incremental) over a fixed HDA — the design point a
// dse.Search picked at deploy time. The shared maestro.Cache carries
// cost-model results across requests, so steady-state admission cost
// is dominated by the assignment loop, not the analytical model.
//
// Admission is one synchronous call: Admit drains the tenant queues
// round-robin (at most one request per tenant per pass, so a chatty
// tenant cannot starve a quiet one) in small batches admitted to the
// incremental scheduler, and returns once every placement is committed
// and every completion hook has fired. A live engine runs Admit on one
// driver goroutine, woken per submission; a Manual engine starts no
// driver and admits only when its owner calls Admit, so the queue each
// round sees is a pure function of the calls made — the determinism
// handle the replay harness and fault drills build on.
//
// Lifecycle: New starts the driver (unless Manual); Quiesce stops
// admissions while in-flight work finishes (Done observes the last
// admission); Drain is Quiesce plus the wait. An engine is never
// restarted — a fleet migration retires quiesced engines and routes
// to freshly-built ones instead (see internal/fleet). A fresh engine's
// scheduler tables fill on its first admission of each model, from
// cost columns the shared maestro.Cache has usually interned already.
//
// Fused chains: a fleet dispatcher that decomposes a fused request
// (internal/fleet) admits the segments it routes here through
// SubmitChain. The engine's one chain job is linking segments queued
// together: each successor carries an Admission.After on its
// predecessor, so the scheduler orders them and rides the activation
// on its handoff ledger. Every segment reports its own record; the
// dispatcher merges them and counts the request once.
//
// Probes for dispatchers and monitors: HDA, Estimate (a model's
// best-case busy cycles, memoized with Submit's feasibility check),
// Load (pending count + committed backlog horizon), Stats / Ledger
// (aggregate statistics, and with Ledger the per-tenant raw windows
// they sum, from one read; fleets merge windows across replicas),
// Snapshot (the committed schedule), and Options.OnRequestDone (a
// per-completion callback outside the engine's locks). A fleet reads these instead of keeping copies. The
// JSON-over-HTTP front end is the fleet's (internal/fleet); this
// package keeps only its wire type, SubmitRequest.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accel"
	"repro/internal/dnn"
	"repro/internal/dse"
	"repro/internal/maestro"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Options configures an Engine.
type Options struct {
	// Sched configures the underlying Herald scheduler. PostProcess
	// is forced off (online commitments are non-revocable) and
	// Priorities must be unset (priorities arrive per request).
	Sched sched.Options

	// ClockGHz converts cycles to wall seconds in reports (default 1).
	ClockGHz float64

	// MaxQueue caps each tenant's pending queue; submissions beyond
	// it are rejected (admission control). Default 1024.
	MaxQueue int

	// MaxBatch bounds how many requests one scheduling round admits
	// (coalescing amortizes the assignment loop). Default 8.
	MaxBatch int

	// MaxRecords caps retained finished-request records; the oldest
	// finished records are evicted first (a long-running daemon must
	// not grow without bound). Default 65536.
	MaxRecords int

	// OnRequestDone, when set, is called with a copy of every
	// request's final record (done or failed) after it is published.
	// It runs on the goroutine running Admit, outside the engine's
	// locks: callbacks may submit back into the engine but must not
	// block, or they stall admission.
	OnRequestDone func(Record)

	// Manual starts the engine without a driver goroutine: submissions
	// queue until the owner calls Admit (Quiesce, Crash and Drain work
	// as usual; Drain admits what is queued). Replays and fault drills
	// set it so batch composition depends only on the order of
	// submissions and Admit calls, never on goroutine timing.
	Manual bool

	// Plans is the fleet's plan table: model names to fusion plans
	// (dse.PlanSegments on the serving HDA). internal/fleet reads it from the
	// Options it builds its replicas with, decomposes every request
	// whose model has a multi-segment plan, and admits the segments
	// through SubmitChain. A bare engine ignores it: Submit always
	// serves the whole model.
	Plans map[string]dse.SegmentPlan

	// Elastic enables the elastic intra-HDA surface: Preempt (revoke
	// the scheduled-but-future suffix of low-priority requests at a
	// layer boundary and re-queue them for Resume) and Reassign
	// (re-size the sub-accelerator slices between committed layers).
	// Off by default; a disabled engine's scheduling is bit-identical
	// to one built before the elastic surface existed (the golden
	// fingerprints pin it).
	Elastic bool
}

// Overload conditions: submissions failing with one of these should
// be retried later; anything else is a bad request.
var (
	// ErrDraining rejects submissions to a draining engine.
	ErrDraining = errors.New("serve: engine is draining")
	// ErrQueueFull rejects submissions beyond a tenant's queue cap.
	ErrQueueFull = errors.New("serve: tenant queue full")
)

// DefaultOptions returns the engine defaults over Herald's standard
// scheduler configuration.
func DefaultOptions() Options {
	return Options{Sched: sched.DefaultOptions(), ClockGHz: 1.0, MaxQueue: 1024, MaxBatch: 8}
}

func (o Options) withDefaults() Options {
	if o.ClockGHz <= 0 {
		o.ClockGHz = 1.0
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 1024
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.MaxRecords <= 0 {
		o.MaxRecords = 65536
	}
	return o
}

// MaxLatencySamples bounds each tenant's percentile window: the stats
// report percentiles over the most recent samples, not all history. A
// fleet bounds the window it folds across retired generations with it
// too.
const MaxLatencySamples = 4096

// Request is one inference submission.
type Request struct {
	Tenant   string `json:"tenant"`
	Model    string `json:"model"`
	Priority int    `json:"priority,omitempty"` //herald:jsonzero zero is the default priority; absent and 0 mean the same on this input struct

	// SLACycles is the relative response-time target (cycles from
	// arrival to completion); 0 disables SLA tracking.
	SLACycles int64 `json:"sla_cycles,omitempty"` //herald:jsonzero 0 is the no-SLA sentinel on this input struct; absent means the same

	// ArrivalCycle is the request's arrival on the engine's cycle
	// clock. Negative means "now" (wall clock scaled by ClockGHz); a
	// fleet fixes it to an explicit cycle on its own clock at Submit,
	// so its engines only see explicit arrivals. Arrivals in the
	// committed past are clamped to the admission floor at scheduling
	// time.
	ArrivalCycle int64 `json:"arrival_cycle,omitempty"` //herald:jsonzero 0 is the live-clock sentinel on this input struct; HTTP replays use SubmitRequest's pointer field
}

// Status is a request's lifecycle state.
type Status string

// Request lifecycle states.
const (
	// StatusQueued: accepted, waiting for a scheduling round.
	StatusQueued Status = "queued"
	// StatusDone: scheduled; the record carries the placement.
	StatusDone Status = "done"
	// StatusFailed: could not be scheduled; the record carries the error.
	StatusFailed Status = "failed"
	// StatusLost: the request was accepted but its engine crashed
	// (Crash) before serving it. Lost requests are erased from the
	// crashed engine's accounting — a fleet dispatcher re-admits them
	// on a surviving replica, where they are counted exactly once.
	StatusLost Status = "lost"
)

// Record is the engine's view of one request, including its schedule
// placement and latency statistics once served.
type Record struct {
	ID       int64  `json:"id"`
	Tenant   string `json:"tenant"`
	Model    string `json:"model"`
	Priority int    `json:"priority"`
	Status   Status `json:"status"`

	ArrivalCycle int64 `json:"arrival_cycle"`
	SLACycles    int64 `json:"sla_cycles,omitempty"` //herald:jsonzero echoes the request's no-SLA sentinel; 0 and absent both mean untracked

	// Set once Status == StatusDone. None of the placement fields may
	// carry omitempty: instance index 0, start cycle 0 and queueing
	// delay 0 are all legitimate placements, and dropping them from
	// JSON would be indistinguishable from "not scheduled" (clients
	// must read Status for that).
	Instance      int     `json:"instance"` // schedule instance index
	StartCycle    int64   `json:"start_cycle"`
	FinishCycle   int64   `json:"finish_cycle"`
	QueueCycles   int64   `json:"queue_cycles"`
	BusyCycles    int64   `json:"busy_cycles"`
	LatencyCycles int64   `json:"latency_cycles"`
	EnergyPJ      float64 `json:"energy_pj"`
	SLAViolated   bool    `json:"sla_violated"`

	Err string `json:"error,omitempty"`

	// Segments holds the per-segment placements of a fused request's
	// merged record, in segment order: a fleet dispatcher fills it from
	// the segments' own records (an engine record, one admission, has
	// none). The request-level placement fields summarize them:
	// Instance and StartCycle come from the first segment, FinishCycle
	// from the last, BusyCycles and EnergyPJ are sums.
	Segments []SegmentRecord `json:"segments,omitempty"`
}

// SegmentRecord is one segment's placement within a fused request.
type SegmentRecord struct {
	Index    int    `json:"index"`
	Model    string `json:"model"` // the sliced segment model, e.g. "unet[0:5]"
	Instance int    `json:"instance"`

	// Replica is the fleet replica that ran the segment.
	Replica int `json:"replica"`

	StartCycle  int64   `json:"start_cycle"`
	FinishCycle int64   `json:"finish_cycle"`
	BusyCycles  int64   `json:"busy_cycles"`
	EnergyPJ    float64 `json:"energy_pj"`

	Err string `json:"error,omitempty"`
}

// Ticket tracks an accepted submission.
type Ticket struct {
	ID int64
	// rec is the request's record; the engine finishes every write to
	// it before closing done, so after done the ticket reads it
	// without locks. Holding the record here (instead of re-looking it
	// up in the engine's table) keeps Wait immune to the MaxRecords
	// eviction FIFO: under load a record can be evicted before its
	// waiter wakes.
	rec  *Record
	done chan struct{}
}

// Done is closed when the request has been scheduled (or failed).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the request completes or ctx is cancelled, and
// returns the final record.
func (t *Ticket) Wait(ctx context.Context) (Record, error) {
	select {
	case <-t.done:
		return *t.rec, nil
	case <-ctx.Done():
		return Record{}, ctx.Err()
	}
}

// pending is one queued submission plus its completion signal.
type pending struct {
	rec  *Record
	inst workload.Instance
	done chan struct{}

	// onDone, when set, receives the final record after finalization
	// (including a StatusLost record on Crash) — the per-request
	// counterpart of Options.OnRequestDone, used by fleet dispatchers
	// to resolve their tickets and detect lost work.
	onDone func(Record)

	// chain links the segments of one multi-segment SubmitChain call;
	// segIndex is this segment's position in it.
	chain    *chainState
	segIndex int

	// untracked marks a segment a dispatcher admitted through
	// SubmitChain: it is scheduled and reported to onDone, but it stays
	// out of the tenant request ledger — the dispatcher counts the
	// request once, on its merged record — and is never preempted
	// (its successor may be routed on the finish cycle it reported).
	untracked bool

	// resume marks a preempted request re-queued for resumption: the
	// scheduling round routes it through Incremental.Resume instead of
	// Extend, and its completion merges with the checkpointed prefix
	// without re-firing any hooks (the original completion already
	// fired them; see Engine.Preempt).
	resume *resumeState
}

// chainState links the segments one SubmitChain call queued together.
// It is created before the pendings become visible and touched only by
// the admitting goroutine afterwards (Admit callers are serialized), so
// it needs no lock of its own.
type chainState struct {
	// placed[k] is segment k's global schedule instance index, -1
	// until admitted — the value segment k+1's Admission.After names.
	placed []int

	// failed marks a broken chain: once any segment fails, every later
	// segment fails fast without touching the scheduler.
	failed bool
}

// errChainBroken fails the remaining segments of a chain whose
// predecessor segment could not be scheduled.
var errChainBroken = errors.New("serve: predecessor segment failed")

// Engine is the online serving engine over one fixed HDA.
type Engine struct {
	opts Options
	// hda is the serving accelerator with its cost memo. It is
	// atomic because Reassign swaps in a re-sliced HDA (and a fresh
	// memo) while lock-free readers (submissions, HDA) hold no engine
	// lock; the pointed-to HDA is immutable.
	hda   atomic.Pointer[servingHDA]
	cache *maestro.Cache
	start time.Time

	// admitMu serializes Admit callers, so scheduling rounds never
	// interleave and every completion hook of a round has fired before
	// the next round pops.
	admitMu sync.Mutex

	// schedMu serializes incremental-schedule access (Admit's Extend
	// vs. snapshot readers).
	schedMu sync.Mutex
	inc     *sched.Incremental // guarded by schedMu

	mu          sync.Mutex
	cond        *sync.Cond
	queues      map[string][]*pending    // guarded by mu
	rr          []string                 // tenant round-robin rotation; guarded by mu
	npending    int                      // guarded by mu
	records     map[int64]*Record        // guarded by mu
	doneFIFO    []int64                  // finished record ids in completion order (eviction); guarded by mu
	modelCounts map[string]int           // guarded by mu
	tenants     map[string]*TenantWindow // guarded by mu
	// rejectedOther counts rejections whose tenant never had an
	// admitted request (no aggregate is created for them — an
	// unauthenticated client cycling junk tenant names must not grow
	// the tenant table).
	rejectedOther int64 // guarded by mu
	nextID        int64 // guarded by mu
	draining      bool  // guarded by mu
	crashed       bool  // guarded by mu
	lost          int64 // requests extracted by Crash (observability); guarded by mu
	// stopped is closed, once, by the Admit that finds a draining
	// engine's queue empty: every accepted request is final. The close
	// happens with mu held, so Admit callers never race on it.
	stopped chan struct{}

	maxFinishCycle int64 // latest committed finish cycle; guarded by mu

	// preemptible tracks finalized-but-future unfused requests (their
	// placements end past the admission floor, so a Preempt can still
	// revoke layers) in admission order; only populated when
	// Options.Elastic is set. Guarded by mu.
	preemptible []*preemptee
	// Elastic counters (see Stats); guarded by mu.
	preemptions, resumptions, reassigns int64
}

// New starts a serving engine over the given cost cache and HDA. A
// live engine owns one driver goroutine, which calls Admit whenever
// submissions are queued and exits once the engine has drained; with
// Options.Manual no goroutine is started and the caller admits
// explicitly (Admit, or Drain at the end).
func New(cache *maestro.Cache, hda *accel.HDA, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	opts.Sched.PostProcess = false
	opts.Sched.Priorities = nil
	scheduler, err := sched.New(cache, opts.Sched)
	if err != nil {
		return nil, err
	}
	if hda == nil {
		return nil, fmt.Errorf("serve: nil HDA")
	}
	inc, err := scheduler.Incremental(hda, "serve:"+hda.Name)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:        opts,
		cache:       cache,
		start:       time.Now(), //herald:nondet live-mode clock anchor; replays pass explicit arrival_cycle
		inc:         inc,
		queues:      make(map[string][]*pending),
		records:     make(map[int64]*Record),
		modelCounts: make(map[string]int),
		tenants:     make(map[string]*TenantWindow),
		stopped:     make(chan struct{}),
	}
	e.hda.Store(newServingHDA(hda))
	e.cond = sync.NewCond(&e.mu)
	if !opts.Manual {
		go e.drive()
	}
	return e, nil
}

// HDA returns the fixed accelerator the engine serves on.
func (e *Engine) HDA() *accel.HDA { return e.hda.Load().hda }

// ClockGHz returns the cycle clock used for second-domain stats.
func (e *Engine) ClockGHz() float64 { return e.opts.ClockGHz }

// NowCycles maps the wall clock onto the engine's cycle clock.
func (e *Engine) NowCycles() int64 {
	//herald:nondet live-mode arrival fallback by design; bit-reproducible replays pass explicit arrival_cycle
	return int64(time.Since(e.start).Seconds() * e.opts.ClockGHz * 1e9)
}

// Submit admits a request to its tenant's queue. It returns a Ticket
// immediately; scheduling happens asynchronously. Submissions are
// rejected when the tenant/model is invalid, the model cannot fit
// the HDA's global buffer, the tenant queue is full, or the engine
// is draining.
func (e *Engine) Submit(req Request) (*Ticket, error) {
	return e.SubmitTracked(req, nil)
}

// SubmitTracked is Submit plus a per-request completion callback:
// onDone (when non-nil) receives the final record exactly once — a
// done/failed record after the scheduling round that finalizes it, or
// a StatusLost record when the engine crashes (Crash) with the request
// still queued. Like Options.OnRequestDone it runs on the goroutine
// running Admit (or the Crash caller's) outside the engine's locks and
// must not block. Fleet dispatchers use it to resolve their tickets
// without polling and to collect lost requests for failover.
func (e *Engine) SubmitTracked(req Request, onDone func(Record)) (*Ticket, error) {
	if req.Tenant == "" {
		return nil, errNoTenant
	}
	model, err := dnn.ByName(req.Model)
	if err != nil {
		e.countRejected(req.Tenant)
		return nil, fmt.Errorf("serve: %w", err)
	}
	if _, err := e.Estimate(model); err != nil {
		e.countRejected(req.Tenant)
		return nil, err
	}
	arrival := e.arrival(req)

	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.acceptLocked(req.Tenant, 1); err != nil {
		return nil, err
	}
	t := e.enqueueLocked(req, model, arrival, onDone, nil, 0, false)
	e.cond.Signal()
	return t, nil
}

// SubmitChain admits the segments of one request a fleet dispatcher
// decomposed, as one precedence chain: segs are caller-resolved
// segment models (sliced segment models are not in the zoo), and the
// request's Model field is ignored. The segments are queued
// consecutively on the tenant's queue under one lock hold, so FIFO
// pops admit a predecessor no later than its successor, and each
// segment past the first carries an Admission.After on its
// predecessor. The call is all-or-nothing: a tenant queue without room
// for every segment rejects the whole chain. Each segment is scheduled
// and its own record delivered to onDone like a tracked request's —
// segments behind a failed one fail fast, and queued segments are
// reported StatusLost on Crash — but segments are not tenant requests
// here: the tenant counters and latency window leave them to the
// dispatcher, which counts the whole request once, and Preempt never
// revokes them. It returns one ticket per segment, in chain order.
func (e *Engine) SubmitChain(req Request, segs []*dnn.Model, onDone func(Record)) ([]*Ticket, error) {
	if req.Tenant == "" {
		return nil, errNoTenant
	}
	if len(segs) == 0 {
		e.countRejected(req.Tenant)
		return nil, fmt.Errorf("serve: empty chain")
	}
	for _, m := range segs {
		if m == nil || m.NumLayers() == 0 {
			e.countRejected(req.Tenant)
			return nil, fmt.Errorf("serve: nil or empty segment model")
		}
		if _, err := e.Estimate(m); err != nil {
			e.countRejected(req.Tenant)
			return nil, err
		}
	}
	arrival := e.arrival(req)

	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.acceptLocked(req.Tenant, len(segs)); err != nil {
		return nil, err
	}
	var ch *chainState
	if len(segs) > 1 {
		ch = &chainState{placed: make([]int, len(segs))}
		for i := range ch.placed {
			ch.placed[i] = -1
		}
	}
	tickets := make([]*Ticket, len(segs))
	for i, m := range segs {
		tickets[i] = e.enqueueLocked(req, m, arrival, onDone, ch, i, true)
	}
	e.cond.Signal()
	return tickets, nil
}

// errNoTenant rejects a submission without a tenant.
var errNoTenant = errors.New("serve: request needs a tenant")

// arrival resolves a request's arrival cycle: its own, or "now" on the
// wall-clock-mapped cycle clock when negative.
func (e *Engine) arrival(req Request) int64 {
	if req.ArrivalCycle < 0 {
		return e.NowCycles()
	}
	return req.ArrivalCycle
}

// acceptLocked is admission control for n queue entries of one
// tenant: a draining engine or a tenant queue without room for all n
// rejects them (and counts the rejection). e.mu held.
func (e *Engine) acceptLocked(tenant string, n int) error {
	if e.draining {
		e.rejectLocked(tenant)
		return ErrDraining
	}
	if q := len(e.queues[tenant]); q+n > e.opts.MaxQueue {
		e.rejectLocked(tenant)
		return fmt.Errorf("%w: tenant %q has %d pending", ErrQueueFull, tenant, q)
	}
	return nil
}

// enqueueLocked appends one admission to its tenant's queue: a tracked
// request, counted in the tenant ledger, or an untracked segment
// segIndex of a chain (ch is nil for a one-segment chain). e.mu held.
func (e *Engine) enqueueLocked(req Request, model *dnn.Model, arrival int64, onDone func(Record), ch *chainState, segIndex int, untracked bool) *Ticket {
	e.nextID++
	if !untracked {
		e.agg(req.Tenant).Submitted++
	}
	e.modelCounts[model.Name]++
	rec := &Record{
		ID:           e.nextID,
		Tenant:       req.Tenant,
		Model:        model.Name,
		Priority:     req.Priority,
		Status:       StatusQueued,
		ArrivalCycle: arrival,
		SLACycles:    req.SLACycles,
	}
	p := &pending{
		rec: rec,
		// Batch is the 1-based per-model index across the whole
		// engine (the committed schedule is one workload), so trace
		// names like "unet#3" stay unique.
		inst:      workload.Instance{Model: model, Batch: e.modelCounts[model.Name], ArrivalCycle: arrival},
		done:      make(chan struct{}),
		onDone:    onDone,
		chain:     ch,
		segIndex:  segIndex,
		untracked: untracked,
	}
	e.records[rec.ID] = rec
	if len(e.queues[req.Tenant]) == 0 {
		e.rr = append(e.rr, req.Tenant)
	}
	e.queues[req.Tenant] = append(e.queues[req.Tenant], p)
	e.npending++
	return &Ticket{ID: rec.ID, rec: rec, done: p.done}
}

// servingHDA is an engine's accelerator together with its per-model
// cost memo. Reassign replaces the whole value, so a memoized answer is
// only ever served for the HDA it was computed on, and the memo never
// outgrows one HDA's model set.
type servingHDA struct {
	hda *accel.HDA
	mu  sync.Mutex
	est map[*dnn.Model]estimate // guarded by mu
}

// estimate is one model's memoized Estimate.
type estimate struct {
	cycles int64
	err    error
}

func newServingHDA(h *accel.HDA) *servingHDA {
	return &servingHDA{hda: h, est: make(map[*dnn.Model]estimate)}
}

// Estimate returns the model's best-case busy cycles on the engine's
// current HDA — the ChainCycles of sched.FloorOf, every layer on its
// cheapest sub-accelerator — and the error Submit rejects the model
// with when the floor finds a layer whose buffer occupancy exceeds the
// global buffer on every sub-accelerator: admitting one would deadlock
// the assignment loop (the incremental scheduler rolls back, but the
// request can never be served on this HDA). Both come from one floor,
// memoized per model and HDA, so steady state is one map hit per
// call. The cycles are an integer sum over layers, so a chain's
// segment estimates add up exactly to the whole model's; a fleet
// dispatcher sums them into its cost-aware ETA.
func (e *Engine) Estimate(model *dnn.Model) (int64, error) {
	s := e.hda.Load()
	s.mu.Lock()
	v, ok := s.est[model]
	s.mu.Unlock()
	if ok {
		return v.cycles, v.err
	}
	fl := sched.FloorOf(e.cache, s.hda, model)
	v = estimate{cycles: fl.ChainCycles}
	if fl.Unfit >= 0 {
		v.err = fmt.Errorf("serve: %s layer %d cannot fit the %d-byte global buffer on any sub-accelerator",
			model.Name, fl.Unfit, s.hda.Class.GlobalBufBytes)
	}
	s.mu.Lock()
	s.est[model] = v
	s.mu.Unlock()
	return v.cycles, v.err
}

func (e *Engine) countRejected(tenant string) {
	e.mu.Lock()
	e.rejectLocked(tenant)
	e.mu.Unlock()
}

// rejectLocked accounts a rejection without creating tenant state for
// never-admitted tenant names. e.mu held.
func (e *Engine) rejectLocked(tenant string) {
	if ta := e.tenants[tenant]; ta != nil {
		ta.Rejected++
		return
	}
	e.rejectedOther++
}

// agg returns (creating if needed) a tenant's ledger. e.mu held.
func (e *Engine) agg(tenant string) *TenantWindow {
	ta := e.tenants[tenant]
	if ta == nil {
		ta = &TenantWindow{Tenant: tenant}
		e.tenants[tenant] = ta
	}
	return ta
}

// drive is a live engine's driver goroutine: wait for queued work (or
// a drain), admit it, and exit once Admit has found the drained engine
// empty.
func (e *Engine) drive() {
	for {
		e.mu.Lock()
		for e.npending == 0 && !e.draining {
			e.cond.Wait()
		}
		e.mu.Unlock()
		e.Admit()
		select {
		case <-e.stopped:
			return
		default:
		}
	}
}

// Admit runs scheduling rounds on the caller's goroutine until the
// queue is empty: each round pops a fair round-robin batch, extends
// the committed schedule and fires the batch's completion hooks.
// Concurrent callers are serialized. On return every request queued
// before the call has a committed placement (or failed) and every
// completion hook has fired — including hooks that queued more work,
// which is admitted too. Once an Admit finds a quiesced engine empty,
// Done closes.
func (e *Engine) Admit() {
	e.admitMu.Lock()
	defer e.admitMu.Unlock()
	for {
		e.mu.Lock()
		batch := e.popBatchLocked()
		if len(batch) == 0 {
			if e.draining {
				select {
				case <-e.stopped:
				default:
					close(e.stopped)
				}
			}
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
		e.admit(batch)
	}
}

// popBatchLocked removes up to MaxBatch pending requests, visiting
// tenants round-robin, one request per tenant per pass. e.mu held.
func (e *Engine) popBatchLocked() []*pending {
	var batch []*pending
	for len(batch) < e.opts.MaxBatch && e.npending > 0 {
		took := false
		i := 0
		for i < len(e.rr) && len(batch) < e.opts.MaxBatch {
			t := e.rr[i]
			q := e.queues[t]
			if len(q) == 0 {
				e.rr = append(e.rr[:i], e.rr[i+1:]...)
				continue
			}
			batch = append(batch, q[0])
			e.queues[t] = q[1:]
			e.npending--
			took = true
			if len(e.queues[t]) == 0 {
				e.rr = append(e.rr[:i], e.rr[i+1:]...)
				continue
			}
			i++
		}
		if !took {
			break
		}
		// Rotate from where the pass actually stopped, so the tenant
		// that was next in line leads the following batch. When the
		// batch fills mid-pass (i < len(rr)) the unserved tenants move
		// to the front — rotating by a fixed 1 here would restart every
		// saturated batch at rr[0] and starve the tail of the rotation.
		// After a complete pass everyone was served once; advance the
		// leader by one so no tenant is systematically first.
		switch {
		case i < len(e.rr):
			if i > 0 {
				e.rr = append(e.rr[i:], e.rr[:i]...)
			}
		case len(e.rr) > 1:
			e.rr = append(e.rr[1:], e.rr[0])
		}
	}
	return batch
}

// admit extends the incremental schedule with one popped batch and
// publishes each request's placement.
func (e *Engine) admit(batch []*pending) {
	if len(batch) == 0 {
		return
	}
	e.schedMu.Lock()
	placements, errs := e.extendElastic(batch)
	// floor snapshots the admission floor the batch was placed against;
	// preemptible tracking below uses it to prune entries whose
	// placements already fully precede it (nothing left to revoke).
	floor := e.inc.Floor()
	e.schedMu.Unlock()

	// finalized collects the records that reached a terminal status in
	// this round for the completion hooks outside the locks.
	var finalized []doneEvent
	e.mu.Lock()
	for i, p := range batch {
		if p.resume != nil {
			e.admitResumeLocked(p, placements[i], errs[i], floor)
			continue
		}
		rec := p.rec
		if pl := placements[i]; errs[i] == nil {
			rec.Status = StatusDone
			rec.Instance = pl.Instance
			rec.StartCycle = pl.StartCycle
			rec.FinishCycle = pl.FinishCycle
			rec.BusyCycles = pl.BusyCycles
			rec.EnergyPJ = pl.EnergyPJ
			// Latency is measured from the *requested* arrival, so floor
			// clamping shows up as queueing delay, as it should.
			rec.LatencyCycles = pl.FinishCycle - rec.ArrivalCycle
			rec.QueueCycles = pl.StartCycle - rec.ArrivalCycle
			rec.SLAViolated = rec.SLACycles > 0 && rec.LatencyCycles > rec.SLACycles
			if pl.FinishCycle > e.maxFinishCycle {
				e.maxFinishCycle = pl.FinishCycle
			}
			if e.opts.Elastic && !p.untracked {
				e.trackPreemptibleLocked(p, pl, floor)
			}
		} else {
			rec.Status = StatusFailed
			rec.Err = errs[i].Error()
		}
		if !p.untracked {
			e.agg(rec.Tenant).AddRecord(rec)
		}
		e.finishLocked(rec.ID)
		close(p.done)
		finalized = append(finalized, doneEvent{rec, p.onDone})
	}
	e.mu.Unlock()

	e.fireHooks(finalized)
}

// doneEvent pairs a finalized record with its per-request callback.
type doneEvent struct {
	rec    *Record
	onDone func(Record)
}

// fireHooks delivers finalized records to the global OnRequestDone
// hook and each request's onDone callback, outside the engine's locks.
func (e *Engine) fireHooks(events []doneEvent) {
	hook := e.opts.OnRequestDone
	for _, ev := range events {
		if hook != nil {
			hook(*ev.rec)
		}
		if ev.onDone != nil {
			ev.onDone(*ev.rec)
		}
	}
}

// extendBatch admits the whole batch to the incremental schedule in
// one Extend, and returns per-request placements/errors. A batched
// Extend fails as a unit (it rolls back every admission), so on error
// the admissions are retried one by one: only the truly infeasible
// requests fail, instead of one bad admission poisoning up to
// MaxBatch-1 innocent tenants' requests. Chain segments carry an
// Admission.After on their predecessor's placed instance (or its
// in-batch admission slot — tenant FIFO pops guarantee the
// predecessor appears earlier in the batch); segments whose chain
// already failed are failed fast without touching the scheduler.
// e.schedMu held.
func (e *Engine) extendBatch(batch []*pending) ([]sched.Placement, []error) {
	placements := make([]sched.Placement, len(batch))
	errs := make([]error, len(batch))

	// base is the global instance index the batch's first admission
	// will receive — what in-batch After references are built from.
	base := e.inc.NumInstances()
	live := make([]int, 0, len(batch)) // batch indices actually admitted
	adms := make([]sched.Admission, 0, len(batch))
	for i, p := range batch {
		if p.chain != nil && p.chain.failed {
			errs[i] = errChainBroken
			continue
		}
		a := p.admission(e.clampFloor(p.inst))
		if p.chain != nil && p.segIndex > 0 {
			if gi := p.chain.placed[p.segIndex-1]; gi >= 0 {
				a.After = gi + 1
			} else {
				found := false
				for k, j := range live {
					q := batch[j]
					if q.chain == p.chain && q.segIndex == p.segIndex-1 {
						a.After = base + k + 1
						found = true
						break
					}
				}
				if !found {
					// The predecessor is neither placed nor in this batch:
					// it must have failed admission. Break the chain.
					p.chain.failed = true
					errs[i] = errChainBroken
					continue
				}
			}
		}
		live = append(live, i)
		adms = append(adms, a)
	}
	if len(adms) == 0 {
		return placements, errs
	}

	ps, err := e.inc.Extend(adms)
	if err == nil {
		for k, i := range live {
			placements[i] = ps[k]
			if p := batch[i]; p.chain != nil {
				p.chain.placed[p.segIndex] = ps[k].Instance
			}
		}
		return placements, errs
	}
	if len(adms) == 1 {
		i := live[0]
		errs[i] = err
		e.breakChain(batch[i])
		return placements, errs
	}

	// One-by-one retry, in batch order so a chain's predecessor is
	// either placed (After resolves through placed) or failed (the
	// chain breaks) before its successor is attempted.
	for _, i := range live {
		p := batch[i]
		if p.chain != nil && p.chain.failed {
			errs[i] = errChainBroken
			continue
		}
		// Re-clamp: a successful earlier retry may have advanced the
		// admission floor past this arrival.
		a := p.admission(e.clampFloor(p.inst))
		if p.chain != nil && p.segIndex > 0 {
			a.After = p.chain.placed[p.segIndex-1] + 1 // placed, or the chain would be failed
		}
		one, err := e.inc.Extend([]sched.Admission{a})
		if err != nil {
			errs[i] = err
			e.breakChain(p)
			continue
		}
		placements[i] = one[0]
		if p.chain != nil {
			p.chain.placed[p.segIndex] = one[0].Instance
		}
	}
	return placements, errs
}

// admission is the pending's schedule admission for inst (its
// floor-clamped instance). Every chain segment but the last is marked
// Continues: its successor may be admitted by a later Extend (a
// MaxBatch split or a one-by-one retry), so the scheduler must keep it
// live until then.
func (p *pending) admission(inst workload.Instance) sched.Admission {
	return sched.Admission{
		Instance:  inst,
		Priority:  p.rec.Priority,
		Continues: p.chain != nil && p.segIndex+1 < len(p.chain.placed),
	}
}

// breakChain fails the chain of a segment that could not be placed and
// ends it at its placed predecessor, whose successor now never comes.
// e.schedMu held.
func (e *Engine) breakChain(p *pending) {
	if p.chain == nil {
		return
	}
	p.chain.failed = true
	if k := p.segIndex; k > 0 && p.chain.placed[k-1] >= 0 {
		e.inc.EndChain(p.chain.placed[k-1])
	}
}

// clampFloor lifts an instance's arrival to the incremental schedule's
// admission floor: the committed schedule may have moved past it, and
// online engines cannot place work in the past. e.schedMu held.
func (e *Engine) clampFloor(inst workload.Instance) workload.Instance {
	if floor := e.inc.Floor(); inst.ArrivalCycle < floor {
		inst.ArrivalCycle = floor
	}
	return inst
}

// finishLocked appends a finished record to the eviction FIFO and
// evicts the oldest finished records beyond MaxRecords. e.mu held.
func (e *Engine) finishLocked(id int64) {
	e.doneFIFO = append(e.doneFIFO, id)
	for len(e.doneFIFO) > e.opts.MaxRecords {
		delete(e.records, e.doneFIFO[0])
		e.doneFIFO = e.doneFIFO[1:]
	}
}

// Load is a point-in-time load probe, cheap enough for a dispatcher
// to read on every routing decision.
type Load struct {
	// Pending counts accepted submissions not yet admitted to the
	// schedule.
	Pending int `json:"pending"`
	// BacklogCycles is the committed schedule's horizon: the latest
	// finish cycle of any admitted request. Work dispatched to this
	// engine completes no earlier.
	BacklogCycles int64 `json:"backlog_cycles"`
	// Draining reports whether the engine still accepts work.
	Draining bool `json:"draining"`
}

// Load returns the engine's current load probe.
func (e *Engine) Load() Load {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Load{Pending: e.npending, BacklogCycles: e.maxFinishCycle, Draining: e.draining}
}

// Lookup returns a copy of a request's record.
func (e *Engine) Lookup(id int64) (Record, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rec, ok := e.records[id]
	if !ok {
		return Record{}, false
	}
	return *rec, true
}

// Snapshot materializes the committed schedule: the scheduler's live
// window plus the totals of the retired work behind the admission
// floor (see sched.Incremental), suitable for validation, Gantt
// rendering and export. Instance indices in records stay global.
func (e *Engine) Snapshot() *sched.Schedule {
	e.schedMu.Lock()
	defer e.schedMu.Unlock()
	return e.inc.Snapshot()
}

// Quiesce stops admissions without waiting: every later Submit fails
// with ErrDraining, while admission continues until the
// already-accepted queues are empty. It is idempotent. Use Done to
// observe completion; Drain is Quiesce plus the wait. A fleet
// migration quiesces a whole retiring generation at once before
// joining on the individual engines.
func (e *Engine) Quiesce() {
	e.mu.Lock()
	if !e.draining {
		e.draining = true
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// Done is closed once a quiesced (or draining, or crashed) engine has
// finished every accepted request and the last Admit has returned its
// hooks. It never closes before Quiesce, Drain or Crash is called; on
// a Manual engine it closes at the first Admit (or Drain) after that.
func (e *Engine) Done() <-chan struct{} { return e.stopped }

// Crash simulates an abrupt replica failure: admissions stop (like
// Quiesce), but instead of serving the accepted queues, every queued
// request is extracted — finalized as StatusLost, erased from the
// engine's accounting (its tenant's submitted count rolls back, so a
// crashed engine's statistics cover only requests it actually
// terminated), its waiters released, and its completion hooks fired
// with the lost record. A fleet dispatcher re-admits lost requests on
// surviving replicas, so each is counted exactly once fleet-wide.
// Chain segments are extracted like any request: the queued suffix of
// a chain reports StatusLost segment by segment.
//
// An Admit in progress finishes the batch it is currently admitting
// (those requests complete normally — they made it under the wire), so
// a chain's lost segments can be reported before its earlier segments'
// completions; wait on Done to observe that every completion hook has
// fired. Extraction order is the tenant round-robin rotation then FIFO
// within each tenant, so a fleet's failover re-dispatch order is
// deterministic. Idempotent; returns the number of lost requests (0 on
// repeat calls).
func (e *Engine) Crash() int {
	e.mu.Lock()
	if e.crashed {
		e.mu.Unlock()
		return 0
	}
	e.crashed = true
	e.draining = true

	var events []doneEvent
	requests := 0
	for _, tenant := range e.rr {
		for _, p := range e.queues[tenant] {
			requests++
			rec := p.rec
			if !p.untracked {
				e.agg(rec.Tenant).Submitted--
			}
			delete(e.records, rec.ID)
			rec.Status = StatusLost
			rec.Err = "replica crashed"
			close(p.done)
			// A preempted request awaiting resumption dies with the
			// crashed schedule: its prefix already completed (and was
			// reported), the suspended suffix is unrecoverable. It fires
			// no hooks — the original completion already fired them, and
			// a second delivery would double-count at the dispatcher.
			if p.resume == nil {
				events = append(events, doneEvent{rec, p.onDone})
			}
		}
		delete(e.queues, tenant)
	}
	e.rr = e.rr[:0]
	e.npending = 0
	e.lost += int64(requests)
	e.cond.Broadcast()
	e.mu.Unlock()

	e.fireHooks(events)
	return requests
}

// Crashed reports whether Crash has been called.
func (e *Engine) Crashed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.crashed
}

// Drain stops admissions, waits for the queues to empty (or ctx), and
// returns the final statistics. A Manual engine admits its queue on
// the caller's goroutine first; a live engine's driver admits it, so
// ctx bounds the wait even when the backlog is long.
func (e *Engine) Drain(ctx context.Context) (Stats, error) {
	e.Quiesce()
	if e.opts.Manual {
		e.Admit()
	}
	select {
	case <-e.stopped:
		return e.Stats(), nil
	case <-ctx.Done():
		return e.Stats(), ctx.Err()
	}
}
