package serve

import (
	"slices"
	"sort"
	"time"

	"repro/internal/sched"
)

// TenantStats summarizes one tenant's served traffic.
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Submitted int64  `json:"submitted"`
	Completed int64  `json:"completed"`
	Failed    int64  `json:"failed"`
	Rejected  int64  `json:"rejected"`

	// Shed counts arrivals turned away by fleet-level overload
	// shedding (admission control ahead of the engines; engines never
	// see shed requests, so only fleet aggregation fills this).
	Shed int64 `json:"shed"`

	SLATracked    int64 `json:"sla_tracked"`
	SLAViolations int64 `json:"sla_violations"`

	// Latency percentiles over the most recent completions (sliding
	// window), in cycles (arrival to completion: queueing +
	// execution); means are all-time.
	MeanLatencyCycles int64 `json:"mean_latency_cycles"`
	P50LatencyCycles  int64 `json:"p50_latency_cycles"`
	P95LatencyCycles  int64 `json:"p95_latency_cycles"`
	P99LatencyCycles  int64 `json:"p99_latency_cycles"`
	MeanQueueCycles   int64 `json:"mean_queue_cycles"`

	EnergyPJ float64 `json:"energy_pj"`
}

// Stats is an aggregate engine snapshot.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	ClockGHz      float64 `json:"clock_ghz"`

	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Rejected  int64 `json:"rejected"`
	Pending   int64 `json:"pending"`

	// Lost counts requests extracted by Crash. They are erased from
	// Submitted (and the per-tenant counters) when extracted, so
	// conservation (Submitted == Completed + Failed + Pending) holds
	// on the crashed engine and a failover re-admission elsewhere
	// counts each lost request exactly once; Lost only records how
	// much work the crash orphaned.
	Lost int64 `json:"lost"`

	// Crashed marks an engine stopped by Crash.
	Crashed bool `json:"crashed"`

	// MakespanCycles is the committed schedule's horizon; simulated
	// throughput is completions per simulated second over it.
	MakespanCycles   int64   `json:"makespan_cycles"`
	SimThroughputRPS float64 `json:"sim_throughput_rps"`

	// Utilization is each sub-accelerator's busy fraction of the
	// committed makespan.
	Utilization []float64 `json:"utilization"`

	// CostCacheEntries counts memoized cost-model results shared
	// across requests.
	CostCacheEntries int `json:"cost_cache_entries"`

	// Elastic counters (Options.Elastic): Preemptions counts revoked
	// placements, Resumes successful re-schedules of preempted work,
	// PEReassigns sub-accelerator slice re-sizings. None carries
	// omitempty — 0 is a meaningful reading (elastic on, never
	// triggered) distinct from the field being absent.
	Preemptions int64 `json:"preemptions"`
	Resumes     int64 `json:"resumes"`
	PEReassigns int64 `json:"pe_reassigns"`

	Tenants []TenantStats `json:"tenants"`
}

// SegmentStats counts fused-request (segment pipeline) activity: the
// fleet's fused ledger (internal/fleet), folded from each fused
// request's merged record when it resolves. A fused request is one
// submission decomposed into plan segments; request-granularity
// conservation (Submitted == Completed + Failed + Rejected after a
// drain) holds at the request level, and segment counters conserve
// independently (Segments == SegmentsCompleted + SegmentsFailed after
// a drain). No field carries omitempty: zero is a meaningful reading
// on every counter.
type SegmentStats struct {
	// FusedRequests counts accepted submissions that were decomposed
	// into a multi-segment chain.
	FusedRequests int64 `json:"fused_requests"`
	// FusedCompleted / FusedFailed split finished fused requests.
	// FusedLost stays 0: a segment a crash extracts resumes its chain
	// on a survivor, so no chain ends lost (the field keeps the digest
	// format).
	FusedCompleted int64 `json:"fused_completed"`
	FusedFailed    int64 `json:"fused_failed"`
	FusedLost      int64 `json:"fused_lost"`

	// Segments counts the plan segments of accepted fused requests;
	// completed/failed split the finished ones, each segment counted
	// once however often a crash moved it. SegmentsLost stays 0, like
	// FusedLost. Conservation after a drain: Segments ==
	// SegmentsCompleted + SegmentsFailed + SegmentsLost.
	Segments          int64 `json:"segments"`
	SegmentsCompleted int64 `json:"segments_completed"`
	SegmentsFailed    int64 `json:"segments_failed"`
	SegmentsLost      int64 `json:"segments_lost"`

	// HandoffBubbleCycles sums inter-segment gaps (successor start
	// minus predecessor finish) across completed fused requests: the
	// pipeline's dead time. SegmentSpanCycles sums first-start to
	// last-finish spans, and SegmentBusyCycles the pure execution time
	// inside them — bubble/span is the overlap-loss fraction.
	HandoffBubbleCycles int64 `json:"handoff_bubble_cycles"`
	SegmentSpanCycles   int64 `json:"segment_span_cycles"`
	SegmentBusyCycles   int64 `json:"segment_busy_cycles"`
}

// TenantWindow is one tenant's raw counters plus its latency sample
// window — the pre-percentile form of TenantStats, and the engine's
// own per-tenant ledger. Fleet dispatchers read these from every
// replica and aggregate across engines (merged percentiles cannot be
// computed from per-engine percentiles).
type TenantWindow struct {
	Tenant                                 string
	Submitted, Completed, Failed, Rejected int64
	SLATracked, SLAViolations              int64
	LatencySum, QueueSum                   int64 // all-time, cycles
	EnergyPJ                               float64
	// Latencies is the sample window: AddRecord keeps the most recent
	// maxLatencySamples completions as a ring whose next write
	// position is next.
	Latencies []int64
	next      int
}

// Add merges another window's counters into w and appends its latency
// samples — the single merge rule every aggregator (fleet Stats
// across replicas, retired-generation history folding) must share, so
// a new TenantWindow field only ever needs one merge site.
func (w *TenantWindow) Add(o *TenantWindow) {
	w.Submitted += o.Submitted
	w.Completed += o.Completed
	w.Failed += o.Failed
	w.Rejected += o.Rejected
	w.SLATracked += o.SLATracked
	w.SLAViolations += o.SLAViolations
	w.LatencySum += o.LatencySum
	w.QueueSum += o.QueueSum
	w.EnergyPJ += o.EnergyPJ
	w.Latencies = append(w.Latencies, o.Latencies...)
}

// AddRecord folds one request's final record into the window: a done
// record into the completion counters, the SLA tally and the latency
// window, any other status into Failed. Submitted is counted at
// acceptance, by the caller.
func (w *TenantWindow) AddRecord(rec *Record) {
	if rec.Status != StatusDone {
		w.Failed++
		return
	}
	w.Completed++
	w.LatencySum += rec.LatencyCycles
	w.QueueSum += rec.QueueCycles
	w.EnergyPJ += rec.EnergyPJ
	if rec.SLACycles > 0 {
		w.SLATracked++
		if rec.SLAViolated {
			w.SLAViolations++
		}
	}
	if len(w.Latencies) < maxLatencySamples {
		w.Latencies = append(w.Latencies, rec.LatencyCycles)
		return
	}
	w.Latencies[w.next] = rec.LatencyCycles
	w.next = (w.next + 1) % maxLatencySamples
}

// dropRecord reverses AddRecord for a done record whose completion was
// revoked (a preempted placement is no longer a served latency). The
// most recent occurrence of its latency leaves the window, which is
// rebuilt in chronological order; if the sample already slid out,
// only the counters move.
func (w *TenantWindow) dropRecord(rec *Record) {
	w.Completed--
	w.LatencySum -= rec.LatencyCycles
	w.QueueSum -= rec.QueueCycles
	w.EnergyPJ -= rec.EnergyPJ
	if rec.SLACycles > 0 {
		w.SLATracked--
		if rec.SLAViolated {
			w.SLAViolations--
		}
	}
	chrono := make([]int64, 0, len(w.Latencies))
	chrono = append(chrono, w.Latencies[w.next:]...)
	chrono = append(chrono, w.Latencies[:w.next]...)
	for i := len(chrono) - 1; i >= 0; i-- {
		if chrono[i] == rec.LatencyCycles {
			chrono = append(chrono[:i], chrono[i+1:]...)
			break
		}
	}
	// next 0 keeps ring semantics: position 0 now holds the oldest
	// sample, so a still-full window (sample not found) overwrites
	// oldest-first and a shortened one appends.
	w.Latencies = chrono
	w.next = 0
}

// Stats summarizes the window: its counters, means over the all-time
// sums and nearest-rank percentiles over the sample window. It sorts
// Latencies in place, so call it on a window the caller owns (the
// copies TenantWindows returns, or a fleet's merged aggregate).
func (w *TenantWindow) Stats() TenantStats {
	ts := TenantStats{
		Tenant:        w.Tenant,
		Submitted:     w.Submitted,
		Completed:     w.Completed,
		Failed:        w.Failed,
		Rejected:      w.Rejected,
		SLATracked:    w.SLATracked,
		SLAViolations: w.SLAViolations,
		EnergyPJ:      w.EnergyPJ,
	}
	if w.Completed > 0 {
		slices.Sort(w.Latencies)
		ts.MeanLatencyCycles = w.LatencySum / w.Completed
		ts.P50LatencyCycles = Percentile(w.Latencies, 50)
		ts.P95LatencyCycles = Percentile(w.Latencies, 95)
		ts.P99LatencyCycles = Percentile(w.Latencies, 99)
		ts.MeanQueueCycles = w.QueueSum / w.Completed
	}
	return ts
}

// TenantWindows returns a copy of every tenant's raw statistics
// window, sorted by tenant name.
func (e *Engine) TenantWindows() []TenantWindow {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tenantWindowsLocked()
}

// tenantWindowsLocked is TenantWindows with e.mu held.
func (e *Engine) tenantWindowsLocked() []TenantWindow {
	names := make([]string, 0, len(e.tenants))
	for name := range e.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TenantWindow, 0, len(names))
	for _, name := range names {
		w := *e.tenants[name]
		w.Latencies = append([]int64(nil), w.Latencies...)
		out = append(out, w)
	}
	return out
}

// Stats returns the engine's current aggregate statistics.
func (e *Engine) Stats() Stats {
	// The makespan and per-sub busy cycles are all Stats needs of the
	// committed schedule; a Snapshot would copy every assignment.
	e.schedMu.Lock()
	committed := sched.Schedule{MakespanCycles: e.inc.MakespanCycles(), SubBusyCycles: e.inc.SubBusyCycles()}
	e.schedMu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()

	st := Stats{
		UptimeSeconds:    time.Since(e.start).Seconds(), //herald:nondet wall-clock uptime is reporting-only
		ClockGHz:         e.opts.ClockGHz,
		Lost:             e.lost,
		Crashed:          e.crashed,
		Pending:          int64(e.npending),
		MakespanCycles:   committed.MakespanCycles,
		Utilization:      committed.Utilization(),
		CostCacheEntries: e.cache.Len(),
		Preemptions:      e.preemptions,
		Resumes:          e.resumptions,
		PEReassigns:      e.reassigns,
	}
	for _, w := range e.tenantWindowsLocked() {
		st.Submitted += w.Submitted
		st.Completed += w.Completed
		st.Failed += w.Failed
		st.Rejected += w.Rejected
		st.Tenants = append(st.Tenants, w.Stats())
	}
	// Rejections from tenants that never had an admitted request.
	st.Rejected += e.rejectedOther
	if st.MakespanCycles > 0 {
		simSeconds := float64(st.MakespanCycles) / (e.opts.ClockGHz * 1e9)
		st.SimThroughputRPS = float64(st.Completed) / simSeconds
	}
	return st
}

// Percentile returns the nearest-rank percentile of sorted samples
// (0 for an empty slice). Exported so fleet-level aggregation computes
// cross-replica percentiles with the identical rank convention.
func Percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100 // ceil(p*n/100), nearest-rank
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}
