package serve

import (
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

	// Segments reports fused-serving (segment pipeline) counters.
	Segments SegmentStats `json:"segments"`

	Tenants []TenantStats `json:"tenants"`
}

// SegmentStats counts fused-request (segment pipeline) activity. A
// fused request is one submission decomposed into plan segments;
// request-granularity conservation (Submitted == Completed + Failed +
// Rejected after a drain) holds at the request level, and segment
// counters conserve independently (Segments == SegmentsCompleted +
// SegmentsFailed after a drain). No field carries omitempty: zero is
// a meaningful reading on every counter.
type SegmentStats struct {
	// FusedRequests counts accepted submissions that were decomposed
	// into a multi-segment chain.
	FusedRequests int64 `json:"fused_requests"`
	// FusedCompleted / FusedFailed split finished fused requests;
	// FusedLost counts chains orphaned by an engine Crash (their
	// fleet-level retry, if any, is a fresh chain elsewhere).
	FusedCompleted int64 `json:"fused_completed"`
	FusedFailed    int64 `json:"fused_failed"`
	FusedLost      int64 `json:"fused_lost"`

	// Segments counts admitted chain segments; completed/failed/lost
	// split the finished ones (lost = extracted by Crash before
	// scheduling). Conservation after a drain: Segments ==
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

// Add merges another engine's segment counters — the fleet-side merge
// rule, mirroring TenantWindow.Add.
func (s *SegmentStats) Add(o SegmentStats) {
	s.FusedRequests += o.FusedRequests
	s.FusedCompleted += o.FusedCompleted
	s.FusedFailed += o.FusedFailed
	s.FusedLost += o.FusedLost
	s.Segments += o.Segments
	s.SegmentsCompleted += o.SegmentsCompleted
	s.SegmentsFailed += o.SegmentsFailed
	s.SegmentsLost += o.SegmentsLost
	s.HandoffBubbleCycles += o.HandoffBubbleCycles
	s.SegmentSpanCycles += o.SegmentSpanCycles
	s.SegmentBusyCycles += o.SegmentBusyCycles
}

// TenantWindow is one tenant's raw counters plus its latency sample
// window — the pre-percentile form of TenantStats. Fleet dispatchers
// read these from every replica and aggregate across engines (merged
// percentiles cannot be computed from per-engine percentiles).
type TenantWindow struct {
	Tenant                                 string
	Submitted, Completed, Failed, Rejected int64
	SLATracked, SLAViolations              int64
	LatencySum, QueueSum                   int64 // all-time, cycles
	EnergyPJ                               float64
	Latencies                              []int64 // copy of the sliding window
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

// TenantWindows returns every tenant's raw statistics window, sorted
// by tenant name.
func (e *Engine) TenantWindows() []TenantWindow {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.tenants))
	for name := range e.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TenantWindow, 0, len(names))
	for _, name := range names {
		ta := e.tenants[name]
		out = append(out, TenantWindow{
			Tenant:        name,
			Submitted:     ta.submitted,
			Completed:     ta.completed,
			Failed:        ta.failed,
			Rejected:      ta.rejected,
			SLATracked:    ta.slaTracked,
			SLAViolations: ta.slaViolations,
			LatencySum:    ta.latSum,
			QueueSum:      ta.queueSum,
			EnergyPJ:      ta.energyPJ,
			Latencies:     append([]int64(nil), ta.latencies...),
		})
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
		Segments:         e.segStats,
	}
	names := make([]string, 0, len(e.tenants))
	for name := range e.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ta := e.tenants[name]
		ts := TenantStats{
			Tenant:        name,
			Submitted:     ta.submitted,
			Completed:     ta.completed,
			Failed:        ta.failed,
			Rejected:      ta.rejected,
			SLATracked:    ta.slaTracked,
			SLAViolations: ta.slaViolations,
			EnergyPJ:      ta.energyPJ,
		}
		if ta.completed > 0 {
			sorted := append([]int64(nil), ta.latencies...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			ts.MeanLatencyCycles = ta.latSum / ta.completed
			ts.P50LatencyCycles = Percentile(sorted, 50)
			ts.P95LatencyCycles = Percentile(sorted, 95)
			ts.P99LatencyCycles = Percentile(sorted, 99)
			ts.MeanQueueCycles = ta.queueSum / ta.completed
		}
		st.Submitted += ta.submitted
		st.Completed += ta.completed
		st.Failed += ta.failed
		st.Rejected += ta.rejected
		st.Tenants = append(st.Tenants, ts)
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
