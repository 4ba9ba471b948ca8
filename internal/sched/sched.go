// Package sched implements Herald's layer execution scheduler
// (§IV-D, Figs. 7–9): dataflow-preference-based assignment of layers
// onto HDA sub-accelerators with load-balancing feedback, depth- or
// breadth-first initial layer ordering, dependence and global-memory
// constraints with deferred execution, and the look-ahead
// post-processing pass that removes idle gaps. A naive greedy
// scheduler (always the locally-best sub-accelerator, no balancing, no
// post-processing) is provided as the baseline of the paper's
// scheduler-efficacy study.
package sched

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/accel"
	"repro/internal/maestro"
	"repro/internal/workload"
)

// Metric selects the cost Herald minimizes (§IV-D: "users can select
// the metric"): per layer when the scheduler ranks sub-accelerators,
// per design point when a dse search picks its Best, and per layer
// range when dse.PlanSegments pins fusion segments. dse.Objective is
// this type.
type Metric int

const (
	// MetricEDP minimizes the energy-delay product (default).
	MetricEDP Metric = iota
	// MetricLatency minimizes latency.
	MetricLatency
	// MetricEnergy minimizes energy.
	MetricEnergy
)

// String names the metric (flag spelling). An out-of-range value
// names EDP, the value Pick falls back to.
func (m Metric) String() string {
	switch m {
	case MetricLatency:
		return "latency"
	case MetricEnergy:
		return "energy"
	}
	return "edp"
}

// Pick returns the one of the three values the metric minimizes; an
// out-of-range metric picks edp. Every choice among the metrics goes
// through here, so each caller only has to say how it measures the
// three.
func (m Metric) Pick(latency, energy, edp float64) float64 {
	switch m {
	case MetricLatency:
		return latency
	case MetricEnergy:
		return energy
	}
	return edp
}

// Layer returns the metric of a layer that takes cycles with footprint
// fp, at a 1 GHz reference clock: latency in cycles, energy in pJ, and
// EDP as Cost.EDP(1.0) computes it, EnergyPJ() * 1e-12 * Seconds(1.0)
// (same operation order, hence bit-equal results).
func (m Metric) Layer(cycles int64, fp *maestro.Footprint) float64 {
	e := fp.Energy.Total()
	return m.Pick(float64(cycles), e, e*1e-12*(float64(cycles)/1e9))
}

// Ordering selects the initial layer ordering heuristic (§IV-D).
type Ordering int

const (
	// BreadthFirst interleaves layer execution across models,
	// maximizing the independent work available to sub-accelerators
	// (default for multi-DNN workloads).
	BreadthFirst Ordering = iota
	// DepthFirst schedules all layers of one model before moving on.
	DepthFirst
)

// String names the ordering heuristic.
func (o Ordering) String() string {
	if o == DepthFirst {
		return "depth-first"
	}
	return "breadth-first"
}

// Options configures the Herald scheduler.
type Options struct {
	Metric   Metric
	Ordering Ordering

	// LoadBalanceFactor (LbF) is the maximum allowed load-unbalancing
	// factor: the largest total busy time across sub-accelerators
	// divided by the smallest (§IV-D). Assignments that would exceed
	// it are diverted to the next-best sub-accelerator; if every
	// alternative violates it, the best fit is used anyway (the
	// feedback loop is a heuristic, not a hard constraint).
	// +Inf disables balancing. Values < 1 are invalid.
	LoadBalanceFactor float64

	// LookAhead is the post-processing search depth of Fig. 9.
	LookAhead int

	// PostProcess enables the Fig. 9 idle-time-elimination pass.
	PostProcess bool

	// Priorities optionally assigns a QoS priority to each workload
	// instance (same indexing as Workload.Instances; higher is more
	// urgent). When ready layers compete, higher-priority instances
	// are served first; equal priorities follow the Ordering
	// heuristic. Nil or all-equal priorities reduce to the paper's
	// behavior. This extends the paper's per-subtask processing-rate
	// modeling (§V-A assigns batch counts per sub-task) with
	// latency-criticality, e.g. hand tracking ahead of classification
	// in an AR/VR frame.
	Priorities []int
}

// DefaultOptions returns Herald's standard configuration: EDP metric,
// breadth-first ordering, load balancing at 1.5, post-processing with
// look-ahead 4.
func DefaultOptions() Options {
	return Options{
		Metric:            MetricEDP,
		Ordering:          BreadthFirst,
		LoadBalanceFactor: 1.5,
		LookAhead:         4,
		PostProcess:       true,
	}
}

// GreedyOptions returns the baseline greedy scheduler of §V-B's
// scheduler-efficacy study: every layer goes to the sub-accelerator
// with the least per-layer EDP, with no load balancing and no
// post-processing.
func GreedyOptions() Options {
	return Options{
		Metric:            MetricEDP,
		Ordering:          DepthFirst,
		LoadBalanceFactor: inf(),
		LookAhead:         0,
		PostProcess:       false,
	}
}

func inf() float64 { return math.Inf(1) }

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.LoadBalanceFactor < 1 {
		return fmt.Errorf("sched: load-balance factor must be >= 1 (got %g)", o.LoadBalanceFactor)
	}
	if o.LookAhead < 0 {
		return fmt.Errorf("sched: look-ahead must be >= 0")
	}
	return nil
}

// Assignment places one layer of one workload instance on one
// sub-accelerator over [Start, End) cycles.
type Assignment struct {
	Instance int // index into Workload.Instances
	Layer    int // index into the instance's model layers
	SubAcc   int // index into HDA.Subs

	Start, End int64

	// Cost is the interned bandwidth-free footprint of this (layer,
	// sub-accelerator) pair: its mapping, energy, traffic and buffer
	// occupancy. It points into the shared maestro cache and must not
	// be modified. The layer's cycles are End-Start; Cost.Cycles(hw)
	// recomputes them from the sub-accelerator's HW in the schedule's
	// HDA of the assignment's epoch (see Schedule.Past).
	Cost *maestro.Footprint
}

// Epoch is one stretch of an incremental schedule's assignments that
// ran on an earlier HDA: the entries of Schedule.Assignments before
// End, and at or after the previous epoch's End, were costed on HDA.
// Incremental.Reassign opens one; a batch schedule has none.
type Epoch struct {
	End int
	HDA *accel.HDA
}

// Schedule is a complete layer execution schedule of a workload on an
// HDA, with its aggregate cost metrics.
//
// An incremental schedule's Snapshot is its live window: Workload and
// Assignments hold only the instances not yet retired, Retired
// summarizes the rest, and the aggregates (makespan, energy, busy
// cycles) cover both; the views computed from assignments
// (PeakOccupancyBytes, EnergyBreakdown) see the window only.
// Assignment.Instance indexes Workload.Instances; the global instance
// index is Retired.Instances plus that.
type Schedule struct {
	HDA      *accel.HDA
	Workload *workload.Workload

	// Assignments in commit order (non-decreasing Start).
	Assignments []Assignment

	// Past holds the epochs of assignments costed on an HDA before the
	// last Reassign, in order, each non-empty; the assignments after
	// the last epoch ran on HDA.
	Past []Epoch

	MakespanCycles int64
	EnergyPJ       float64
	SubBusyCycles  []int64

	// Retired is the committed work folded out of the window (zero for
	// a batch schedule).
	Retired Retired

	// SchedulingTime is the wall-clock time the scheduler itself took
	// (Table VII's "Scheduling Time").
	SchedulingTime time.Duration

	// peakPlus1 caches the lazily-computed peak occupancy plus one
	// (see PeakOccupancyBytes); 0 means not yet computed. Accessed
	// with atomic free functions (not an atomic.Int64, whose noCopy
	// would forbid the value copies tests and callers legitimately
	// make of finished schedules).
	peakPlus1 int64
}

// Retired is the work an incremental schedule has folded out of its
// live window (see Incremental.Extend): instances whose every layer
// ended at or before the admission floor, kept only as totals.
type Retired struct {
	// Instances is the retired instance count, which is also the
	// global index of the window's first instance.
	Instances   int
	Assignments int

	// BusyCycles and EnergyPJ are the retired share of the schedule's
	// totals (per sub-accelerator for the cycles).
	BusyCycles []int64
	EnergyPJ   float64

	// FrontierCycles is, per sub-accelerator, the latest end of a
	// retired layer there: the retired work occupies each sub until
	// no later than its frontier.
	FrontierCycles []int64
}

// clone returns a deep copy.
func (r Retired) clone() Retired {
	r.BusyCycles = slices.Clone(r.BusyCycles)
	r.FrontierCycles = slices.Clone(r.FrontierCycles)
	return r
}

// PeakOccupancyBytes returns the schedule's maximum concurrent
// global-buffer occupancy. It is computed on first use and cached: a
// DSE sweep discards almost every schedule it produces without ever
// reading the peak, and the O(n log n) interval sweep was a
// measurable slice of per-point cost. The cache is a single atomic so
// a schedule shared across goroutines (stats exporters, trace
// writers) stays race-free — concurrent first readers may both run
// the sweep, but it is deterministic, so they store the same value.
func (s *Schedule) PeakOccupancyBytes() int64 {
	if v := atomic.LoadInt64(&s.peakPlus1); v > 0 {
		return v - 1
	}
	peak := peakOccupancySweep(s.Assignments)
	atomic.StoreInt64(&s.peakPlus1, peak+1)
	return peak
}

// LatencySeconds converts the makespan to seconds at the given clock.
func (s *Schedule) LatencySeconds(clockGHz float64) float64 {
	if clockGHz <= 0 {
		clockGHz = 1.0
	}
	return float64(s.MakespanCycles) / (clockGHz * 1e9)
}

// EnergyMJ returns total energy in millijoules.
func (s *Schedule) EnergyMJ() float64 { return s.EnergyPJ * 1e-9 }

// EDP returns the schedule's energy-delay product in joule-seconds.
func (s *Schedule) EDP(clockGHz float64) float64 {
	return s.EnergyPJ * 1e-12 * s.LatencySeconds(clockGHz)
}

// EnergyBreakdown aggregates the schedule's energy by memory-hierarchy
// level (MAC, RF, local interconnect, global buffer, DRAM, context) —
// the view that explains *why* an organization wins or loses energy
// (e.g. the RDA's flexibility tax, or NVDLA's DRAM re-streaming on
// activation-heavy layers).
func (s *Schedule) EnergyBreakdown() maestro.EnergyBreakdown {
	var b maestro.EnergyBreakdown
	for _, a := range s.Assignments {
		e := a.Cost.Energy
		b.MAC += e.MAC
		b.RF += e.RF
		b.NoC += e.NoC
		b.Buffer += e.Buffer
		b.DRAM += e.DRAM
		b.Context += e.Context
	}
	return b
}

// Utilization returns each sub-accelerator's busy fraction of the
// makespan.
func (s *Schedule) Utilization() []float64 {
	out := make([]float64, len(s.SubBusyCycles))
	if s.MakespanCycles == 0 {
		return out
	}
	for i, b := range s.SubBusyCycles {
		out[i] = float64(b) / float64(s.MakespanCycles)
	}
	return out
}

// item identifies one layer of one instance in per-sub-accelerator
// sequences.
type item struct {
	inst, layer int
}

// global returns the item with its instance as a global index, given
// the schedule's retired count.
func (it item) global(base int) item { return item{base + it.inst, it.layer} }
