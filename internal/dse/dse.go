// Package dse implements Herald's hardware-resource-partitioning
// design space exploration (§IV-C): given an accelerator class, a set
// of sub-accelerator dataflow styles, and a workload, it enumerates PE
// and bandwidth partitions (Definition 1), schedules the workload on
// each point with Herald's scheduler, and reports the full design
// cloud, the latency-energy Pareto front, and the best-EDP design.
// Exhaustive search at user-set granularity is the default; binary
// sampling and random search trade optimality for speed, as in the
// paper.
//
// The sweep machinery is built for repeated online use, not just
// design time: enumeration streams in blocks of at most sched.MaxTables
// partitions that workers take off one atomic cursor (memory bounded
// by the block, not the space); Options.BestOnly drops the design
// cloud; Options.Prune makes a best-only sweep a best-first
// branch-and-bound that schedules partitions in lower-bound order
// (bound.go) and stops where no remaining partition can win; and a
// reusable Sweeper handle (sweeper.go) keeps schedulers, HDAs and memo
// tables warm across sweeps — the substrate for fleet.Resweep's
// dynamic-repartitioning probes and the fleet Controller that acts on
// them.
//
// Key types: Space (the searchable partition space), Options
// (strategy, objective, BestOnly/Prune sweep modes), Point (one
// evaluated design), Result (cloud, Pareto front, Best, and the
// Explored/Pruned coverage counters), Sweeper (the warm reusable
// handle). Search is the one-shot convenience over NewSweeper+Sweep.
// Determinism guarantee: for a fixed (space, options, workload),
// Best is bit-identical across runs, worker counts, and
// pruned/unpruned modes (ties break toward the earlier enumeration
// index; see prune_equiv_test.go) — which is what lets a serving
// fleet compare sweep winners across probes by value. Explored and
// Pruned are as deterministic as Best: they follow from the bounds and
// values alone, never from worker timing.
package dse

import (
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/maestro"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Strategy selects how the partition space is sampled.
type Strategy int

const (
	// Exhaustive enumerates every partition at the configured
	// granularity (the paper's default).
	Exhaustive Strategy = iota
	// Binary restricts each share to power-of-two unit counts,
	// "which significantly reduces the search time at the cost of
	// possible loss of globally optimal design points" (§IV-C).
	Binary
	// Random samples a fixed number of partitions uniformly (seeded,
	// reproducible).
	Random
)

// String names the strategy (flag spelling).
func (s Strategy) String() string {
	switch s {
	case Exhaustive:
		return "exhaustive"
	case Binary:
		return "binary"
	case Random:
		return "random"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Space describes the searchable HDA design space for one class and
// one style combination.
type Space struct {
	Class  accel.Class
	Styles []dataflow.Style

	// PEUnits and BWUnits set the search granularity: the class's PEs
	// (bandwidth) are divided into this many equal units distributed
	// across sub-accelerators, each receiving at least one. Zero
	// selects the defaults (16 PE units, 8 BW units).
	PEUnits int
	BWUnits int
}

// Defaults fills zero-valued granularities.
func (sp Space) withDefaults() Space {
	if sp.PEUnits == 0 {
		sp.PEUnits = 16
	}
	if sp.BWUnits == 0 {
		sp.BWUnits = 8
	}
	return sp
}

// Validate reports whether the space is searchable.
func (sp Space) Validate() error {
	if err := sp.Class.Validate(); err != nil {
		return err
	}
	if len(sp.Styles) < 1 {
		return fmt.Errorf("dse: space needs at least one sub-accelerator style")
	}
	sp = sp.withDefaults()
	if len(sp.Styles) > sp.PEUnits || len(sp.Styles) > sp.BWUnits {
		return fmt.Errorf("dse: %d sub-accelerators exceed the %d PE / %d BW units",
			len(sp.Styles), sp.PEUnits, sp.BWUnits)
	}
	if sp.Class.PEs%sp.PEUnits != 0 {
		return fmt.Errorf("dse: class PEs %d not divisible into %d units", sp.Class.PEs, sp.PEUnits)
	}
	for _, st := range sp.Styles {
		if !st.Valid() {
			return fmt.Errorf("dse: invalid style in space")
		}
	}
	return nil
}

// Objective selects what Result.Best minimizes (§IV-D: "users can
// select the metric (e.g., EDP, energy, latency, and so on)"). It is
// the scheduler's Metric: one choice ranks sub-accelerators per layer,
// design points per search and fusion cuts per layer range.
type Objective = sched.Metric

// The objectives, in sched.Metric's order.
const (
	// ObjectiveEDP minimizes the energy-delay product (default).
	ObjectiveEDP = sched.MetricEDP
	// ObjectiveLatency minimizes the schedule makespan.
	ObjectiveLatency = sched.MetricLatency
	// ObjectiveEnergy minimizes total energy.
	ObjectiveEnergy = sched.MetricEnergy
)

// Options configures a search.
type Options struct {
	Strategy  Strategy
	Objective Objective
	Samples   int   // number of random samples (Random strategy); 0 = 32
	Seed      int64 // random-search seed

	Sched sched.Options

	// Workers bounds the scheduling goroutines; 0 = GOMAXPROCS.
	Workers int

	// BestOnly drops the per-point design cloud: Result.Points and
	// Result.Pareto stay nil (TopK over the cloud is unavailable) and
	// only Best plus the Explored/Pruned counters are returned. No
	// schedule but each worker's best is retained — the right mode for
	// online re-sweeps that only need the winning partition.
	BestOnly bool

	// Prune enables bound-based pruning: every partition's objective
	// lower bound is computed from cost-model columns alone (no
	// scheduling), partitions are scheduled in ascending bound order,
	// and the sweep stops at the first bound above the best value
	// found. Pruning provably never changes Best (see bound.go). It
	// requires BestOnly — when the full design cloud / Pareto front is
	// requested, pruning is automatically disabled, because skipped
	// points could be cloud or front members.
	Prune bool
}

// DefaultOptions returns an exhaustive search with Herald's default
// scheduler.
func DefaultOptions() Options {
	return Options{Strategy: Exhaustive, Sched: sched.DefaultOptions()}
}

// Point is one evaluated design: a concrete HDA partition with its
// optimized schedule and aggregate costs (one dot in Fig. 6 / Fig. 11).
type Point struct {
	HDA      *accel.HDA
	Schedule *sched.Schedule

	LatencySec float64
	EnergyMJ   float64
	EDP        float64 // joule-seconds at 1 GHz
}

// Value returns the point's value under objective o. Exported so
// callers ranking a design point outside a search — the fleet's
// repartitioning controller comparing the serving partition against a
// sweep winner — use the search's own convention.
func (p Point) Value(o Objective) float64 { return o.Pick(p.LatencySec, p.EnergyMJ, p.EDP) }

// Result is the outcome of a search.
type Result struct {
	Space  Space
	Points []Point // in deterministic enumeration order; nil under BestOnly
	Best   Point   // minimizes Options.Objective (EDP by default)
	Pareto []Point // latency-energy non-dominated set, by latency; nil under BestOnly

	// Explored counts the partitions the search had to schedule;
	// Pruned counts those the objective lower bound ruled out.
	// Explored+Pruned is the whole enumerated space (Pruned is always 0
	// unless Prune && BestOnly). Under Prune, Explored is the bounded
	// prefix of the best-first order: the partitions whose bound is at
	// or below Best's value (per block; every space the figures and the
	// serving stack sweep is one block). Both are deterministic across
	// runs and worker counts (TestWorkerCountInvariance,
	// TestBestFirstCut); a worker that speculatively schedules a
	// partition past the cut does not count it.
	Explored int
	Pruned   int
}

// Search explores the space, scheduling workload w on every candidate
// partition, and returns the evaluated design cloud. It is the
// one-shot form of NewSweeper + Sweep; callers that re-sweep (serving
// fleets probing repartitioning) should hold a Sweeper instead.
func Search(cache *maestro.Cache, sp Space, w *workload.Workload, opts Options) (*Result, error) {
	sw, err := NewSweeper(cache, sp, opts)
	if err != nil {
		return nil, err
	}
	return sw.Sweep(w)
}

// TopK returns the k best evaluated points under the objective, best
// first, breaking ties toward the earlier enumeration index (the same
// convention as Result.Best, so TopK(o, 1)[0] == Best when o is the
// search objective). k beyond the design cloud returns every point;
// k <= 0 (or a BestOnly result, which retains no cloud) returns nil.
// Heterogeneous serving fleets take their replica HDAs from this
// list: the runner-up partitions trade the bootstrap workload's
// optimum for dataflow diversity.
func (r *Result) TopK(o Objective, k int) []Point {
	if k <= 0 || len(r.Points) == 0 {
		return nil
	}
	if k > len(r.Points) {
		k = len(r.Points)
	}
	idx := make([]int, len(r.Points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return betterPoint(o, r.Points[idx[a]], idx[a], r.Points[idx[b]], idx[b])
	})
	out := make([]Point, k)
	for i := 0; i < k; i++ {
		out[i] = r.Points[idx[i]]
	}
	return out
}

// betterPoint reports whether point p (at enumeration index pi) beats
// q (at qi) under the objective, breaking ties toward the earlier
// index so parallel searches reproduce the sequential choice.
func betterPoint(o Objective, p Point, pi int, q Point, qi int) bool {
	pv, qv := p.Value(o), q.Value(o)
	if pv != qv {
		return pv < qv
	}
	return pi < qi
}

// ParetoFront returns the latency-energy non-dominated subset of the
// points, sorted by latency ascending (energy ascending within equal
// latency). The scan is sort + single pass — O(n log n), never the
// O(n²) pairwise-dominance test — and sorts an index array so the
// points themselves are copied once, straight into the front.
func ParetoFront(points []Point) []Point {
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := &points[idx[a]], &points[idx[b]]
		if pa.LatencySec != pb.LatencySec {
			return pa.LatencySec < pb.LatencySec
		}
		return pa.EnergyMJ < pb.EnergyMJ
	})
	var front []Point
	bestE := 0.0
	for _, i := range idx {
		p := &points[i]
		if len(front) == 0 || p.EnergyMJ < bestE {
			front = append(front, *p)
			bestE = p.EnergyMJ
		}
	}
	return front
}
