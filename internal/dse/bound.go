package dse

import (
	"math"
	"sync/atomic"

	"repro/internal/dnn"
	"repro/internal/maestro"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Bound-based pruning (Options.Prune): before scheduling anything, the
// sweep computes every partition's lower bound on the objective from
// cost-model columns alone — no scheduling — then schedules partitions
// in ascending bound order and stops at the first bound that cannot
// beat the best value any worker has seen so far.
//
// The bound uses each sub-accelerator's actual substrate columns —
// the very columns the scheduler needs anyway, so when it fails to
// prune, the cost-model work is reused by the evaluation. (A cheaper
// bandwidth-independent tier — every sub-accelerator priced at the
// full class bandwidth — was tried and pruned nothing: shared-NoC
// shares are small enough that full-bandwidth latencies flatten the
// whole space below any real objective value.)
//
// Soundness. For any legal schedule on a partition:
//
//   - every layer executes on some sub-accelerator, so its cycles
//     (energy) are >= the minimum across that partition's
//     sub-accelerators of the layer's cost-model cycles (energy);
//   - an instance's layers form a dependence chain, so its completion
//     is >= arrival + the sum of its per-layer cycle minima, and the
//     makespan >= the maximum of that over instances;
//   - every assigned cycle occupies one of nAcc sub-accelerators
//     within [0, makespan], so makespan >= ceil(sum of all per-layer
//     cycle minima / nAcc);
//   - total energy >= the sum of per-layer energy minima. The energy
//     sum is scaled by (1 - 1e-9) to absorb float summation-order
//     differences against the scheduler's commit-order accumulation
//     (the terms are exact per-layer minima; only association
//     differs, which is orders of magnitude below the slack).
//
// The objective bounds compose from these: latency uses the cycle
// bound at the same 1 GHz conversion Point uses; energy uses the
// energy bound; EDP multiplies the two (IEEE multiplication of
// positive values is monotone, so the product of lower bounds is a
// lower bound of the product).
//
// Evaluation order and the cut. A block's partitions are sorted by
// (bound, enumeration index) and handed out off one atomic cursor, one
// position per claim. Write b[p] for the bound at sorted position p
// and val[p] for its objective. The cut k is the first position with
// b[k] > min(incumbent, val[q] for q < k), the incumbent being the
// best value of earlier blocks. A worker that claims position p stops
// when b[p] > current-best; current-best is the minimum over finished
// evaluations, all at positions < p, so p satisfies the cut test and
// p >= k. Hence every position before k is evaluated, whatever the
// timing, and k is computed after the block from the bounds and values
// alone. A position >= k that a worker evaluated anyway has
// val >= b >= b[k] > best value before k, so it is strictly worse and
// drops out of the merge. Result.Explored adds up the cuts.
//
// Why pruning provably cannot change Best: the true optimum v* has
// some partition with value v* and bound <= v*. Every position >= k
// has value >= b[k] > the best value before k >= v*, so all partitions
// achieving v* lie before the cut, the best-value set is evaluated in
// full and the earliest-index tie-break reproduces the unpruned choice
// exactly. The same argument shows that in a one-block space k is the
// number of partitions whose bound is <= v*. (Both tests are strictly
// ">": with ">=", a partition whose bound coincides with its own
// optimal objective could be cut after another optimum was found,
// losing the index tie-break.)

// energySlack absorbs summation-order float differences between the
// bound's per-layer energy sum and the scheduler's commit-order sum.
const energySlack = 1 - 1e-9

// bestTracker shares the lowest objective value seen across sweep
// workers (float64 bits in an atomic, updated by CAS-min on the
// decoded values; objective values are non-negative).
type bestTracker struct {
	bits atomic.Uint64
}

func newBestTracker() *bestTracker {
	t := &bestTracker{}
	t.bits.Store(math.Float64bits(math.Inf(1)))
	return t
}

func (t *bestTracker) load() float64 { return math.Float64frombits(t.bits.Load()) }

// offer lowers the shared best to v if v is smaller (CAS-min loop).
func (t *bestTracker) offer(v float64) {
	for {
		old := t.bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if t.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// aggregate folds per-instance model floors into the objective bound.
func aggregate(o Objective, w *workload.Workload, nAcc int, floorOf func(*dnn.Model) sched.Floor) float64 {
	var maxChain, totalCycles int64
	var totalE float64
	for i := range w.Instances {
		in := &w.Instances[i]
		fl := floorOf(in.Model)
		if c := in.ArrivalCycle + fl.ChainCycles; c > maxChain {
			maxChain = c
		}
		totalCycles += fl.ChainCycles
		totalE += fl.EnergyPJ
	}
	n := int64(nAcc)
	if perAcc := (totalCycles + n - 1) / n; perAcc > maxChain {
		maxChain = perAcc
	}
	latLB := float64(maxChain) / 1e9 // Point.LatencySec at the 1 GHz reference
	energyLB := totalE * energySlack
	// Energy in mJ as Point.EnergyMJ; EDP in joule-seconds, EnergyPJ *
	// 1e-12 * LatencySec.
	return o.Pick(latLB, energyLB*1e-9, energyLB*1e-12*latLB)
}

// lowerBound computes the objective bound from each sub-accelerator's
// actual substrate columns (the ones a subsequent evaluation reuses).
// The model floors are memoized per (partition, model) in the slot, so
// repeated re-sweeps (fleet.Resweep, figure sweeps over several
// workloads) reuse the arithmetic; the cost columns underneath are
// interned in the shared maestro cache.
func (sl *partSlot) lowerBound(cache *maestro.Cache, o Objective, w *workload.Workload) float64 {
	return aggregate(o, w, len(sl.h.Subs), func(m *dnn.Model) sched.Floor {
		if fl, ok := sl.bounds[m]; ok {
			return fl
		}
		fl := sched.FloorOf(cache, sl.h, m)
		if sl.bounds == nil {
			sl.bounds = make(map[*dnn.Model]sched.Floor)
		}
		sl.bounds[m] = fl
		return fl
	})
}
