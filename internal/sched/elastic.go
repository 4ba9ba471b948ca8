package sched

// Elastic intra-HDA partitioning: layer-boundary preemption
// (checkpoint/resume of an admitted instance via the Extend rollback
// machinery and the interval memory ledger) and PE reassignment
// (re-sizing the sub-accelerator slices between committed layers,
// re-costing every not-yet-executed layer on the new slice sizes).
// This is the dynamic-resource-partitioning model of arxiv 2302.10806
// grafted onto the incremental scheduling path: commitments stay
// non-revocable for layers that have started by the boundary, and
// everything after the boundary is revocable.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/accel"
)

// ErrNothingToPreempt reports that every committed layer of the
// instance starts before the preemption boundary, so there is no
// revocable suffix — the instance effectively finishes first.
var ErrNothingToPreempt = errors.New("sched: no layer starts at or after the preemption boundary")

// Checkpoint is a preempted instance's resume token: which layers ran
// to completion before the boundary and what the rollback released.
// It is produced by Preempt and consumed by exactly one Resume.
type Checkpoint struct {
	Instance    int   // global instance index (Placement.Instance)
	NextLayer   int   // first layer left unexecuted at the boundary
	ResumeCycle int64 // completion cycle of the kept prefix (arrival if empty)

	LayersRolledBack int     // committed layers revoked by the preemption
	FreedBusyCycles  int64   // execution cycles released back to the subs
	FreedEnergyPJ    float64 // energy un-spent by the rollback
}

// Preempt checkpoints the instance at the layer boundary `at`: every
// committed layer starting at or after the boundary is rolled back —
// its interval leaves the per-sub timelines and the memory ledger, its
// busy cycles and energy are refunded — and the instance is suspended
// (removed from the visitation order, so later Extends never touch its
// remaining layers) until Resume. Layers already started by the
// boundary run to completion, which is exactly the layer-boundary
// preemption model: the checkpoint is implicit in the committed
// prefix, no architectural state is saved.
//
// Instances that are part of a fused chain cannot be preempted (their
// handoff buffers tie them to live peers); ErrNothingToPreempt is
// returned when the instance finishes before the boundary.
func (inc *Incremental) Preempt(instance int, at int64) (Checkpoint, error) {
	if instance < 0 || instance >= len(inc.insts) {
		return Checkpoint{}, fmt.Errorf("sched: preempt of unknown instance %d", instance)
	}
	if _, dup := inc.susp[instance]; dup {
		return Checkpoint{}, fmt.Errorf("sched: instance %d is already preempted", instance)
	}
	st := inc.st
	if st.pred[instance] >= 0 || st.succ[instance] >= 0 {
		return Checkpoint{}, fmt.Errorf("sched: instance %d is part of a fused chain and cannot be preempted", instance)
	}
	// The boundary can never precede the admission floor: slots ending
	// at or before the floor may already have been pruned from the
	// ledger, and resumed work must arrive at or after it anyway.
	if at < inc.floor {
		at = inc.floor
	}

	// Partition the instance's committed layers at the boundary. Layer
	// starts are strictly increasing in layer order (dependence), so
	// the rolled-back set is a contiguous suffix.
	nl := inc.insts[instance].Model.NumLayers()
	var (
		removed     []Assignment
		freedBusy   int64
		freedEnergy float64
	)
	firstRolled := nl
	resumeCycle := inc.insts[instance].ArrivalCycle
	for i := range st.assignments {
		a := st.assignments[i]
		if a.Instance != instance {
			continue
		}
		if a.Start >= at {
			removed = append(removed, a)
			if a.Layer < firstRolled {
				firstRolled = a.Layer
			}
			freedBusy += a.Cost.Cycles
			freedEnergy += a.Cost.Energy.Total()
		} else if a.End > resumeCycle {
			resumeCycle = a.End
		}
	}
	if len(removed) == 0 {
		return Checkpoint{}, ErrNothingToPreempt
	}
	if firstRolled+len(removed) != nl {
		return Checkpoint{}, fmt.Errorf("sched: instance %d rollback is not a layer suffix (first %d + %d removed != %d layers)",
			instance, firstRolled, len(removed), nl)
	}
	kept := st.assignments[:0]
	for i := range st.assignments {
		a := st.assignments[i]
		if a.Instance == instance && a.Start >= at {
			continue
		}
		kept = append(kept, a)
	}
	st.assignments = kept

	// Remove the rolled-back intervals from the per-sub memory ledger
	// and rebuild its occupancy prefix sums. The boundary sits at or
	// above the prune floor, so every removed slot is still present.
	accs := make([]int, 0, len(st.free))
	for _, a := range removed {
		dup := false
		for _, acc := range accs {
			dup = dup || acc == a.SubAcc
		}
		if !dup {
			accs = append(accs, a.SubAcc)
		}
	}
	lg := &st.ledger
	for _, acc := range accs {
		slots := lg.slots[acc][:0]
		for _, sl := range lg.slots[acc] {
			drop := false
			for _, a := range removed {
				if a.SubAcc == acc && a.Start == sl.start && a.End == sl.end {
					drop = true
					break
				}
			}
			if !drop {
				slots = append(slots, sl)
			}
		}
		lg.slots[acc] = slots
		p := append(lg.pre[acc][:0], 0)
		for _, sl := range slots {
			p = append(p, p[len(p)-1]+sl.occ)
		}
		lg.pre[acc] = p
		lg.head[acc] = 0
		lg.prune(acc, st.prune)
	}

	// Rewind the per-sub timelines: free shrinks to the end of the
	// last surviving commit on each touched sub (the layer boundary),
	// busy and energy refund the rolled-back execution.
	frontier := make([]int64, len(st.free))
	for i := range st.assignments {
		a := &st.assignments[i]
		if a.End > frontier[a.SubAcc] {
			frontier[a.SubAcc] = a.End
		}
	}
	for _, acc := range accs {
		st.free[acc] = frontier[acc]
	}
	for _, a := range removed {
		st.busy[a.SubAcc] -= a.Cost.Cycles
	}
	st.energyPJ -= freedEnergy

	// Suspend: record the resume point and leave the visitation order,
	// so retire/Extend skip the instance entirely until Resume.
	st.nextLayer[instance] = firstRolled
	st.ready[instance] = resumeCycle
	order := st.order[:0]
	for _, o := range st.order {
		if o != instance {
			order = append(order, o)
		}
	}
	st.order = order

	cp := Checkpoint{
		Instance:         instance,
		NextLayer:        firstRolled,
		ResumeCycle:      resumeCycle,
		LayersRolledBack: len(removed),
		FreedBusyCycles:  freedBusy,
		FreedEnergyPJ:    freedEnergy,
	}
	if inc.susp == nil {
		inc.susp = make(map[int]Checkpoint)
	}
	inc.susp[instance] = cp
	return cp, nil
}

// Resume schedules a preempted instance's remaining layers against the
// committed timelines — possibly on re-sized sub-accelerator slices if
// a Reassign happened in between — and returns the placement of the
// resumed suffix (StartCycle/FinishCycle/BusyCycles/EnergyPJ cover the
// resumed layers only; ArrivalCycle is the instance's original
// arrival). The suffix may not start before the checkpoint's kept
// prefix completed, before `at`, or before the admission floor. A
// failed Resume rolls the schedule back, like a failed Extend, and
// leaves the instance suspended exactly as Preempt left it (next
// layer, ready cycle and priority included), so the same checkpoint
// can be resumed again.
func (inc *Incremental) Resume(cp Checkpoint, priority int, at int64) (Placement, error) {
	stored, ok := inc.susp[cp.Instance]
	if !ok {
		return Placement{}, fmt.Errorf("sched: instance %d is not preempted", cp.Instance)
	}
	if stored.NextLayer != cp.NextLayer {
		return Placement{}, fmt.Errorf("sched: stale checkpoint for instance %d (next layer %d, suspended at %d)",
			cp.Instance, cp.NextLayer, stored.NextLayer)
	}
	st := inc.st
	if at < inc.floor {
		at = inc.floor
	}
	start := st.ready[cp.Instance] // kept-prefix completion
	if at > start {
		start = at
	}

	st.checkpoint(cp.Instance)
	st.retire(inc.insts)
	st.prio[cp.Instance] = priority
	st.order = append(st.order, cp.Instance)
	sort.SliceStable(st.order, func(i, j int) bool {
		return st.prio[st.order[i]] > st.prio[st.order[j]]
	})
	st.remaining += inc.insts[cp.Instance].Model.NumLayers() - cp.NextLayer
	st.ready[cp.Instance] = start
	st.prune = inc.floor
	delete(inc.susp, cp.Instance)

	mark := len(st.assignments)
	if err := inc.s.run(inc.h, inc.insts, st, start, false); err != nil {
		st.restore()
		inc.susp[cp.Instance] = stored
		return Placement{}, err
	}
	st.commit()

	pl := Placement{
		Instance:     cp.Instance,
		ArrivalCycle: inc.insts[cp.Instance].ArrivalCycle,
		StartCycle:   -1,
	}
	for i := mark; i < len(st.assignments); i++ {
		a := &st.assignments[i]
		if pl.StartCycle < 0 || a.Start < pl.StartCycle {
			pl.StartCycle = a.Start
		}
		if a.End > pl.FinishCycle {
			pl.FinishCycle = a.End
		}
		pl.BusyCycles += a.Cost.Cycles
		pl.EnergyPJ += a.Cost.Energy.Total()
	}
	return pl, nil
}

// Preempted returns the currently suspended instance indices in
// ascending order.
func (inc *Incremental) Preempted() []int {
	out := make([]int, 0, len(inc.susp))
	for i := range inc.susp { //herald:nondet collected then sorted below
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Reassign re-sizes the schedule's sub-accelerator slices in place:
// the HDA is rebuilt over the same class with the given partitions
// (sub count fixed — growing/shrinking the number of slices is a
// migration, not a reassignment) and every admitted instance's cost
// rows are re-resolved against the new slice sizes. Committed layers
// keep their historical interned costs, so the swap is exactly a layer
// boundary: in-flight layers finish on the old slices' cost model,
// everything scheduled afterwards — resumed suffixes and future
// admissions — is costed on the new one. The per-sub timelines, the
// memory ledger and the admission floor carry over untouched.
func (inc *Incremental) Reassign(parts []accel.Partition) (*accel.HDA, error) {
	if len(parts) != len(inc.h.Subs) {
		return nil, fmt.Errorf("sched: reassign with %d partitions on a %d-sub HDA (sub count is fixed; migrate instead)",
			len(parts), len(inc.h.Subs))
	}
	nh, err := accel.New(inc.h.Name, inc.h.Class, parts)
	if err != nil {
		return nil, err
	}
	inc.h = nh
	st := inc.st
	st.costs = inc.s.tableFor(nh)
	for i := range st.rows {
		ct, ok := st.costs[inc.insts[i].Model]
		if !ok {
			ct = inc.s.costCols(nh, st.costs, inc.insts[i].Model)
		}
		st.rows[i] = ct
	}
	return nh, nil
}
