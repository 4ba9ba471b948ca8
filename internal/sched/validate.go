package sched

import (
	"fmt"
	"sort"
)

// Validate checks every structural invariant of a schedule: complete
// coverage (each layer of each instance scheduled exactly once),
// per-instance dependence order, per-sub-accelerator serialization,
// the global memory-size constraint, and aggregate-metric consistency.
// The scheduler's tests treat this as the ground-truth legality oracle
// (§III-A: "a scheduler must check if generated schedules are valid in
// terms of layer dependence and memory constraints").
//
// Each assignment's footprint must be one of its sub-accelerator's
// (same style and PE count), and its duration the footprint's cycles
// on that sub's HW — in the HDA of the assignment's epoch (Past), so a
// snapshot taken after Incremental.Reassign checks the layers that ran
// before it against the slices they ran on.
//
// On an incremental snapshot the structural checks cover the live
// window, errors name global instance indices, and the aggregates add
// the retired totals: a retired instance is complete, its work ending
// by the retired frontier of the sub that ran it. No live layer
// depends on a retired one (instances retire whole).
func (s *Schedule) Validate() error {
	if s.HDA == nil || s.Workload == nil {
		return fmt.Errorf("sched: schedule missing HDA or workload")
	}
	r := &s.Retired
	if nr := len(s.HDA.Subs); r.BusyCycles != nil && (len(r.BusyCycles) != nr || len(r.FrontierCycles) != nr) {
		return fmt.Errorf("sched: retired totals cover %d/%d subs, HDA has %d", len(r.BusyCycles), len(r.FrontierCycles), nr)
	}
	base := r.Instances // global index of Workload.Instances[0]

	// Coverage.
	want := 0
	for _, in := range s.Workload.Instances {
		want += in.Model.NumLayers()
	}
	if len(s.Assignments) != want {
		return fmt.Errorf("sched: %d assignments, workload has %d layers", len(s.Assignments), want)
	}
	prev := 0
	for i, e := range s.Past {
		if e.End <= prev || e.End > len(s.Assignments) || e.HDA == nil || len(e.HDA.Subs) != len(s.HDA.Subs) {
			return fmt.Errorf("sched: epoch %d (end %d) is empty, out of order or not a %d-sub HDA", i, e.End, len(s.HDA.Subs))
		}
		prev = e.End
	}
	seen := make(map[item]int, len(s.Assignments))
	epoch := 0
	for i, a := range s.Assignments {
		if a.Instance < 0 || a.Instance >= len(s.Workload.Instances) {
			return fmt.Errorf("sched: assignment %d: instance %d out of range", i, base+a.Instance)
		}
		if a.Layer < 0 || a.Layer >= s.Workload.Instances[a.Instance].Model.NumLayers() {
			return fmt.Errorf("sched: assignment %d: layer %d out of range", i, a.Layer)
		}
		if a.SubAcc < 0 || a.SubAcc >= len(s.HDA.Subs) {
			return fmt.Errorf("sched: assignment %d: sub-accelerator %d out of range", i, a.SubAcc)
		}
		for epoch < len(s.Past) && i >= s.Past[epoch].End {
			epoch++
		}
		h := s.HDA
		if epoch < len(s.Past) {
			h = s.Past[epoch].HDA
		}
		sub := &h.Subs[a.SubAcc]
		if a.Cost == nil || a.Cost.Mapping.Style != sub.Style || a.Cost.Mapping.PEs != sub.HW.PEs {
			return fmt.Errorf("sched: assignment %d: footprint is not one of sub-accelerator %d (%s, %d PEs)",
				i, a.SubAcc, sub.Style, sub.HW.PEs)
		}
		cyc := a.Cost.Cycles(sub.HW)
		if a.End <= a.Start && cyc > 0 {
			return fmt.Errorf("sched: assignment %d: empty interval [%d,%d)", i, a.Start, a.End)
		}
		if a.End-a.Start != cyc {
			return fmt.Errorf("sched: assignment %d: duration %d != cost cycles %d", i, a.End-a.Start, cyc)
		}
		key := item{a.Instance, a.Layer}
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("sched: layer %v scheduled twice (assignments %d and %d)", key.global(base), prev, i)
		}
		seen[key] = i
	}

	// Dependence: within an instance, layer l must start at or after
	// layer l-1 ends; the first layer must respect the instance's
	// arrival time (periodic-stream workloads). Iterate assignments
	// rather than the seen map so the first violation reported is
	// deterministic when a schedule breaks several constraints at once.
	for idx, a := range s.Assignments {
		key := item{a.Instance, a.Layer}
		if key.layer == 0 {
			if arr := s.Workload.Instances[key.inst].ArrivalCycle; s.Assignments[idx].Start < arr {
				return fmt.Errorf("sched: instance %d starts %d before its arrival %d",
					base+key.inst, s.Assignments[idx].Start, arr)
			}
			continue
		}
		predIdx, ok := seen[item{key.inst, key.layer - 1}]
		if !ok {
			return fmt.Errorf("sched: layer %v scheduled without predecessor", key.global(base))
		}
		if s.Assignments[idx].Start < s.Assignments[predIdx].End {
			return fmt.Errorf("sched: dependence violation: %v starts %d before predecessor ends %d",
				key.global(base), s.Assignments[idx].Start, s.Assignments[predIdx].End)
		}
	}

	// Serialization: per sub-accelerator, intervals must not overlap.
	perAcc := make([][]Assignment, len(s.HDA.Subs))
	for _, a := range s.Assignments {
		perAcc[a.SubAcc] = append(perAcc[a.SubAcc], a)
	}
	for acc, as := range perAcc {
		sort.Slice(as, func(i, j int) bool { return as[i].Start < as[j].Start })
		for i := 1; i < len(as); i++ {
			if as[i].Start < as[i-1].End {
				return fmt.Errorf("sched: sub-accelerator %d: overlapping assignments at %d < %d",
					acc, as[i].Start, as[i-1].End)
			}
		}
	}

	// Memory: peak concurrent occupancy within the shared buffer.
	if peak := peakOccupancySweep(s.Assignments); peak > s.HDA.Class.GlobalBufBytes {
		return fmt.Errorf("sched: peak occupancy %d exceeds global buffer %d", peak, s.HDA.Class.GlobalBufBytes)
	}

	// Aggregates, retired work included.
	var makespan int64
	for _, f := range r.FrontierCycles {
		makespan = max(makespan, f)
	}
	var energy float64
	busy := make([]int64, len(s.HDA.Subs))
	copy(busy, r.BusyCycles)
	for _, a := range s.Assignments {
		if a.End > makespan {
			makespan = a.End
		}
		energy += a.Cost.EnergyPJ()
		busy[a.SubAcc] += a.End - a.Start
	}
	if makespan != s.MakespanCycles {
		return fmt.Errorf("sched: makespan %d != recomputed %d", s.MakespanCycles, makespan)
	}
	energy += r.EnergyPJ
	if diff := energy - s.EnergyPJ; diff > 1 || diff < -1 {
		return fmt.Errorf("sched: energy %g != recomputed %g", s.EnergyPJ, energy)
	}
	for a := range busy {
		if busy[a] != s.SubBusyCycles[a] {
			return fmt.Errorf("sched: sub %d busy %d != recomputed %d", a, s.SubBusyCycles[a], busy[a])
		}
	}
	return nil
}
