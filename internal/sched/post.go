package sched

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/maestro"
	"repro/internal/workload"
)

// simState is the scheduler's reusable post-processing scratch: the
// per-trial simulation arrays, a double-buffered assignment store (the
// next trial writes the buffer the surviving schedule does not hold),
// and the hoist/flow-time buffers. Post-processing runs up to
// maxPostMoves trial simulations per schedule; without this scratch a
// DSE sweep re-allocated every trial's whole state per design point.
type simState struct {
	free, busy []int64
	pos        []int
	nextLayer  []int
	ready      []int64
	running    []runSlot
	rows       []*costTable // per-instance cost-table resolution

	// assignBuf double-buffers trial assignments: buf[cur] is written
	// by the next simulate call, the other half may be held by the
	// surviving schedule. postProcess detaches the survivor with a copy
	// before returning.
	assignBuf [2][]Assignment
	cur       int

	trialSeqs [][]item // hoist scratch, swapped with the live seqs on acceptance
	liveSeqs  [][]item // extractSeqs scratch (the live set between swaps)
	finish    []int64  // flowTime scratch

	// timeline maps each (instance, layer) to its assignment index:
	// entry tlOff[inst]+layer of tl, -1 while unassigned.
	tlOff []int
	tl    []int
}

// extractSeqs converts a schedule into per-sub-accelerator item
// sequences in start order (assignments are already in commit order,
// which is start order per sub-accelerator). The sequences live in
// scheduler scratch, reused across post-processing passes.
func (s *Scheduler) extractSeqs(h *accel.HDA, sch *Schedule) [][]item {
	seqs := s.sim.liveSeqs
	if len(seqs) != len(h.Subs) {
		seqs = make([][]item, len(h.Subs))
	}
	for a := range seqs {
		if seqs[a] != nil {
			seqs[a] = seqs[a][:0]
		}
	}
	for _, a := range sch.Assignments {
		seqs[a.SubAcc] = append(seqs[a.SubAcc], item{inst: a.Instance, layer: a.Layer})
	}
	s.sim.liveSeqs = seqs
	return seqs
}

// simulate executes fixed per-sub-accelerator sequences and returns
// the resulting schedule (no re-assignment decisions; used to evaluate
// post-processing reorders). Each round it commits the sequence head
// with the earliest feasible start time, respecting dependence, memory
// and sub-accelerator serialization. Returns an error when the
// sequences cross-block (which a reorder can introduce; callers then
// revert). Peak occupancy stays lazy (Schedule.PeakOccupancyBytes):
// postProcess evaluates trials by makespan and flow time only. The
// returned schedule's assignments live in the scheduler's trial
// scratch until detached.
func (s *Scheduler) simulate(h *accel.HDA, w *workload.Workload, seqs [][]item) (*Schedule, error) {
	n := len(w.Instances)
	nAcc := len(h.Subs)
	sim := &s.sim
	sim.free = resetInt64(sim.free, nAcc)
	sim.busy = resetInt64(sim.busy, nAcc)
	sim.pos = resetInt(sim.pos, nAcc)
	sim.nextLayer = resetInt(sim.nextLayer, n)
	sim.ready = resetInt64(sim.ready, n)
	sim.running = sim.running[:0]
	free, busy, pos, nextLayer, ready := sim.free, sim.busy, sim.pos, sim.nextLayer, sim.ready
	if cap(sim.rows) < n {
		sim.rows = make([]*costTable, n)
	}
	rows := sim.rows[:n]
	table := s.tableFor(h)
	for i, in := range w.Instances {
		ready[i] = in.ArrivalCycle
		rows[i] = s.costCols(h, table, in.Model)
	}
	costAt := func(a int, it item) (int64, *maestro.Footprint) {
		ct := rows[it.inst]
		return ct.cycles[a][it.layer], ct.fps[a][it.layer]
	}

	total := 0
	for a := range seqs {
		total += len(seqs[a])
	}
	if cap(sim.assignBuf[sim.cur]) < total {
		sim.assignBuf[sim.cur] = make([]Assignment, 0, total)
	}
	assignments := sim.assignBuf[sim.cur][:0]
	var energy float64

	for committed := 0; committed < total; {
		bestAcc := -1
		var bestStart int64
		for a := range seqs {
			if pos[a] >= len(seqs[a]) {
				continue
			}
			it := seqs[a][pos[a]]
			if it.layer != nextLayer[it.inst] {
				continue // blocked on a predecessor queued elsewhere
			}
			startT := max(free[a], ready[it.inst])
			cyc, fp := costAt(a, it)
			startT, ok := memFeasibleStart(h, sim.running, startT, cyc, fp.OccupancyBytes)
			if !ok {
				continue
			}
			if bestAcc < 0 || startT < bestStart {
				bestAcc = a
				bestStart = startT
			}
		}
		if bestAcc < 0 {
			return nil, fmt.Errorf("sched: simulate: sequences cross-block after %d of %d commits", committed, total)
		}

		a := bestAcc
		it := seqs[a][pos[a]]
		cyc, fp := costAt(a, it)
		end := bestStart + cyc
		pos[a]++
		nextLayer[it.inst]++
		free[a] = end
		busy[a] += cyc
		ready[it.inst] = end
		energy += fp.Energy.Total()
		sim.running = pruneSlots(sim.running, bestStart)
		sim.running = append(sim.running, runSlot{start: bestStart, end: end, occ: fp.OccupancyBytes})
		assignments = append(assignments, Assignment{
			Instance: it.inst, Layer: it.layer, SubAcc: a,
			Start: bestStart, End: end, Cost: fp,
		})
		committed++
	}
	sim.assignBuf[sim.cur] = assignments

	sch := &Schedule{
		HDA: h, Workload: w,
		Assignments:   assignments,
		EnergyPJ:      energy,
		SubBusyCycles: append([]int64(nil), busy...),
	}
	for i := range assignments {
		if e := assignments[i].End; e > sch.MakespanCycles {
			sch.MakespanCycles = e
		}
	}
	return sch, nil
}

// resetInt64 returns a zeroed int64 slice of length n, reusing buf's
// capacity when possible.
func resetInt64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// resetInt is resetInt64 for int slices.
func resetInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// pruneSlots drops slots that ended at or before t. Safe here because
// simulate commits in non-decreasing start order (it always picks the
// earliest feasible start).
func pruneSlots(running []runSlot, t int64) []runSlot {
	live := running[:0]
	for _, r := range running {
		if r.end > t {
			live = append(live, r)
		}
	}
	return live
}

// memFeasibleStart returns the earliest start >= startT at which the
// occupancy fits the global buffer for the layer's whole duration,
// delaying past running completions as needed.
func memFeasibleStart(h *accel.HDA, running []runSlot, startT, dur, occ int64) (int64, bool) {
	for iter := 0; iter <= len(running)+1; iter++ {
		endT := startT + dur
		var sum int64
		var nextEnd int64
		haveNext := false
		for _, r := range running {
			if r.end > startT {
				if r.start < endT {
					sum += r.occ
				}
				if !haveNext || r.end < nextEnd {
					nextEnd, haveNext = r.end, true
				}
			}
		}
		if sum+occ <= h.Class.GlobalBufBytes {
			return startT, true
		}
		if !haveNext {
			return 0, false // cannot fit even alone (should not happen: occ <= buffer)
		}
		startT = nextEnd
	}
	return 0, false
}

// maxPostMoves bounds the reorder attempts one post-processing pass
// makes (keeps DSE sweeps fast).
const maxPostMoves = 64

// postProcess implements Fig. 9: walk each sub-accelerator's sequence;
// wherever an idle gap follows an assignment, look ahead up to
// LookAhead positions for a layer that could have started at the gap
// and hoist it. A hoist is kept only if re-simulation confirms the
// makespan does not regress (and never reorders layers of the same
// instance, which would violate the dependence chain).
func (s *Scheduler) postProcess(h *accel.HDA, w *workload.Workload, sch *Schedule) (*Schedule, error) {
	if s.opts.LookAhead <= 0 {
		return sch, nil
	}
	seqs := s.extractSeqs(h, sch)
	cur := sch
	moves := 0

	// timeline maps each (instance, layer) to its assignment index in
	// cur.Assignments (indices, not copies; the dense scratch index is
	// rebuilt after every accepted move).
	off := resetInt(s.sim.tlOff, len(w.Instances)+1)
	for i, in := range w.Instances {
		off[i+1] = off[i] + len(in.Model.Layers)
	}
	s.sim.tlOff = off
	tl := resetInt(s.sim.tl, off[len(w.Instances)])
	s.sim.tl = tl
	at := func(it item) int { return tl[off[it.inst]+it.layer] }
	timeline := func(sc *Schedule) {
		for i := range tl {
			tl[i] = -1
		}
		for i := range sc.Assignments {
			a := &sc.Assignments[i]
			tl[off[a.Instance]+a.Layer] = i
		}
	}
	timeline(cur)

	for a := range seqs {
		for i := 0; i+1 < len(seqs[a]) && moves < maxPostMoves; i++ {
			hereEnd := cur.Assignments[at(seqs[a][i])].End
			nextStart := cur.Assignments[at(seqs[a][i+1])].Start
			if nextStart-hereEnd <= 0 {
				continue
			}
			// Search the look-ahead window for a hoistable layer.
			for la := 2; la <= s.opts.LookAhead+1 && i+la < len(seqs[a]); la++ {
				j := i + la
				cand := seqs[a][j]
				if sameInstanceBetween(seqs[a], i+1, j, cand.inst) {
					break // a predecessor of cand sits in the window; stop
				}
				// Quick test: the candidate must be startable at the
				// gap — its model predecessor complete (or, for a
				// first layer, its instance arrived) by the gap start.
				if cand.layer > 0 {
					pred := at(item{cand.inst, cand.layer - 1})
					if pred < 0 || cur.Assignments[pred].End > hereEnd {
						continue
					}
				} else if w.Instances[cand.inst].ArrivalCycle > hereEnd {
					continue
				}
				moves++
				trial := s.hoist(seqs, a, i+1, j)
				newSch, err := s.simulate(h, w, trial)
				if err != nil || newSch.MakespanCycles > cur.MakespanCycles ||
					s.flowTime(newSch) > s.flowTime(cur) {
					continue // revert (seqs unchanged; trial was scratch)
				}
				// Accept: the trial sequences become live (the old live
				// set becomes the next hoist scratch), and the trial
				// assignment buffer is retired from the double buffer
				// while cur holds it.
				s.sim.trialSeqs, seqs = seqs, trial
				s.sim.liveSeqs = seqs
				s.sim.cur = 1 - s.sim.cur
				cur = newSch
				timeline(cur)
				break
			}
		}
	}
	if cur != sch {
		// cur's assignments live in the trial scratch; detach them.
		// The superseded input schedule is dropped right here, so its
		// assignment storage goes back to the scheduler.
		cur.Assignments = append([]Assignment(nil), cur.Assignments...)
		s.Recycle(sch)
	}
	return cur, nil
}

// flowTime sums per-instance completion times — the guard that keeps
// post-processing from trading one instance's response time for
// another's idle slot without improving the makespan.
func (s *Scheduler) flowTime(sc *Schedule) int64 {
	s.sim.finish = resetInt64(s.sim.finish, len(sc.Workload.Instances))
	finish := s.sim.finish
	for i := range sc.Assignments {
		a := &sc.Assignments[i]
		if a.End > finish[a.Instance] {
			finish[a.Instance] = a.End
		}
	}
	var sum int64
	for _, f := range finish {
		sum += f
	}
	return sum
}

// sameInstanceBetween reports whether seq[from:to] contains a layer of
// the given instance (which would be an earlier layer — sequences
// preserve per-instance order — and therefore a dependence blocker).
func sameInstanceBetween(seq []item, from, to int, inst int) bool {
	for k := from; k < to; k++ {
		if seq[k].inst == inst {
			return true
		}
	}
	return false
}

// hoist returns the sequence set with seq[acc][j] moved to position
// `to` (shifting the window right by one), written into the
// scheduler's reusable trial-sequence scratch — the caller must treat
// the result as invalidated by the next hoist unless it swaps the
// scratch out (see postProcess).
func (s *Scheduler) hoist(seqs [][]item, acc, to, j int) [][]item {
	out := s.sim.trialSeqs
	if len(out) != len(seqs) {
		out = make([][]item, len(seqs))
	}
	for a := range seqs {
		out[a] = append(out[a][:0], seqs[a]...)
	}
	s.sim.trialSeqs = out
	moved := out[acc][j]
	copy(out[acc][to+1:j+1], out[acc][to:j])
	out[acc][to] = moved
	return out
}
