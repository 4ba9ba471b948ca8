package sched

import (
	"fmt"
	"slices"

	"repro/internal/accel"
	"repro/internal/workload"
)

// Incremental is the online scheduling path: instead of receiving the
// whole workload up front (Schedule), model instances are admitted in
// arrival order and each admission extends the committed schedule in
// place. The per-sub-accelerator timelines, the shared-buffer memory
// ledger and all committed assignments persist across Extend calls, so
// a new request is placed against everything already running — the
// serving-time counterpart of Fig. 8's compile-time loop.
//
// Commitments are non-revocable: the Fig. 9 post-processing pass does
// not run (it reorders already-issued work, which an online engine
// cannot do). Instance priorities are supplied per admission rather
// than through Options.Priorities.
//
// Memory stays bounded by the work in flight, not by history: work
// that ended at or before the admission floor can no longer affect a
// placement (the argument that makes ledger pruning safe), so Extend
// retires the longest prefix of instances that finished there into
// counters (Retired). Global instance indices stay stable: the run
// state and insts hold the live window, and a global index is the
// retired count plus the window index.
type Incremental struct {
	s     *Scheduler
	h     *accel.HDA
	st    *runState
	insts []workload.Instance // the live window
	name  string

	// retired summarizes the instances folded out of the window;
	// retired.Instances is the global index of insts[0].
	retired Retired

	// done is the window index of the first instance not yet known to
	// be retirable (see retirable; the property never reverts).
	done int

	// open holds the global indices of instances admitted with
	// Admission.Continues whose successor has not been admitted yet:
	// a later After may still name them, so they never retire.
	open map[int]struct{}

	// floor is the admission floor: every later admission must arrive
	// at or after it, which is what makes memory-ledger pruning safe
	// (slots ending before the floor can never overlap future work).
	floor int64

	// susp holds the suspended (preempted, not yet resumed) instances
	// by global index; see Preempt/Resume in elastic.go. Suspended
	// instances are out of the visitation order, so Extend never
	// schedules their remaining layers.
	susp map[int]Checkpoint
}

// Incremental starts an empty incremental schedule on the given HDA.
// The scheduler's Options.Priorities must be unset; incremental
// priorities are per-admission.
func (s *Scheduler) Incremental(h *accel.HDA, name string) (*Incremental, error) {
	if h == nil || len(h.Subs) == 0 {
		return nil, fmt.Errorf("sched: nil or empty HDA")
	}
	if len(s.opts.Priorities) > 0 {
		return nil, fmt.Errorf("sched: incremental scheduling takes per-admission priorities, not Options.Priorities")
	}
	st := newRunState(len(h.Subs))
	st.costs = s.tableFor(h)
	return &Incremental{
		s:    s,
		h:    h,
		name: name,
		st:   st,
	}, nil
}

// Admission is one model instance being admitted to an incremental
// schedule, with its QoS priority (higher is more urgent).
type Admission struct {
	Instance workload.Instance
	Priority int

	// After optionally makes this admission a pipeline successor: the
	// value is 1 + the global instance index (Placement.Instance) of
	// the predecessor, so the zero value means "no predecessor". The
	// admitted instance's first layer cannot start before the
	// predecessor's last layer completes, and the predecessor's output
	// activation occupies the shared global buffer from its completion
	// until the successor's first layer starts (the inter-segment
	// handoff buffer). A predecessor may be in the same batch (at an
	// earlier position) or already admitted by an earlier Extend; each
	// instance can have at most one successor. A predecessor admitted
	// by an earlier Extend must carry Continues, or it may have retired
	// (naming a retired instance is an error).
	After int

	// Continues marks a pipeline segment whose successor a later
	// Extend may admit: the instance is never retired until an
	// admission names it in After, or EndChain drops the mark.
	Continues bool
}

// Placement reports where one admitted instance landed.
type Placement struct {
	Instance     int   // global instance index (stable across Extends)
	ArrivalCycle int64 // when the instance became ready
	StartCycle   int64 // first layer start
	FinishCycle  int64 // last layer end
	BusyCycles   int64 // sum of the instance's layer execution cycles
	EnergyPJ     float64
}

// add folds one of the instance's assignments into the placement
// (StartCycle -1 until the first).
func (p *Placement) add(a *Assignment) {
	if p.StartCycle < 0 || a.Start < p.StartCycle {
		p.StartCycle = a.Start
	}
	if a.End > p.FinishCycle {
		p.FinishCycle = a.End
	}
	p.BusyCycles += a.End - a.Start
	p.EnergyPJ += a.Cost.Energy.Total()
}

// LatencyCycles is the instance's response time: completion relative
// to arrival (queueing + execution).
func (p Placement) LatencyCycles() int64 { return p.FinishCycle - p.ArrivalCycle }

// QueueCycles is the time the instance waited before its first layer
// was issued.
func (p Placement) QueueCycles() int64 { return p.StartCycle - p.ArrivalCycle }

// Floor returns the current admission floor: the minimum arrival
// cycle Extend accepts.
func (inc *Incremental) Floor() int64 { return inc.floor }

// NumInstances returns the number of admitted instances so far,
// retired ones included: the next admission's global index.
func (inc *Incremental) NumInstances() int { return inc.retired.Instances + len(inc.insts) }

// MakespanCycles returns the committed schedule's makespan (Snapshot's
// MakespanCycles) without materializing it: the latest per-sub free
// cycle, which is the latest committed layer end on that sub — Preempt
// rewinds a sub's free cycle to its last surviving commit.
func (inc *Incremental) MakespanCycles() int64 { return slices.Max(inc.st.free) }

// SubBusyCycles returns a copy of the per-sub-accelerator busy cycles
// committed so far, retired work included (Snapshot's SubBusyCycles).
func (inc *Incremental) SubBusyCycles() []int64 { return slices.Clone(inc.st.busy) }

// EndChain drops the Continues mark of a placed instance whose
// successor will never be admitted (its chain broke), so the instance
// can retire. Unmarked or unknown instances are ignored.
func (inc *Incremental) EndChain(instance int) { delete(inc.open, instance) }

// Extend admits the given instances, schedules every one of their
// layers against the committed timelines, and returns one Placement
// per admission (in admission order). Arrivals must be at or after
// Floor; arrivals within a batch may be in any order.
func (inc *Incremental) Extend(adms []Admission) ([]Placement, error) {
	if len(adms) == 0 {
		return nil, nil
	}
	// base is the batch's first window index, off the retired count:
	// admission i gets global index off+base+i.
	base, off := len(inc.insts), inc.retired.Instances
	minArrival := adms[0].Instance.ArrivalCycle
	for i, a := range adms {
		if a.Instance.Model == nil || a.Instance.Model.NumLayers() == 0 {
			return nil, fmt.Errorf("sched: admission with nil or empty model")
		}
		if a.Instance.ArrivalCycle < inc.floor {
			return nil, fmt.Errorf("sched: admission arrives at cycle %d, before the admission floor %d",
				a.Instance.ArrivalCycle, inc.floor)
		}
		if a.Instance.ArrivalCycle < minArrival {
			minArrival = a.Instance.ArrivalCycle
		}
		if a.After != 0 {
			p, g := a.After-1, off+base+i
			if p < 0 || p >= g {
				return nil, fmt.Errorf("sched: admission %d names predecessor %d, want an earlier instance in [0, %d)",
					g, p, g)
			}
			if p < off {
				return nil, fmt.Errorf("sched: admission %d names retired predecessor %d (admit it with Continues)", g, p)
			}
			taken := p-off < base && inc.st.succ[p-off] >= 0
			for j := 0; j < i && !taken; j++ {
				taken = adms[j].After == a.After
			}
			if taken {
				return nil, fmt.Errorf("sched: predecessor instance %d already has a successor", p)
			}
		}
	}
	batch := make([]workload.Instance, len(adms))
	prios := make([]int, len(adms))
	for i, a := range adms {
		batch[i] = a.Instance
		prios[i] = a.Priority
	}
	// Take a rollback point so a failed run (e.g. a layer whose
	// occupancy can never fit the global buffer) rolls back cleanly
	// instead of poisoning every future Extend.
	inc.st.checkpoint(-1)
	inc.st.retire(inc.insts) // completed instances leave the hot loop
	inc.insts = append(inc.insts, batch...)
	inc.st.addInstances(batch, prios)
	inc.st.link(base, off, adms, inc.insts)
	inc.st.prune = inc.floor

	mark := inc.st.log.len()
	if err := inc.s.run(inc.h, inc.insts, inc.st, minArrival, false); err != nil {
		inc.st.restore()
		inc.st.unlink(base, off, adms)
		inc.insts = inc.insts[:base]
		return nil, err
	}
	inc.st.commit()
	inc.floor = max(inc.floor, minArrival)

	// Aggregate the new assignments into per-admission placements.
	// Every pre-existing instance was already complete, so the new
	// assignments belong exclusively to this batch.
	out := make([]Placement, len(adms))
	for i := range adms {
		out[i] = Placement{
			Instance:     off + base + i,
			ArrivalCycle: adms[i].Instance.ArrivalCycle,
			StartCycle:   -1,
		}
	}
	for a := range inc.st.log.from(mark) {
		out[a.Instance-base].add(a)
	}

	for i, a := range adms {
		if a.After != 0 {
			delete(inc.open, a.After-1)
		}
		if a.Continues {
			if inc.open == nil {
				inc.open = make(map[int]struct{})
			}
			inc.open[off+base+i] = struct{}{}
		}
	}
	inc.retire()
	return out, nil
}

// retirable reports whether window instance i can no longer affect a
// placement: it finished at or before the admission floor, it is not
// suspended (a suspended instance is unfinished), no later After may
// name it, and a fused successor has already consumed its handoff.
// Once true it stays true: the floor only rises, marks only clear, and
// nothing revokes layers that ended at or before the floor.
func (inc *Incremental) retirable(i int) bool {
	st := inc.st
	if st.nextLayer[i] < inc.insts[i].Model.NumLayers() || st.ready[i] > inc.floor {
		return false
	}
	if sc := st.succ[i]; sc >= 0 && st.nextLayer[sc] == 0 {
		return false
	}
	_, open := inc.open[inc.retired.Instances+i]
	return !open
}

// retire folds the longest retirable prefix of the window into
// inc.retired once it is at least half the window, so each instance is
// copied O(1) times amortized and the window stays within twice the
// instances in flight. Nothing a placement reads changes: the
// timelines, the ledger and the handoffs never referenced retired work
// except through its (kept) totals.
func (inc *Incremental) retire() {
	for inc.done < len(inc.insts) && inc.retirable(inc.done) {
		inc.done++
	}
	k := inc.done
	if k == 0 || 2*k < len(inc.insts) {
		return
	}
	st, r := inc.st, &inc.retired
	if r.BusyCycles == nil {
		r.BusyCycles = make([]int64, len(st.free))
		r.FrontierCycles = make([]int64, len(st.free))
	}

	// Assignments: the retired ones leave, the live ones shift to the
	// front re-indexed, and the retired totals are what the live window
	// no longer holds of the running totals.
	liveBusy := make([]int64, len(st.free))
	var liveEnergy float64
	st.log.filter(func(a *Assignment) bool {
		if a.Instance < k {
			r.Assignments++
			r.FrontierCycles[a.SubAcc] = max(r.FrontierCycles[a.SubAcc], a.End)
			return false
		}
		a.Instance -= k
		liveBusy[a.SubAcc] += a.End - a.Start
		liveEnergy += a.Cost.Energy.Total()
		return true
	})
	for a := range r.BusyCycles {
		r.BusyCycles[a] = st.busy[a] - liveBusy[a]
	}
	r.EnergyPJ = st.energyPJ - liveEnergy
	r.Instances += k

	// Per-instance state: shift the window to the front, re-index the
	// pipeline links. A live successor's retired predecessor is
	// complete, which is all run() asks of it.
	n := len(inc.insts) - k
	inc.insts = shiftDown(inc.insts, k)
	st.nextLayer = shiftDown(st.nextLayer, k)
	st.ready = shiftDown(st.ready, k)
	st.prio = shiftDown(st.prio, k)
	st.rows = shiftDown(st.rows, k)
	st.pred = shiftDown(st.pred, k)
	st.succ = shiftDown(st.succ, k)
	for i := 0; i < n; i++ {
		if p := st.pred[i]; p >= int32(k) {
			st.pred[i] = p - int32(k)
		} else if p >= 0 {
			st.pred[i] = retiredPred
		}
		if sc := st.succ[i]; sc >= 0 {
			st.succ[i] = sc - int32(k)
		}
	}
	// Finished instances may linger in the visitation order until the
	// next run prunes them (runState.retire); retired ones leave now.
	order := st.order[:0]
	for _, o := range st.order {
		if o >= k {
			order = append(order, o-k)
		}
	}
	st.order = order
	// A retired successor's handoff closed when its first layer started,
	// at or before the floor: prune would drop it on the next query.
	hs := st.handoffs[:0]
	for _, h := range st.handoffs {
		if h.succ >= int32(k) {
			h.succ -= int32(k)
			hs = append(hs, h)
		}
	}
	st.handoffs = hs
	inc.done = 0
}

// shiftDown drops the first k elements of s in place, clearing the
// vacated tail so it pins nothing.
func shiftDown[T any](s []T, k int) []T {
	n := copy(s, s[k:])
	clear(s[n:])
	return s[:n]
}

// Snapshot materializes the committed schedule as a regular Schedule:
// the live window (a synthesized workload holding the instances not
// yet retired, and their assignments) plus the retired totals, which
// the aggregates include. It is suitable for Validate, trace export
// and Gantt rendering, and costs O(window), not O(history).
func (inc *Incremental) Snapshot() *Schedule {
	w := &workload.Workload{
		Name:      inc.name,
		Instances: append([]workload.Instance(nil), inc.insts...),
	}
	sch := &Schedule{
		HDA:           inc.h,
		Workload:      w,
		Assignments:   inc.st.log.clone(),
		Past:          slices.Clone(inc.st.log.past),
		EnergyPJ:      inc.st.energyPJ,
		SubBusyCycles: append([]int64(nil), inc.st.busy...),
		Retired:       inc.retired.clone(),
	}
	for _, f := range sch.Retired.FrontierCycles {
		sch.MakespanCycles = max(sch.MakespanCycles, f)
	}
	for i := range sch.Assignments {
		if e := sch.Assignments[i].End; e > sch.MakespanCycles {
			sch.MakespanCycles = e
		}
	}
	return sch
}
