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
type Incremental struct {
	s     *Scheduler
	h     *accel.HDA
	st    *runState
	insts []workload.Instance
	name  string

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
	// instance can have at most one successor.
	After int
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

// LatencyCycles is the instance's response time: completion relative
// to arrival (queueing + execution).
func (p Placement) LatencyCycles() int64 { return p.FinishCycle - p.ArrivalCycle }

// QueueCycles is the time the instance waited before its first layer
// was issued.
func (p Placement) QueueCycles() int64 { return p.StartCycle - p.ArrivalCycle }

// Floor returns the current admission floor: the minimum arrival
// cycle Extend accepts.
func (inc *Incremental) Floor() int64 { return inc.floor }

// Prewarm resolves the cost columns of every model in w on the
// schedule's HDA without admitting anything, so the first real
// admissions start with a hot L0 table. A fleet migration prewarms
// the new generation's engines with the observed mix — the cost-cache
// locality handover that keeps post-migration admission latency flat.
func (inc *Incremental) Prewarm(w *workload.Workload) { inc.s.Prewarm(inc.h, w) }

// NumInstances returns the number of admitted instances so far.
func (inc *Incremental) NumInstances() int { return len(inc.insts) }

// MakespanCycles returns the committed schedule's makespan (Snapshot's
// MakespanCycles) without materializing it: the latest per-sub free
// cycle, which is the latest committed layer end on that sub — Preempt
// rewinds a sub's free cycle to its last surviving commit.
func (inc *Incremental) MakespanCycles() int64 { return slices.Max(inc.st.free) }

// SubBusyCycles returns a copy of the per-sub-accelerator busy cycles
// committed so far (Snapshot's SubBusyCycles).
func (inc *Incremental) SubBusyCycles() []int64 { return slices.Clone(inc.st.busy) }

// Extend admits the given instances, schedules every one of their
// layers against the committed timelines, and returns one Placement
// per admission (in admission order). Arrivals must be at or after
// Floor; arrivals within a batch may be in any order.
func (inc *Incremental) Extend(adms []Admission) ([]Placement, error) {
	if len(adms) == 0 {
		return nil, nil
	}
	base := len(inc.insts)
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
			p := a.After - 1
			if p < 0 || p >= base+i {
				return nil, fmt.Errorf("sched: admission %d names predecessor %d, want an earlier instance in [0, %d)",
					base+i, p, base+i)
			}
			taken := p < base && inc.st.succ[p] >= 0
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
	inc.st.link(base, adms, inc.insts)
	inc.st.prune = inc.floor

	mark := len(inc.st.assignments)
	if err := inc.s.run(inc.h, inc.insts, inc.st, minArrival, false); err != nil {
		inc.st.restore()
		inc.st.unlink(base, adms)
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
			Instance:     base + i,
			ArrivalCycle: adms[i].Instance.ArrivalCycle,
			StartCycle:   -1,
		}
	}
	added := inc.st.assignments[mark:]
	for i := range added {
		a := &added[i]
		p := &out[a.Instance-base]
		if p.StartCycle < 0 || a.Start < p.StartCycle {
			p.StartCycle = a.Start
		}
		if a.End > p.FinishCycle {
			p.FinishCycle = a.End
		}
		p.BusyCycles += a.Cost.Cycles
		p.EnergyPJ += a.Cost.Energy.Total()
	}
	return out, nil
}

// Snapshot materializes the committed schedule so far as a regular
// Schedule (over a synthesized workload holding every admitted
// instance), suitable for Validate, trace export and Gantt rendering.
func (inc *Incremental) Snapshot() *Schedule {
	w := &workload.Workload{
		Name:      inc.name,
		Instances: append([]workload.Instance(nil), inc.insts...),
	}
	sch := &Schedule{
		HDA:           inc.h,
		Workload:      w,
		Assignments:   append([]Assignment(nil), inc.st.assignments...),
		EnergyPJ:      inc.st.energyPJ,
		SubBusyCycles: append([]int64(nil), inc.st.busy...),
	}
	for i := range sch.Assignments {
		if e := sch.Assignments[i].End; e > sch.MakespanCycles {
			sch.MakespanCycles = e
		}
	}
	return sch
}
