package serve

// Elastic serving surface: Preempt revokes the scheduled-but-future
// suffix of low-priority completed placements at the current layer
// boundary and re-queues them for resumption; Reassign re-sizes the
// HDA's sub-accelerator slices between committed layers. Both build on
// the sched-layer primitives (Incremental.Preempt/Resume/Reassign) and
// keep the engine's conservation invariant: a preempted request moves
// from Completed back to in-flight and lands in Completed (or Failed)
// exactly once more when its suffix is rescheduled.
//
// Determinism: Preempt picks victims by (latest finish, then highest
// id) over a slice maintained in admission order, and resumptions are
// admitted by the next Admit like everything else, so identical call
// sequences yield identical schedules.

import (
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/sched"
)

// StatusPreempted marks a request whose placement was revoked at a
// layer boundary (Engine.Preempt): its already-executed prefix stands,
// its remaining layers are re-queued for resumption. The status is
// internal-transient — the record returns to StatusDone (or
// StatusFailed) when the resumption is scheduled — but it is exported
// so record dumps taken mid-preemption are self-describing.
const StatusPreempted Status = "preempted"

// preemptee tracks one revocable placement: an unfused request whose
// committed placement still extends past the admission floor, so a
// Preempt can roll back layers. Guarded by e.mu.
type preemptee struct {
	id        int64
	rec       *Record // the record backing e.records[id] at registration
	schedInst int     // global schedule instance index
	finish    int64   // committed finish cycle
	prio      int
}

// resumeState carries a preempted request's checkpoint through the
// queue to its resumption round. prefix* hold the surviving
// already-executed prefix's contribution, merged back into the record
// when the suffix lands; prefixStart is the prefix's original start
// cycle, or -1 when the whole instance was rolled back (no prefix).
type resumeState struct {
	cp           sched.Checkpoint
	prefixBusy   int64
	prefixEnergy float64
	prefixStart  int64
}

// extendElastic is the scheduling round's admission step: resume
// pendings go through Incremental.Resume one by one, everything else
// through the batched extendBatch. With no resumptions in the batch it
// is exactly extendBatch — the elastic-off fast path the golden
// fingerprints pin. e.schedMu held.
func (e *Engine) extendElastic(batch []*pending) ([]sched.Placement, []error) {
	hasResume := false
	for _, p := range batch {
		if p.resume != nil {
			hasResume = true
			break
		}
	}
	if !hasResume {
		return e.extendBatch(batch)
	}

	placements := make([]sched.Placement, len(batch))
	errs := make([]error, len(batch))
	rest := make([]*pending, 0, len(batch))
	restIdx := make([]int, 0, len(batch))
	for i, p := range batch {
		if p.resume == nil {
			rest = append(rest, p)
			restIdx = append(restIdx, i)
			continue
		}
		placements[i], errs[i] = e.inc.Resume(p.resume.cp, p.rec.Priority, e.inc.Floor())
	}
	if len(rest) > 0 {
		ps, es := e.extendBatch(rest)
		for k, i := range restIdx {
			placements[i], errs[i] = ps[k], es[k]
		}
	}
	return placements, errs
}

// Preempt revokes up to max committed placements of requests with
// priority strictly below belowPriority, rolling each back to the
// current layer boundary (the admission floor) and re-queuing the
// remainder for resumption on its tenant's queue. Victims are chosen
// latest-finish-first (ties: newest request first) — the work that
// frees the most future capacity per preemption. Requests whose
// placements end at or before the boundary effectively finished and
// are skipped. Fused chains are never preempted (their handoff buffers
// tie segments together). Returns the number of requests preempted;
// always 0 unless Options.Elastic is set.
//
// A preempted request's ticket has typically already been released
// with the original completion; the revised placement is visible
// through Lookup and the engine statistics, which treat the request as
// in-flight again until its resumption lands. Completion hooks do NOT
// re-fire on resumption — the original delivery was the only one.
func (e *Engine) Preempt(belowPriority, max int) int {
	if max <= 0 {
		return 0
	}
	e.schedMu.Lock()
	defer e.schedMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.opts.Elastic || e.crashed {
		return 0
	}

	boundary := e.inc.Floor()
	e.prunePreemptibleLocked(boundary)
	cands := make([]*preemptee, 0, len(e.preemptible))
	for _, pe := range e.preemptible {
		if pe.prio < belowPriority {
			cands = append(cands, pe)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].finish != cands[j].finish {
			return cands[i].finish > cands[j].finish
		}
		return cands[i].id > cands[j].id
	})

	n := 0
	for _, pe := range cands {
		if n >= max {
			break
		}
		cp, err := e.inc.Preempt(pe.schedInst, boundary)
		if err != nil {
			// Nothing revocable (the boundary only ever advances, so
			// this entry is permanently exhausted): drop it.
			e.removePreemptibleLocked(pe.id)
			continue
		}
		e.applyPreemptLocked(pe, cp)
		n++
	}
	if n > 0 {
		e.cond.Signal() // wake a live engine's driver
	}
	return n
}

// applyPreemptLocked moves one preempted request from completed back
// to in-flight: reverses its completion statistics, replaces its
// published record with a StatusPreempted copy (ticket holders keep
// the original — records handed out are never mutated after their
// done channel closed), and enqueues a resume pending carrying the
// checkpoint. e.mu and e.schedMu held.
func (e *Engine) applyPreemptLocked(pe *preemptee, cp sched.Checkpoint) {
	rec := pe.rec
	e.agg(rec.Tenant).dropRecord(rec)
	for i, id := range e.doneFIFO {
		if id == rec.ID {
			e.doneFIFO = append(e.doneFIFO[:i], e.doneFIFO[i+1:]...)
			break
		}
	}

	rs := &resumeState{
		cp:           cp,
		prefixBusy:   rec.BusyCycles - cp.FreedBusyCycles,
		prefixEnergy: rec.EnergyPJ - cp.FreedEnergyPJ,
		prefixStart:  rec.StartCycle,
	}
	if cp.NextLayer == 0 {
		rs.prefixStart = -1 // the whole instance rolled back
	}
	nrec := new(Record)
	*nrec = *rec
	nrec.Status = StatusPreempted
	nrec.StartCycle = 0
	nrec.FinishCycle = 0
	nrec.QueueCycles = 0
	nrec.LatencyCycles = 0
	nrec.BusyCycles = rs.prefixBusy
	nrec.EnergyPJ = rs.prefixEnergy
	nrec.SLAViolated = false
	e.records[nrec.ID] = nrec

	p := &pending{
		rec:    nrec,
		done:   make(chan struct{}),
		resume: rs,
	}
	if len(e.queues[rec.Tenant]) == 0 {
		e.rr = append(e.rr, rec.Tenant)
	}
	e.queues[rec.Tenant] = append(e.queues[rec.Tenant], p)
	e.npending++
	e.preemptions++
	e.removePreemptibleLocked(rec.ID)
}

// admitResumeLocked publishes a resumption's outcome: the resumed
// suffix's placement merges with the checkpointed prefix into the
// record, completion statistics are re-applied, and the done channel
// closes. No completion hook fires — the original completion already
// delivered this request. A failed resumption (the suffix cannot be
// rescheduled) finalizes the request as failed; the sched layer keeps
// it suspended, conserving the busy/ledger accounting. e.mu held.
func (e *Engine) admitResumeLocked(p *pending, pl sched.Placement, err error, floor int64) {
	rec := p.rec
	rs := p.resume
	if err != nil {
		rec.Status = StatusFailed
		rec.Err = err.Error()
		e.agg(rec.Tenant).AddRecord(rec)
		e.finishLocked(rec.ID)
		close(p.done)
		return
	}
	rec.Status = StatusDone
	rec.Instance = pl.Instance
	rec.StartCycle = pl.StartCycle
	if rs.prefixStart >= 0 {
		rec.StartCycle = rs.prefixStart
	}
	rec.FinishCycle = pl.FinishCycle
	rec.BusyCycles = rs.prefixBusy + pl.BusyCycles
	rec.EnergyPJ = rs.prefixEnergy + pl.EnergyPJ
	rec.LatencyCycles = pl.FinishCycle - rec.ArrivalCycle
	rec.QueueCycles = rec.StartCycle - rec.ArrivalCycle
	rec.SLAViolated = rec.SLACycles > 0 && rec.LatencyCycles > rec.SLACycles
	e.agg(rec.Tenant).AddRecord(rec)
	if pl.FinishCycle > e.maxFinishCycle {
		e.maxFinishCycle = pl.FinishCycle
	}
	e.resumptions++
	e.finishLocked(rec.ID)
	close(p.done)
	e.trackPreemptibleLocked(p, pl, floor) // a resumed request is revocable again
}

// trackPreemptibleLocked registers a freshly-placed unfused request as
// a preemption candidate and prunes entries whose placements the
// admission floor has fully passed. Only called when Options.Elastic
// is set. e.mu held.
func (e *Engine) trackPreemptibleLocked(p *pending, pl sched.Placement, floor int64) {
	e.prunePreemptibleLocked(floor)
	if pl.FinishCycle <= floor {
		return
	}
	e.preemptible = append(e.preemptible, &preemptee{
		id:        p.rec.ID,
		rec:       p.rec,
		schedInst: pl.Instance,
		finish:    pl.FinishCycle,
		prio:      p.rec.Priority,
	})
}

// prunePreemptibleLocked drops candidates whose placements end at or
// before the floor: their every layer is committed history. e.mu held.
func (e *Engine) prunePreemptibleLocked(floor int64) {
	live := e.preemptible[:0]
	for _, pe := range e.preemptible {
		if pe.finish > floor {
			live = append(live, pe)
		}
	}
	e.preemptible = live
}

// removePreemptibleLocked removes one candidate by record id. e.mu
// held.
func (e *Engine) removePreemptibleLocked(id int64) {
	for i, pe := range e.preemptible {
		if pe.id == id {
			e.preemptible = append(e.preemptible[:i], e.preemptible[i+1:]...)
			return
		}
	}
}

// Reassign re-sizes the engine's sub-accelerator slices at the current
// layer boundary: committed layers keep their historical costs,
// everything scheduled afterwards is costed on the new slice sizes
// (see sched.Incremental.Reassign). The partition count must match the
// HDA's sub count — changing the number of slices is a migration, not
// a reassignment. Reassign does not require Options.Elastic: an engine
// that is never reassigned is bit-identical to one without the
// capability.
func (e *Engine) Reassign(parts []accel.Partition) error {
	e.schedMu.Lock()
	defer e.schedMu.Unlock()
	e.mu.Lock()
	crashed := e.crashed
	e.mu.Unlock()
	if crashed {
		return fmt.Errorf("serve: reassign on a crashed engine")
	}
	nh, err := e.inc.Reassign(parts)
	if err != nil {
		return err
	}
	e.hda.Store(newServingHDA(nh))
	e.mu.Lock()
	e.reassigns++
	e.mu.Unlock()
	return nil
}
