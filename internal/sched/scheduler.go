package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/accel"
	"repro/internal/dnn"
	"repro/internal/maestro"
	"repro/internal/workload"
)

// Scheduler generates layer execution schedules for HDAs using a
// shared cost-model cache.
//
// A Scheduler is NOT safe for concurrent use: it keeps a private
// unsynchronized L0 cost cache and scratch buffers so the steady-state
// assignment loop performs no heap allocations and no lock
// operations. Create one Scheduler per goroutine; cross-goroutine
// reuse of cost-model results happens through the shared (sharded)
// maestro.Cache they all sit in front of.
type Scheduler struct {
	cache *maestro.Cache
	opts  Options

	// tables is the scheduler's L0 cost cache: per HDA, each model
	// resolves to its per-sub-accelerator columns of interned cost
	// pointers plus precomputed ranking metrics (see costTable). The
	// assignment loop indexes these columns instead of hashing a full
	// (shape, style, HW) key per query — the same results as the
	// shared sharded cache, minus both the locks and the hashing.
	// Columns resolve once per (HDA, model) through the shared cache,
	// and the columns themselves are interned process-wide, so sibling
	// DSE partitions that share a sub-accelerator config never re-walk
	// the cost model.
	tables map[*accel.HDA]map[*dnn.Model]costTable

	// batch is the reusable run state of the whole-workload path: one
	// Schedule call's timelines, ledger, heap and scratch buffers are
	// recycled by the next call, so a DSE sweep's per-partition
	// allocation is the assignments that escape into the returned
	// Schedule, not the entire loop state.
	batch *runState

	// sim is the post-processing trial scratch (see post.go).
	sim simState

	// spare is a recycled assignment buffer (see Recycle).
	spare []Assignment
}

// New returns a scheduler over the given cost cache.
func New(cache *maestro.Cache, opts Options) (*Scheduler, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{
		cache:  cache,
		opts:   opts,
		tables: make(map[*accel.HDA]map[*dnn.Model]costTable),
	}, nil
}

// costTable is one (HDA, model) resolution: the interned per-sub
// cost columns (cols[a][layer]) and the scheduler metric of each
// entry (metric[a][layer]), precomputed so the hot ranking loop reads
// a float instead of re-deriving EDP per scheduling step. The values
// are the exact floats Metric.value produces — computing them once
// is bit-identical to computing them every step.
type costTable struct {
	cols   [][]*maestro.Cost
	metric [][]float64
}

// MustNew is New for statically-valid options.
func MustNew(cache *maestro.Cache, opts Options) *Scheduler {
	s, err := New(cache, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Options returns the scheduler's configuration.
func (s *Scheduler) Options() Options { return s.opts }

// maxTables bounds the per-HDA cost-column tables a scheduler retains.
// Tables are keyed by HDA pointer, so entries for discarded HDAs can
// never be re-hit; a scheduler fed a stream of fresh HDAs (a user-
// driven re-partitioning loop) would otherwise grow without bound.
// Eviction drops everything — tables rebuild cheaply through the
// shared interned column cache — and the cap is sized above any
// realistic sweep (a dse worker caches one HDA per partition so its
// tables stay warm across re-sweeps; wiping them mid-sweep would
// silently forfeit exactly that reuse, hence maxTables matches the
// sweeper's own memo cap).
const maxTables = 4096

// tableFor returns (creating if needed) the per-model cost-column
// table of one HDA.
func (s *Scheduler) tableFor(h *accel.HDA) map[*dnn.Model]costTable {
	t := s.tables[h]
	if t == nil {
		if len(s.tables) >= maxTables {
			clear(s.tables)
		}
		t = make(map[*dnn.Model]costTable)
		s.tables[h] = t
	}
	return t
}

// costCols returns model m's cost table on HDA h, resolving the
// columns through the shared interned column cache (and deriving the
// metric columns) on the model's first appearance.
func (s *Scheduler) costCols(h *accel.HDA, t map[*dnn.Model]costTable, m *dnn.Model) costTable {
	if ct, ok := t[m]; ok {
		return ct
	}
	ct := costTable{
		cols:   make([][]*maestro.Cost, len(h.Subs)),
		metric: make([][]float64, len(h.Subs)),
	}
	for a := range h.Subs {
		col := s.cache.CostColumn(m, h.Subs[a].Style, h.Subs[a].HW)
		ct.cols[a] = col
		mv := make([]float64, len(col))
		for li, c := range col {
			mv[li] = s.opts.Metric.value(c)
		}
		ct.metric[a] = mv
	}
	t[m] = ct
	return ct
}

// Prewarm resolves the cost columns of every model in w on HDA h
// without scheduling anything, so a later Schedule/Incremental run (or
// a DSE bound computation sharing the same interned columns) starts
// with a hot L0 table — useful for serving cold-start and for sweep
// handles that keep per-worker schedulers across searches.
func (s *Scheduler) Prewarm(h *accel.HDA, w *workload.Workload) {
	if h == nil || w == nil {
		return
	}
	t := s.tableFor(h)
	for i := range w.Instances {
		s.costCols(h, t, w.Instances[i].Model)
	}
}

// Recycle returns a schedule's assignment storage to the scheduler for
// reuse by a later Schedule call. Only safe when the caller owns the
// schedule and is dropping its last reference (a best-only DSE sweep
// discarding a losing design point); the schedule's Assignments are
// nilled to make accidental reuse loud.
func (s *Scheduler) Recycle(sch *Schedule) {
	if sch == nil || sch.Assignments == nil {
		return
	}
	if cap(sch.Assignments) > cap(s.spare) {
		s.spare = sch.Assignments[:0]
	}
	sch.Assignments = nil
}

// takeAssignments returns an empty assignment buffer with capacity for
// n commits, preferring the recycled spare over a fresh allocation.
func (s *Scheduler) takeAssignments(n int) []Assignment {
	if cap(s.spare) >= n {
		buf := s.spare[:0]
		s.spare = nil
		return buf
	}
	return make([]Assignment, 0, n)
}

// Schedule runs the Fig. 8 layer assignment and ordering algorithm
// followed (if enabled) by the Fig. 9 post-processing pass.
func (s *Scheduler) Schedule(h *accel.HDA, w *workload.Workload) (*Schedule, error) {
	if h == nil || len(h.Subs) == 0 {
		return nil, fmt.Errorf("sched: nil or empty HDA")
	}
	if w == nil || len(w.Instances) == 0 {
		return nil, fmt.Errorf("sched: nil or empty workload")
	}
	start := time.Now() //herald:nondet SchedulingTime is a diagnostic; placement never reads the wall clock

	sch, err := s.assign(h, w)
	if err != nil {
		return nil, err
	}
	if s.opts.PostProcess && len(h.Subs) > 1 {
		if improved, err := s.postProcess(h, w, sch); err == nil && improved != nil {
			sch = improved
		}
	}
	sch.SchedulingTime = time.Since(start) //herald:nondet SchedulingTime is a diagnostic; placement never reads the wall clock
	return sch, nil
}

// runSlot is one committed execution interval in the memory ledger.
type runSlot struct {
	start, end int64
	occ        int64
}

// ledger is the shared-buffer memory ledger: committed assignment
// intervals, kept per sub-accelerator. Per-sub-accelerator commits are
// serial (each start is at least the previous end), so within one
// sub-accelerator both starts and ends are non-decreasing — an overlap
// query reduces to two binary searches plus an occupancy prefix-sum
// difference, instead of the full-ledger rescan per commit attempt
// the original implementation did.
type ledger struct {
	slots [][]runSlot // per sub-acc, sorted by start AND end
	pre   [][]int64   // pre[a][i] = total occupancy of slots[a][:i]
	head  []int       // per sub-acc: first slot not yet pruned

	// hold is set while a rollback mark is live (see mark): prune then
	// only advances heads and leaves compaction to release, so every
	// slot index the mark recorded stays valid for rewind.
	hold bool
}

func (lg *ledger) init(nAcc int) {
	lg.slots = make([][]runSlot, nAcc)
	lg.pre = make([][]int64, nAcc)
	lg.head = make([]int, nAcc)
	for a := range lg.pre {
		lg.pre[a] = []int64{0}
	}
}

// reset empties the ledger for a fresh run on an nAcc-way HDA, keeping
// the slot/prefix capacity earlier runs grew.
func (lg *ledger) reset(nAcc int) {
	if len(lg.slots) != nAcc {
		lg.init(nAcc)
		return
	}
	for a := range lg.slots {
		if lg.slots[a] != nil {
			lg.slots[a] = lg.slots[a][:0]
		}
		lg.pre[a] = append(lg.pre[a][:0], 0)
		lg.head[a] = 0
	}
}

// grow pre-sizes each sub-accelerator's slot array for n upcoming
// commits (the batch path knows the workload size up front).
func (lg *ledger) grow(n int) {
	for a := range lg.slots {
		if lg.slots[a] == nil {
			lg.slots[a] = make([]runSlot, 0, n)
			lg.pre[a] = append(make([]int64, 0, n+1), 0)
		}
	}
}

// add appends one committed interval (starts are non-decreasing per
// sub-accelerator by construction).
func (lg *ledger) add(acc int, sl runSlot) {
	lg.slots[acc] = append(lg.slots[acc], sl)
	p := lg.pre[acc]
	lg.pre[acc] = append(p, p[len(p)-1]+sl.occ)
}

// prune advances the head past slots ending at or before floor (they
// can never overlap future work) and compacts the backing arrays once
// the dead prefix dominates, so a long-lived incremental schedule's
// ledger tracks the live window, not all history. While a rollback
// mark holds the ledger, compaction waits for the mark's release.
func (lg *ledger) prune(acc int, floor int64) {
	sl := lg.slots[acc]
	h := lg.head[acc]
	for h < len(sl) && sl[h].end <= floor {
		h++
	}
	lg.head[acc] = h
	if h >= 64 && 2*h >= len(sl) && !lg.hold {
		lg.slots[acc] = sl[:copy(sl, sl[h:])]
		p := lg.pre[acc]
		lg.pre[acc] = p[:copy(p, p[h:])]
		lg.head[acc] = 0
	}
}

// overlap returns the summed occupancy of the sub-accelerator's slots
// whose execution interval truly overlaps [startT, endT).
func (lg *ledger) overlap(acc int, startT, endT int64) int64 {
	sl := lg.slots[acc]
	// First slot with end > startT (ends are non-decreasing).
	lo, hi := lg.head[acc], len(sl)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sl[mid].end > startT {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	first := lo
	// First slot with start >= endT (starts are non-decreasing).
	hi = len(sl)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sl[mid].start >= endT {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lg.pre[acc][lo] - lg.pre[acc][first]
}

// ledgerMark is a ledger rollback point: per-sub slot counts and heads.
// While the mark holds, the ledger only appends slots and advances
// heads, so truncating to the counts and resetting the heads restores
// it exactly.
type ledgerMark struct {
	n, head []int
}

// mark records the rollback point into m (reusing its storage) and
// holds the ledger until release or rewind.
func (lg *ledger) mark(m *ledgerMark) {
	m.n, m.head = m.n[:0], m.head[:0]
	for a := range lg.slots {
		m.n = append(m.n, len(lg.slots[a]))
		m.head = append(m.head, lg.head[a])
	}
	lg.hold = true
}

// release drops the mark after a successful run and runs the
// compaction the hold deferred, so the arrays stay as short as
// compacting mid-run kept them.
func (lg *ledger) release() {
	lg.hold = false
	for a := range lg.slots {
		lg.prune(a, math.MinInt64) // advances no head; only compacts
	}
}

// rewind truncates the ledger back to mark m and releases it. The
// marked state needs no compaction: release already compacted it.
func (lg *ledger) rewind(m *ledgerMark) {
	for a := range lg.slots {
		lg.slots[a] = lg.slots[a][:m.n[a]]
		lg.pre[a] = lg.pre[a][:m.n[a]+1]
		lg.head[a] = m.head[a]
	}
	lg.hold = false
}

// event is one entry of the completion/readiness min-heap. Entries
// are validated lazily at pop time against the live free/ready
// values, so a superseded entry costs one pop instead of a heap
// deletion. A commit produces a single event carrying both the
// sub-accelerator and the instance whose times advanced to t (they
// are equal by construction): the entry stays valid while either
// live value still matches, exactly as the two separate entries it
// replaces would, at half the heap traffic. Seed entries carry only
// one side (the other index is -1).
type event struct {
	t    int64
	acc  int32 // sub-accelerator whose free[acc] == t, or -1
	inst int32 // instance whose ready[inst] == t, or -1
}

// candidate is one (sub-accelerator, cost) pair under ranking in
// tryAssign. It carries the interned cost pointer: ranking shuffles
// 32-byte entries, not ~250-byte Cost structs.
type candidate struct {
	acc    int
	finish int64
	metric float64
	cost   *maestro.Cost
}

// rankedBefore reports whether c ranks strictly before o: by earliest
// completion when the load-balancing feedback is active, by the
// preference metric otherwise, with the sub-accelerator index as the
// final tie-break. The order is strict and total, so any correct sort
// of candidates is unique.
func (c *candidate) rankedBefore(o *candidate, byFinish bool) bool {
	if byFinish && c.finish != o.finish {
		return c.finish < o.finish
	}
	if c.metric != o.metric {
		return c.metric < o.metric
	}
	return c.acc < o.acc
}

// handoff is one inter-segment activation buffer: a pipeline
// predecessor's final output occupying the shared global buffer from
// the predecessor's completion (start) until the successor's first
// layer starts (end; -1 while the successor has not started). succ
// names the waiting successor instance.
type handoff struct {
	start, end int64
	occ        int64
	succ       int32
}

// runState is the mutable state of the Fig. 8 main loop. It is also
// the persistent state of the incremental scheduling path: the
// per-sub-accelerator timelines, the memory ledger and the committed
// assignments survive across Extend calls, so a new admission is
// scheduled against everything already committed.
type runState struct {
	free      []int64 // per sub-accelerator: next free cycle
	busy      []int64 // per sub-accelerator: total busy cycles
	nextLayer []int   // per instance: next unscheduled layer
	ready     []int64 // per instance: completion time of its last layer
	order     []int   // instance visitation order (rearranged per Ordering)
	prio      []int   // per instance: QoS priority (higher first)
	pred      []int32 // per instance: pipeline predecessor (-1 = none)
	succ      []int32 // per instance: pipeline successor (-1 = none)
	ledger    ledger  // committed assignments not yet pruned (memory ledger)

	// handoffs are the live inter-segment activation buffers (see
	// handoff). The slice holds one entry per in-flight fused chain at
	// most, is empty whenever no admission carried a predecessor, and
	// released entries are dropped once they fall behind the prune
	// floor.
	handoffs []handoff

	// prune is the memory-ledger prune floor: slots ending at or
	// before it can never overlap future work. The batch path advances
	// it with the loop cycle; the incremental path pins it to the
	// admission floor, because a later Extend may legally place work
	// at cycles earlier than where this run's loop ended.
	prune int64

	// events is the completion/readiness min-heap behind nextEvent;
	// reseeded at the start of every run (see seedEvents). cands is
	// tryAssign's scratch ranking buffer. Both are reused so the
	// steady-state assignment loop allocates nothing.
	events []event
	cands  []candidate

	// costs is this run's HDA cost-column table (see Scheduler.tableFor)
	// and rows its per-instance resolution: rows[i] is instance i's
	// model cost table (cols[a][layer] + metric[a][layer]), so the hot
	// loop indexes arrays instead of performing any cache lookup at
	// all.
	costs map[*dnn.Model]costTable
	rows  []costTable

	// undo is the incremental path's rollback point (see checkpoint);
	// its storage is reused from run to run.
	undo checkpointState

	assignments []Assignment
	energyPJ    float64
	remaining   int
}

// newRunState returns an empty run state for an nAcc-way HDA.
func newRunState(nAcc int) *runState {
	st := &runState{
		free: make([]int64, nAcc),
		busy: make([]int64, nAcc),
	}
	st.ledger.init(nAcc)
	return st
}

// reset rewinds a reusable run state for a fresh batch run on an
// nAcc-way HDA: every array is emptied in place (capacity kept from
// earlier runs) except assignments, which escaped into the previous
// run's Schedule and must not be recycled.
func (st *runState) reset(nAcc int) {
	if len(st.free) != nAcc {
		st.free = make([]int64, nAcc)
		st.busy = make([]int64, nAcc)
	} else {
		for a := range st.free {
			st.free[a] = 0
			st.busy[a] = 0
		}
	}
	st.nextLayer = st.nextLayer[:0]
	st.ready = st.ready[:0]
	st.order = st.order[:0]
	st.prio = st.prio[:0]
	st.pred = st.pred[:0]
	st.succ = st.succ[:0]
	st.handoffs = st.handoffs[:0]
	st.rows = st.rows[:0]
	st.ledger.reset(nAcc)
	st.prune = 0
	st.events = st.events[:0]
	st.costs = nil
	st.assignments = nil
	st.energyPJ = 0
	st.remaining = 0
}

// addInstances appends instances (with priorities) to the run state;
// their first layers become ready at their arrival cycles.
func (st *runState) addInstances(insts []workload.Instance, prios []int) {
	for i, in := range insts {
		st.nextLayer = append(st.nextLayer, 0)
		st.ready = append(st.ready, in.ArrivalCycle)
		st.order = append(st.order, len(st.prio))
		p := 0
		if i < len(prios) {
			p = prios[i]
		}
		st.prio = append(st.prio, p)
		st.pred = append(st.pred, -1)
		st.succ = append(st.succ, -1)
		st.remaining += in.Model.NumLayers()
	}
	// QoS priorities: visit higher-priority instances first; the
	// Ordering heuristic arbitrates within a priority band (stable
	// sort preserves the previous visitation order).
	sort.SliceStable(st.order, func(i, j int) bool {
		return st.prio[st.order[i]] > st.prio[st.order[j]]
	})
}

// link wires one admission batch's pipeline precedence into the run
// state (addInstances must have run first). A predecessor that is
// already complete hands its output over immediately: the successor
// cannot become ready before the predecessor's recorded completion,
// and the activation has occupied the global buffer since then.
func (st *runState) link(base int, adms []Admission, insts []workload.Instance) {
	for i, a := range adms {
		if a.After == 0 {
			continue
		}
		p, sc := a.After-1, base+i
		st.pred[sc] = int32(p)
		st.succ[p] = int32(sc)
		if st.nextLayer[p] >= insts[p].Model.NumLayers() {
			if st.ready[p] > st.ready[sc] {
				st.ready[sc] = st.ready[p]
			}
			st.handoffs = append(st.handoffs, handoff{
				start: st.ready[p], end: -1,
				occ:  outputBytes(insts[p].Model),
				succ: int32(sc),
			})
		}
	}
}

// unlink clears the successor links a failed Extend set on
// pre-existing instances (restore truncates the batch's own entries,
// but cannot see cross-batch writes).
func (st *runState) unlink(base int, adms []Admission) {
	for _, a := range adms {
		if a.After != 0 && a.After-1 < base {
			st.succ[a.After-1] = -1
		}
	}
}

// closeHandoff releases a successor's incoming handoff buffer: the
// predecessor's output leaves the global buffer once the successor's
// first layer starts consuming it.
func (st *runState) closeHandoff(inst int, startT int64) {
	for i := range st.handoffs {
		if st.handoffs[i].succ == int32(inst) && st.handoffs[i].end < 0 {
			st.handoffs[i].end = startT
			return
		}
	}
}

// handoffOverlap sums the inter-segment activation buffers live during
// [startT, endT), skipping the querying instance's own incoming buffer
// (its input is what the layer consumes, not an extra resident), and
// dropping released buffers that fell behind the prune floor.
func (st *runState) handoffOverlap(inst int, startT, endT int64) int64 {
	var sum int64
	live := st.handoffs[:0]
	for _, h := range st.handoffs {
		if h.end >= 0 && h.end <= st.prune {
			continue
		}
		live = append(live, h)
		if int(h.succ) == inst {
			continue
		}
		if h.start < endT && (h.end < 0 || h.end > startT) {
			sum += h.occ
		}
	}
	st.handoffs = live
	return sum
}

// outputBytes returns the size of a model's final output activation —
// the inter-segment handoff buffer a fused successor consumes. Element
// counts double as bytes, matching the cost model's activation traffic
// convention.
func outputBytes(m *dnn.Model) int64 {
	return m.Layers[len(m.Layers)-1].OutputElems()
}

// checkpointState captures everything a failed incremental run must
// roll back: copies of the small arrays run() rewrites in place, a
// ledger mark, and lengths of the append-only per-instance arrays. The
// event heap is not captured — every run reseeds it.
type checkpointState struct {
	free, busy []int64
	order      []int
	handoffs   []handoff
	ledger     ledgerMark
	nInsts     int // nextLayer/ready/prio length
	nAssign    int
	remaining  int
	energyPJ   float64
	prune      int64

	// resumed is the suspended instance a Resume re-enters (-1 for an
	// Extend) — the only pre-existing instance a run advances — with
	// the values the run overwrites.
	resumed   int
	nextLayer int
	ready     int64
	prio      int
}

// checkpoint takes the rollback point of an incremental run into
// st.undo. Cost: O(subs + active instances + live handoffs), never
// the ledger or the committed history.
func (st *runState) checkpoint(resumed int) {
	c := &st.undo
	c.free = append(c.free[:0], st.free...)
	c.busy = append(c.busy[:0], st.busy...)
	c.order = append(c.order[:0], st.order...)
	c.handoffs = append(c.handoffs[:0], st.handoffs...)
	st.ledger.mark(&c.ledger)
	c.nInsts = len(st.nextLayer)
	c.nAssign = len(st.assignments)
	c.remaining = st.remaining
	c.energyPJ = st.energyPJ
	c.prune = st.prune
	c.resumed = resumed
	if resumed >= 0 {
		c.nextLayer, c.ready, c.prio = st.nextLayer[resumed], st.ready[resumed], st.prio[resumed]
	}
}

// commit keeps a successful run and releases the ledger mark.
func (st *runState) commit() { st.ledger.release() }

// restore rewinds the run state to the checkpoint.
func (st *runState) restore() {
	c := &st.undo
	copy(st.free, c.free)
	copy(st.busy, c.busy)
	st.order = append(st.order[:0], c.order...)
	st.handoffs = append(st.handoffs[:0], c.handoffs...)
	st.ledger.rewind(&c.ledger)
	if r := c.resumed; r >= 0 {
		st.nextLayer[r], st.ready[r], st.prio[r] = c.nextLayer, c.ready, c.prio
	}
	st.nextLayer = st.nextLayer[:c.nInsts]
	st.ready = st.ready[:c.nInsts]
	st.prio = st.prio[:c.nInsts]
	st.pred = st.pred[:c.nInsts]
	st.succ = st.succ[:c.nInsts]
	if len(st.rows) > c.nInsts {
		st.rows = st.rows[:c.nInsts]
	}
	st.assignments = st.assignments[:c.nAssign]
	st.remaining = c.remaining
	st.energyPJ = c.energyPJ
	st.prune = c.prune
}

// retire drops fully-scheduled instances from the visitation order so
// a long-lived incremental schedule's per-admission cost tracks the
// number of *active* instances, not every instance ever admitted.
func (st *runState) retire(insts []workload.Instance) {
	active := st.order[:0]
	for _, inst := range st.order {
		if st.nextLayer[inst] < insts[inst].Model.NumLayers() {
			active = append(active, inst)
		}
	}
	st.order = active
}

// assign is the whole-workload entry point of Fig. 8: it rewinds the
// scheduler's reusable batch run state, admits every instance, and
// drains it with run. Only the assignments (which escape into the
// returned Schedule) are freshly allocated per call.
func (s *Scheduler) assign(h *accel.HDA, w *workload.Workload) (*Schedule, error) {
	n := len(w.Instances)
	if len(s.opts.Priorities) > 0 && len(s.opts.Priorities) != n {
		return nil, fmt.Errorf("sched: %d priorities for %d instances", len(s.opts.Priorities), n)
	}
	if s.batch == nil {
		s.batch = newRunState(len(h.Subs))
	}
	st := s.batch
	st.reset(len(h.Subs))
	st.costs = s.tableFor(h)
	st.addInstances(w.Instances, s.opts.Priorities)
	st.assignments = s.takeAssignments(st.remaining)
	st.ledger.grow(st.remaining)

	if err := s.run(h, w.Instances, st, 0, true); err != nil {
		return nil, err
	}
	return s.finalize(h, w, st), nil
}

// run is the direct codification of Fig. 8's main loop: it drains
// st.remaining layers of insts, starting the scheduling clock at the
// given cycle. advancePrune moves the memory-ledger prune floor along
// with the clock (valid only when no later run may revisit earlier
// cycles, i.e. the batch path).
func (s *Scheduler) run(h *accel.HDA, insts []workload.Instance, st *runState, cycle int64, advancePrune bool) error {
	// Resolve each (new) instance's cost table up front: the loop
	// body then reads costs by array index only.
	for i := len(st.rows); i < len(insts); i++ {
		ct, ok := st.costs[insts[i].Model]
		if !ok {
			ct = s.costCols(h, st.costs, insts[i].Model)
		}
		st.rows = append(st.rows, ct)
	}
	// The heap peaks at the seed entries plus one push per commit;
	// reserving that up front keeps the drain reallocation-free.
	if need := len(st.free) + len(st.order) + st.remaining; cap(st.events) < need {
		st.events = make([]event, 0, need)
	}
	st.seedEvents()
	for st.remaining > 0 {
		if advancePrune && cycle > st.prune {
			st.prune = cycle
		}
		assignedInst := -1
		for _, inst := range st.order {
			li := st.nextLayer[inst]
			if li >= insts[inst].Model.NumLayers() {
				continue
			}
			// Pipeline precedence: a fused successor may not start
			// until its predecessor instance has fully committed (its
			// completion then raises ready below).
			if p := st.pred[inst]; p >= 0 && st.nextLayer[p] < insts[p].Model.NumLayers() {
				continue
			}
			// Dependence condition: the previous layer of this model
			// instance must be complete at the current cycle.
			if st.ready[inst] > cycle {
				continue
			}
			if s.tryAssign(h, insts, st, cycle, inst, li) {
				assignedInst = inst
				break
			}
		}
		if assignedInst >= 0 {
			s.rearrange(st, assignedInst)
			continue
		}
		// Failed to schedule anything at this cycle: defer execution to
		// the next completion event (Fig. 8's nextLayerCompletionTime).
		next, ok := st.nextEvent(cycle)
		if !ok {
			return fmt.Errorf("sched: no schedulable layer and no pending event at cycle %d (memory deadlock?)", cycle)
		}
		cycle = next
	}
	return nil
}

// tryAssign evaluates the layer on every sub-accelerator, ranks them by
// the configured metric, and assigns to the best candidate satisfying
// the memory and load-balancing conditions (falling back to the best
// memory-feasible candidate when balancing rejects all).
func (s *Scheduler) tryAssign(h *accel.HDA, insts []workload.Instance, st *runState, cycle int64, inst, li int) bool {
	ct := st.rows[inst]
	nAcc := len(h.Subs)

	// Dataflow-preference-based assignment by default; when the load
	// across sub-accelerators is unbalanced, the feedback loop instead
	// ranks by earliest completion time — the alternative assignment
	// that reduces overall cost (§IV-D's global load-balancing).
	byFinish := s.imbalanced(st, cycle)

	if cap(st.cands) < nAcc {
		st.cands = make([]candidate, 0, nAcc)
	}
	cands := st.cands[:0]
	for a := 0; a < nAcc; a++ {
		c := ct.cols[a][li]
		nc := candidate{
			acc: a, cost: c,
			metric: ct.metric[a][li],
			finish: max(cycle, st.free[a]) + c.Cycles,
		}
		// Insertion-ordered ranking into the scratch buffer:
		// sub-accelerator counts are tiny, so this replaces a
		// sort.Slice call (and its per-layer closure allocations).
		i := len(cands)
		cands = append(cands, nc)
		for i > 0 && nc.rankedBefore(&cands[i-1], byFinish) {
			cands[i] = cands[i-1]
			i--
		}
		cands[i] = nc
	}

	for i := range cands {
		c := &cands[i]
		startT := max(cycle, st.free[c.acc])
		endT := startT + c.cost.Cycles
		if !s.memOK(h, st, inst, startT, endT, c.cost.OccupancyBytes) {
			continue
		}
		st.free[c.acc] = endT
		st.busy[c.acc] += c.cost.Cycles
		st.ready[inst] = endT
		st.nextLayer[inst]++
		st.remaining--
		st.energyPJ += c.cost.Energy.Total()
		st.ledger.add(c.acc, runSlot{start: startT, end: endT, occ: c.cost.OccupancyBytes})
		st.pushEvent(endT, c.acc, inst)
		st.assignments = append(st.assignments, Assignment{
			Instance: inst, Layer: li, SubAcc: c.acc,
			Start: startT, End: endT, Cost: c.cost,
		})
		if li == 0 && st.pred[inst] >= 0 {
			// First layer of a fused successor: release the incoming
			// handoff buffer at its start.
			st.closeHandoff(inst, startT)
		}
		if li+1 == insts[inst].Model.NumLayers() {
			if sc := st.succ[inst]; sc >= 0 {
				// Last layer of a fused predecessor: the successor
				// becomes ready at completion, and the output
				// activation occupies the buffer until it starts.
				if endT > st.ready[sc] {
					st.ready[sc] = endT
				}
				st.handoffs = append(st.handoffs, handoff{
					start: endT, end: -1,
					occ:  outputBytes(insts[inst].Model),
					succ: sc,
				})
			}
		}
		return true
	}
	return false // no memory-feasible sub-accelerator at this cycle; defer
}

// imbalanced implements the unbalanced-load detector of §IV-D: the
// largest *pending* work (queue depth beyond the current cycle) across
// sub-accelerators divided by the smallest exceeds the user's maximum
// allowed load-unbalancing factor. While balanced, assignment follows
// pure dataflow preference; once unbalanced, the feedback loop
// switches to completion-time-aware assignment. A sub-accelerator
// sitting idle while another has a queue is the canonical imbalance.
func (s *Scheduler) imbalanced(st *runState, cycle int64) bool {
	lbf := s.opts.LoadBalanceFactor
	if lbf >= inf() {
		return false
	}
	var lo, hi int64
	for i, f := range st.free {
		d := f - cycle
		if d < 0 {
			d = 0
		}
		if i == 0 || d < lo {
			lo = d
		}
		if i == 0 || d > hi {
			hi = d
		}
	}
	if hi == 0 {
		return false // everything idle: pure preference
	}
	if lo <= 0 {
		return true // someone idle while someone else queues
	}
	return float64(hi) > lbf*float64(lo)
}

// memOK checks the global-memory-size condition: the sum of buffer
// occupancies of all assignments whose execution interval truly
// overlaps the candidate's [startT, endT), plus the live inter-segment
// handoff buffers, plus the new layer's occupancy, must fit the shared
// global buffer. The ledger prunes incrementally by the
// monotonically-advancing prune floor (in the incremental path the
// floor lags the loop cycle, because future admissions may place work
// before where this run's clock ended).
func (s *Scheduler) memOK(h *accel.HDA, st *runState, inst int, startT, endT, occ int64) bool {
	sum := occ
	for a := range st.ledger.slots {
		st.ledger.prune(a, st.prune)
		sum += st.ledger.overlap(a, startT, endT)
	}
	if len(st.handoffs) > 0 {
		sum += st.handoffOverlap(inst, startT, endT)
	}
	return sum <= h.Class.GlobalBufBytes
}

// rearrange applies the layer-ordering strategy after a successful
// assignment (Fig. 8's rearrange(MD)).
func (s *Scheduler) rearrange(st *runState, inst int) {
	if s.opts.Ordering == DepthFirst {
		return // keep draining the same model
	}
	// Breadth-first: rotate the just-served instance to the back of
	// its priority band (the global back when no priorities are set).
	pos := -1
	for i, v := range st.order {
		if v == inst {
			pos = i
			break
		}
	}
	if pos < 0 {
		return
	}
	p := st.prio[inst]
	end := pos
	for end+1 < len(st.order) && st.prio[st.order[end+1]] == p {
		end++
	}
	copy(st.order[pos:end], st.order[pos+1:end+1])
	st.order[end] = inst
}

// seedEvents rebuilds the event heap from the live timeline state:
// one completion entry per sub-accelerator and one readiness entry
// per visitable instance. run() reseeds once per drain — within a run
// the scheduling clock is monotone (so pop-side discards are final),
// but a later incremental Extend may restart the clock earlier, which
// a stale heap must not survive.
func (st *runState) seedEvents() {
	st.events = st.events[:0]
	for a, t := range st.free {
		st.pushEvent(t, a, -1)
	}
	for _, inst := range st.order {
		st.pushEvent(st.ready[inst], -1, inst)
	}
}

// pushEvent sifts a new event into the min-heap.
func (st *runState) pushEvent(t int64, acc, inst int) {
	ev := append(st.events, event{t: t, acc: int32(acc), inst: int32(inst)})
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) / 2
		if ev[p].t <= ev[i].t {
			break
		}
		ev[p], ev[i] = ev[i], ev[p]
		i = p
	}
	st.events = ev
}

// popEvent removes and returns the minimum event.
func (st *runState) popEvent() event {
	ev := st.events
	top := ev[0]
	n := len(ev) - 1
	ev[0] = ev[n]
	ev = ev[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && ev[r].t < ev[c].t {
			c = r
		}
		if ev[i].t <= ev[c].t {
			break
		}
		ev[i], ev[c] = ev[c], ev[i]
		i = c
	}
	st.events = ev
	return top
}

// nextEvent returns the earliest completion or readiness event after
// the given cycle. Entries that no longer match the live free/ready
// value (superseded by a later commit) or that sit at or before the
// clock are discarded as they surface — within a run the clock is
// monotone, so neither kind can become relevant again.
func (st *runState) nextEvent(cycle int64) (int64, bool) {
	for len(st.events) > 0 {
		e := st.events[0]
		live := e.acc >= 0 && st.free[e.acc] == e.t ||
			e.inst >= 0 && st.ready[e.inst] == e.t
		st.popEvent()
		if !live || e.t <= cycle {
			continue
		}
		return e.t, true
	}
	return 0, false
}

// finalize converts run state into a Schedule with aggregate metrics.
// The busy cycles are copied out: st may be the scheduler's reusable
// batch scratch, which the next Schedule call rewinds.
func (s *Scheduler) finalize(h *accel.HDA, w *workload.Workload, st *runState) *Schedule {
	sch := &Schedule{
		HDA:           h,
		Workload:      w,
		Assignments:   st.assignments,
		EnergyPJ:      st.energyPJ,
		SubBusyCycles: append([]int64(nil), st.busy...),
	}
	for i := range sch.Assignments {
		if e := sch.Assignments[i].End; e > sch.MakespanCycles {
			sch.MakespanCycles = e
		}
	}
	return sch
}

// occEvent is one entry of the peak-occupancy sweep: an encoded key
// (cycle << 1, releases before claims at the same cycle) and an
// occupancy delta.
type occEvent struct {
	key int64 // t<<1 | kind: release (end) = 0, claim (start) = 1
	d   int64
}

// peakOccupancySweep sweeps assignment intervals and returns the
// maximum concurrent global-buffer occupancy. Events sort by an
// encoded key through the generic sort, avoiding sort.Slice's
// reflection-based swaps. It runs only for schedules whose peak is
// actually read (see Schedule.PeakOccupancyBytes) plus Validate, so
// it allocates its own event buffer.
func peakOccupancySweep(as []Assignment) int64 {
	evs := make([]occEvent, 0, 2*len(as))
	for i := range as {
		evs = append(evs,
			occEvent{key: as[i].Start<<1 | 1, d: as[i].Cost.OccupancyBytes},
			occEvent{key: as[i].End << 1, d: -as[i].Cost.OccupancyBytes})
	}
	slices.SortFunc(evs, func(a, b occEvent) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	var cur, peak int64
	for _, e := range evs {
		cur += e.d
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
