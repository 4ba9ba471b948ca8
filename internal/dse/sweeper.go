package dse

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/dnn"
	"repro/internal/maestro"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Sweeper is a reusable handle over one (space, options) search
// configuration: per-worker schedulers with warm L0 cost tables, and
// one memo slot per partition holding its HDA (stable HDA pointers
// keep those tables hot across sweeps) and the bound summaries behind
// Options.Prune. Build one with NewSweeper and call Sweep repeatedly —
// a serving fleet holds a Sweeper so re-running the partition search
// on an observed workload mix (fleet.Resweep) costs a warm sweep, not
// a cold one.
//
// A Sweep enumerates the space in blocks of at most sched.MaxTables
// partitions and hands each block to the worker pool off one atomic
// cursor. The slots deliberately cache the swept space across sweeps —
// that is what makes a warm Resweep cheap — but a fleet-held Sweeper
// over a huge space must not grow without bound, so each block reuses
// the slots of the last, and the schedulers' per-HDA tables are
// evicted on the same scale. Unpruned sweeps evaluate a block in
// enumeration order. Pruned best-only sweeps are best-first
// branch-and-bound: the pool first computes every partition's lower
// bound, then evaluates the block in (bound, enumeration index) order,
// and a worker stops at the first bound above the shared best
// (bound.go has the soundness and cut argument).
//
// A Sweeper is NOT safe for concurrent Sweep calls (each call uses the
// whole worker pool); serialize externally.
type Sweeper struct {
	cache *maestro.Cache
	sp    Space
	opts  Options

	workers []*sweepWorker

	// slots holds one block's partitions, slot i the block's i-th
	// partition. It persists across sweeps: a space that fits in one
	// block (every space the figures and the serving stack sweep)
	// finds each partition's HDA and bound summaries where the last
	// sweep left them.
	slots []partSlot
}

// sweepWorker is one worker's private state: a scheduler (with its own
// scratch and L0 tables) and its best point of the current sweep. The
// partition slots are shared, but the cursor hands each slot to one
// worker per phase, so no slot is ever touched by two goroutines at
// once.
type sweepWorker struct {
	s *sched.Scheduler

	// bestIdx is the enumeration index of best, -1 before the worker
	// evaluates anything this sweep.
	bestIdx int
	best    Point
}

// partSlot is one partition's memo. A slot is valid for the
// enumeration index it records: a fixed (space, options) pair always
// enumerates the same partition at the same index, so a slot reloaded
// with its own index keeps its HDA and bounds.
type partSlot struct {
	idx  int   // enumeration index; -1 when empty
	part []int // unit-count vector (see enum.go)

	// h is the partition's HDA, named after idx (a Random sample that
	// repeats a partition gets its own index's name).
	h *accel.HDA
	// bounds memoizes each model's sched.Floor on h (see bound.go).
	bounds map[*dnn.Model]sched.Floor

	// bound and val are this sweep's objective lower bound and, once
	// evaluated, objective value (+Inf until then). Pruned sweeps only.
	bound, val float64
}

// NewSweeper validates the space and search options and builds the
// worker pool (opts.Workers, defaulting to GOMAXPROCS).
func NewSweeper(cache *maestro.Cache, sp Space, opts Options) (*Sweeper, error) {
	sp = sp.withDefaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Sched.Validate(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sw := &Sweeper{cache: cache, sp: sp, opts: opts}
	for i := 0; i < workers; i++ {
		sw.workers = append(sw.workers, &sweepWorker{s: sched.MustNew(cache, opts.Sched)})
	}
	return sw, nil
}

// Space returns the sweeper's (defaulted) search space.
func (sw *Sweeper) Space() Space { return sw.sp }

// Options returns the sweeper's search options.
func (sw *Sweeper) Options() Options { return sw.opts }

// runGrain is how many consecutive partitions a worker claims at once
// in enumeration order. Neighbouring partitions share PE shares, so a
// run of them reads the same cost-model rows; workers on disjoint runs
// fill a cold cache without queueing on one row. The best-first phase
// claims one partition at a time, so it stops at the cut exactly.
const runGrain = 8

// sweep is one Sweep call's shared state.
type sweep struct {
	sw     *Sweeper
	w      *workload.Workload
	points []Point // the design cloud; nil under BestOnly
	prune  bool

	// best is the lowest objective value any worker has evaluated,
	// carried across blocks.
	best *bestTracker
	// incumbent is the best value of the cut prefixes of the blocks
	// swept so far, and explored the sum of their lengths. Both are
	// timing-independent (see bound.go).
	incumbent float64
	explored  int

	stop atomic.Bool
	mu   sync.Mutex
	err  error
}

// fail records the sweep's first error and stops every worker.
func (s *sweep) fail(err error) {
	s.stop.Store(true)
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Sweep explores the space for workload w. Pruning (Options.Prune) is
// active only when Options.BestOnly is also set: a full design cloud /
// Pareto front needs every point evaluated, so cloud-producing sweeps
// silently fall back to exhaustive evaluation.
func (sw *Sweeper) Sweep(w *workload.Workload) (*Result, error) {
	if w == nil || len(w.Instances) == 0 {
		return nil, fmt.Errorf("dse: nil or empty workload")
	}
	total, err := spaceSize(sw.sp, sw.opts)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("dse: empty partition set for %s", sw.sp.Class.Name)
	}
	if sw.slots == nil {
		sw.slots = make([]partSlot, min(total, sched.MaxTables))
		for i := range sw.slots {
			sw.slots[i].idx = -1
		}
	}

	s := &sweep{
		sw:        sw,
		w:         w,
		prune:     sw.opts.Prune && sw.opts.BestOnly,
		best:      newBestTracker(),
		incumbent: math.Inf(1),
	}
	if !sw.opts.BestOnly {
		s.points = make([]Point, total)
	}
	for _, wk := range sw.workers {
		wk.bestIdx = -1
	}
	defer func() {
		for _, wk := range sw.workers {
			wk.best = Point{} // only the returned winner stays referenced
		}
	}()

	// Enumerate block by block; each full block is swept before the
	// enumeration continues, so at most len(sw.slots) partitions are
	// held at once.
	n := 0
	streamPartitions(sw.sp, sw.opts, func(idx int, part []int) bool {
		sl := &sw.slots[n]
		if sl.idx != idx {
			sl.idx, sl.part, sl.h = idx, append(sl.part[:0], part...), nil
			clear(sl.bounds)
		}
		if n++; n == len(sw.slots) {
			s.block(sw.slots)
			n = 0
		}
		return !s.stop.Load()
	})
	if n > 0 && !s.stop.Load() {
		s.block(sw.slots[:n])
	}
	if s.err != nil {
		return nil, s.err
	}

	// Merge the workers' bests: lowest objective, earliest enumeration
	// index on ties (identical to a sequential scan). A speculative
	// evaluation past a block's cut is strictly worse than the
	// incumbent, so it never wins here.
	res := &Result{Space: sw.sp, Points: s.points, Explored: s.explored, Pruned: total - s.explored}
	var win *sweepWorker
	for _, wk := range sw.workers {
		if wk.bestIdx >= 0 && (win == nil || betterPoint(sw.opts.Objective, wk.best, wk.bestIdx, win.best, win.bestIdx)) {
			win = wk
		}
	}
	if win == nil {
		return nil, fmt.Errorf("dse: no design point evaluated for %s", sw.sp.Class.Name)
	}
	res.Best = win.best
	if s.points != nil {
		res.Pareto = ParetoFront(s.points)
	}
	return res, nil
}

// block sweeps one block of loaded slots.
func (s *sweep) block(slots []partSlot) {
	sw := s.sw
	if !s.prune {
		s.run(len(slots), runGrain, func(wk *sweepWorker, i int) bool {
			_, ok := s.evaluate(wk, &slots[i])
			return ok
		})
		s.explored += len(slots)
		return
	}

	// Bound phase: every partition's HDA and objective lower bound.
	s.run(len(slots), runGrain, func(_ *sweepWorker, i int) bool {
		sl := &slots[i]
		if _, err := sl.hda(sw.sp); err != nil {
			s.fail(err)
			return false
		}
		sl.bound = sl.lowerBound(sw.cache, sw.opts.Objective, s.w)
		sl.val = math.Inf(1)
		return true
	})
	if s.stop.Load() {
		return
	}
	order := make([]int, len(slots))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(slots[a].bound, slots[b].bound); c != 0 {
			return c
		}
		return a - b // slot order is enumeration order
	})

	// Evaluation phase: best-first until the next bound cannot win.
	s.run(len(order), 1, func(wk *sweepWorker, pos int) bool {
		sl := &slots[order[pos]]
		if sl.bound > s.best.load() {
			return false
		}
		v, ok := s.evaluate(wk, sl)
		if ok {
			sl.val = v
			s.best.offer(v)
		}
		return ok
	})
	if s.stop.Load() {
		return
	}

	// The cut: the first position whose bound exceeds the best value of
	// every position before it (and of every earlier block). Every
	// position before it was evaluated, whatever the timing.
	k := len(order)
	for pos, i := range order {
		if slots[i].bound > s.incumbent {
			k = pos
			break
		}
		s.incumbent = min(s.incumbent, slots[i].val)
	}
	s.explored += k
}

// run hands positions 0..n-1 to the worker pool off one atomic cursor,
// grain consecutive positions per claim, the calling goroutine acting
// as worker 0. A worker quits when fn returns false, when the cursor
// runs out, or once the sweep failed.
func (s *sweep) run(n, grain int, fn func(wk *sweepWorker, pos int) bool) {
	var next atomic.Int64
	loop := func(wk *sweepWorker) {
		for {
			end := int(next.Add(int64(grain)))
			for pos := end - grain; pos < min(end, n); pos++ {
				if s.stop.Load() || !fn(wk, pos) {
					return
				}
			}
			if end >= n {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for _, wk := range s.sw.workers[1:min(len(s.sw.workers), n)] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(wk)
		}()
	}
	loop(s.sw.workers[0])
	wg.Wait()
}

// evaluate schedules the workload on one slot's HDA with the worker's
// scheduler and folds the point into the worker's best (and the design
// cloud, if kept). It reports false after recording a failure.
func (s *sweep) evaluate(wk *sweepWorker, sl *partSlot) (float64, bool) {
	h, err := sl.hda(s.sw.sp)
	if err != nil {
		s.fail(err)
		return 0, false
	}
	schd, err := wk.s.Schedule(h, s.w)
	if err != nil {
		s.fail(err)
		return 0, false
	}
	p := Point{
		HDA:        h,
		Schedule:   schd,
		LatencySec: schd.LatencySeconds(1.0),
		EnergyMJ:   schd.EnergyMJ(),
		EDP:        schd.EDP(1.0),
	}
	if s.points != nil {
		s.points[sl.idx] = p
	}
	o := s.sw.opts.Objective
	if wk.bestIdx < 0 || betterPoint(o, p, sl.idx, wk.best, wk.bestIdx) {
		if s.points == nil && wk.bestIdx >= 0 {
			// BestOnly: the dethroned point is dropped here and
			// nowhere else — recycle its storage.
			wk.s.Recycle(wk.best.Schedule)
		}
		wk.bestIdx, wk.best = sl.idx, p
	} else if s.points == nil {
		wk.s.Recycle(p.Schedule)
	}
	return p.Value(o), true
}

// hda returns (building on first use) the slot's HDA, named after its
// enumeration index.
func (sl *partSlot) hda(sp Space) (*accel.HDA, error) {
	if sl.h != nil {
		return sl.h, nil
	}
	peUnit := sp.Class.PEs / sp.PEUnits
	bwUnit := sp.Class.BWGBps / float64(sp.BWUnits)
	n := len(sp.Styles)
	ps := make([]accel.Partition, n)
	for i := 0; i < n; i++ {
		ps[i] = accel.Partition{
			Style:  sp.Styles[i],
			PEs:    sl.part[i] * peUnit,
			BWGBps: float64(sl.part[n+i]) * bwUnit,
		}
	}
	h, err := accel.New(fmt.Sprintf("hda-%d", sl.idx), sp.Class, ps)
	if err != nil {
		return nil, err
	}
	sl.h = h
	return h, nil
}
