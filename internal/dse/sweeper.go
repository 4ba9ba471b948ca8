package dse

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/accel"
	"repro/internal/maestro"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Sweeper is a reusable handle over one (space, options) search
// configuration: per-worker schedulers with warm L0 cost tables, a
// partition→HDA cache (stable HDA pointers keep those tables hot
// across sweeps), and the bound memos behind Options.Prune. Build one
// with NewSweeper and call Sweep repeatedly — a serving fleet holds a
// Sweeper so re-running the partition search on an observed workload
// mix (fleet.Resweep) costs a warm sweep, not a cold one.
//
// A Sweeper is NOT safe for concurrent Sweep calls (each call uses the
// whole worker pool); serialize externally.
type Sweeper struct {
	cache *maestro.Cache
	sp    Space
	opts  Options

	workers []*sweepWorker
}

// sweepWorker is one worker's private state: a scheduler (with its own
// scratch and L0 tables) plus the sweep-local memo tables. Everything
// here is touched by exactly one goroutine per Sweep — the memo tables
// are worker-private rather than shared, which is what keeps the memo
// paths race-free under the chunked work distribution.
type sweepWorker struct {
	cache *maestro.Cache
	s     *sched.Scheduler

	// hdas caches built partitions by packed unit vector and
	// enumeration index, so repeated sweeps reuse HDA pointers — and
	// with them the scheduler's per-HDA cost tables. The index is part
	// of the key because it names the HDA: a Random sample that repeats
	// a partition gets its own index's name, whichever worker drew it.
	hdas map[hdaKey]*accel.HDA

	// bounds memoizes the bound tiers' per-(substrate-set, model)
	// summaries (see bound.go).
	bounds map[boundKey]modelBound

	// keyBuf is the partition-key packing scratch.
	keyBuf []byte
}

type hdaKey struct {
	part string
	idx  int
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
		sw.workers = append(sw.workers, &sweepWorker{
			cache:  cache,
			s:      sched.MustNew(cache, opts.Sched),
			hdas:   make(map[hdaKey]*accel.HDA),
			bounds: make(map[boundKey]modelBound),
		})
	}
	return sw, nil
}

// Space returns the sweeper's (defaulted) search space.
func (sw *Sweeper) Space() Space { return sw.sp }

// Options returns the sweeper's search options.
func (sw *Sweeper) Options() Options { return sw.opts }

// chunkSize is the number of partitions handed to a worker per channel
// receive: big enough to amortize channel traffic, small enough that
// the tail of the sweep still load-balances across the pool.
const chunkSize = 8

// chunk is one work unit: consecutive partitions starting at base.
type chunk struct {
	base  int
	parts [][]int
	buf   []int // backing storage for parts
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

	workers := len(sw.workers)
	if workers > total {
		workers = total
	}
	prune := sw.opts.Prune && sw.opts.BestOnly

	var points []Point
	if !sw.opts.BestOnly {
		points = make([]Point, total)
	}

	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		pruned   atomic.Int64
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		stop.Store(true)
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	best := newBestTracker()

	// bests[k] is worker k's streamed local best: the lowest objective
	// value with the earliest enumeration index, plus the retained
	// point (the design cloud may not exist in BestOnly mode).
	type localBest struct {
		idx   int
		point Point
	}
	bests := make([]localBest, workers)
	for k := range bests {
		bests[k].idx = -1
	}

	work := make(chan chunk, workers)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			wk := sw.workers[k]
			lb := &bests[k]
			for ch := range work {
				for ci, part := range ch.parts {
					if stop.Load() {
						break // drain remaining chunks without evaluating
					}
					idx := ch.base + ci
					key := wk.partKey(part)
					h, err := wk.hda(sw.sp, key, part, idx)
					if err != nil {
						fail(err)
						break
					}
					if prune {
						// The bound reads the same substrate columns the
						// evaluation below would, so a failed prune wastes
						// only the aggregation arithmetic.
						if b := wk.lowerBound(sw.opts.Objective, h, key, w); b > best.load() {
							pruned.Add(1)
							continue
						}
					}
					p, err := wk.evaluate(h, w)
					if err != nil {
						fail(err)
						break
					}
					if points != nil {
						points[idx] = p
					}
					v := sw.opts.Objective.value(p)
					if lb.idx < 0 || v < sw.opts.Objective.value(lb.point) ||
						(v == sw.opts.Objective.value(lb.point) && idx < lb.idx) {
						if points == nil && lb.idx >= 0 {
							// BestOnly: the dethroned point is dropped here
							// and nowhere else — recycle its storage.
							wk.s.Recycle(lb.point.Schedule)
						}
						lb.idx, lb.point = idx, p
					} else if points == nil {
						wk.s.Recycle(p.Schedule)
					}
					if prune {
						best.offer(v)
					}
				}
			}
		}(k)
	}

	// Producer: stream the enumeration into bounded chunks. Memory in
	// flight is O(workers × chunkSize), independent of the space.
	n := len(sw.sp.Styles)
	var cur chunk
	flush := func() bool {
		if len(cur.parts) == 0 {
			return true
		}
		if stop.Load() {
			return false
		}
		work <- cur
		cur = chunk{}
		return true
	}
	streamPartitions(sw.sp, sw.opts, func(idx int, part []int) bool {
		if cur.parts == nil {
			cur.base = idx
			cur.parts = make([][]int, 0, chunkSize)
			cur.buf = make([]int, 0, chunkSize*2*n)
		}
		cur.buf = append(cur.buf, part...)
		cur.parts = append(cur.parts, cur.buf[len(cur.buf)-2*n:])
		if len(cur.parts) == chunkSize {
			return flush()
		}
		return true
	})
	flush()
	close(work)
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}

	// Merge the workers' streamed bests: lowest objective, earliest
	// enumeration index on ties (identical to a sequential scan).
	res := &Result{
		Space:  sw.sp,
		Points: points,
		Pruned: int(pruned.Load()),
	}
	res.Explored = total - res.Pruned
	mi := -1
	for k := range bests {
		if bests[k].idx < 0 {
			continue
		}
		if mi < 0 || betterPoint(sw.opts.Objective, bests[k].point, bests[k].idx, bests[mi].point, bests[mi].idx) {
			mi = k
		}
	}
	if mi < 0 {
		return nil, fmt.Errorf("dse: no design point evaluated for %s", sw.sp.Class.Name)
	}
	res.Best = bests[mi].point
	if points != nil {
		res.Pareto = ParetoFront(points)
	}
	return res, nil
}

// partKey packs a unit-count vector into a map key (2 bytes per
// entry; granularities are far below 1<<16 units).
func (wk *sweepWorker) partKey(part []int) string {
	buf := wk.keyBuf[:0]
	for _, v := range part {
		buf = append(buf, byte(v>>8), byte(v))
	}
	wk.keyBuf = buf
	return string(buf)
}

// maxWorkerMemo caps each worker's partition-keyed memo tables (HDAs
// and bound summaries). They deliberately cache the swept
// space across sweeps — that is what makes a warm Resweep cheap — but
// a fleet-held Sweeper over a huge space must not grow without bound,
// so past the cap everything is dropped and rebuilt through the
// shared caches. Matches sched.maxTables so the scheduler's per-HDA
// tables are evicted on the same scale.
const maxWorkerMemo = 4096

// hda returns (building and caching if needed) the HDA of one
// partition, named after its enumeration index.
func (wk *sweepWorker) hda(sp Space, key string, part []int, idx int) (*accel.HDA, error) {
	if h, ok := wk.hdas[hdaKey{key, idx}]; ok {
		return h, nil
	}
	if len(wk.hdas) >= maxWorkerMemo {
		// The bounds memo keys off the same partition keys; drop
		// both together.
		clear(wk.hdas)
		clear(wk.bounds)
	}
	peUnit := sp.Class.PEs / sp.PEUnits
	bwUnit := sp.Class.BWGBps / float64(sp.BWUnits)
	n := len(sp.Styles)
	ps := make([]accel.Partition, n)
	for i := 0; i < n; i++ {
		ps[i] = accel.Partition{
			Style:  sp.Styles[i],
			PEs:    part[i] * peUnit,
			BWGBps: float64(part[n+i]) * bwUnit,
		}
	}
	h, err := accel.New(fmt.Sprintf("hda-%d", idx), sp.Class, ps)
	if err != nil {
		return nil, err
	}
	wk.hdas[hdaKey{key, idx}] = h
	return h, nil
}

// evaluate schedules the workload on one cached HDA with the worker's
// scheduler.
func (wk *sweepWorker) evaluate(h *accel.HDA, w *workload.Workload) (Point, error) {
	schd, err := wk.s.Schedule(h, w)
	if err != nil {
		return Point{}, err
	}
	return Point{
		HDA:        h,
		Schedule:   schd,
		LatencySec: schd.LatencySeconds(1.0),
		EnergyMJ:   schd.EnergyMJ(),
		EDP:        schd.EDP(1.0),
	}, nil
}
