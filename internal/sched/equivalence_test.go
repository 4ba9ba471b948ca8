package sched

import (
	"sort"
	"testing"

	"repro/internal/accel"
	"repro/internal/maestro"
	"repro/internal/workload"
)

// This file carries a reference implementation of the Fig. 8 main loop
// exactly as the repository's original (pre-optimization) scheduler
// wrote it: a freshly-allocated, sort.Slice-ranked candidate list per
// layer, a linear scan over free/ready values for the next event, and
// a full rescan of a flat memory ledger per commit attempt. The
// production scheduler replaced all three (scratch insertion ranking,
// event min-heap, per-sub-accelerator interval ledger with prefix
// sums) as pure performance refactors — so on any workload the two
// must produce identical schedules, assignment for assignment.

type refState struct {
	free      []int64
	busy      []int64
	nextLayer []int
	ready     []int64
	order     []int
	prio      []int
	running   []runSlot
	prune     int64

	assignments []Assignment
	energyPJ    float64
	remaining   int
}

func refSchedule(t *testing.T, cache *maestro.Cache, opts Options, h *accel.HDA, insts []workload.Instance) *refState {
	t.Helper()
	st := &refState{
		free: make([]int64, len(h.Subs)),
		busy: make([]int64, len(h.Subs)),
	}
	for i, in := range insts {
		st.nextLayer = append(st.nextLayer, 0)
		st.ready = append(st.ready, in.ArrivalCycle)
		st.order = append(st.order, i)
		p := 0
		if i < len(opts.Priorities) {
			p = opts.Priorities[i]
		}
		st.prio = append(st.prio, p)
		st.remaining += in.Model.NumLayers()
	}
	sort.SliceStable(st.order, func(i, j int) bool {
		return st.prio[st.order[i]] > st.prio[st.order[j]]
	})

	var cycle int64
	for st.remaining > 0 {
		if cycle > st.prune {
			st.prune = cycle
		}
		assignedInst := -1
		for _, inst := range st.order {
			li := st.nextLayer[inst]
			if li >= insts[inst].Model.NumLayers() {
				continue
			}
			if st.ready[inst] > cycle {
				continue
			}
			if refTryAssign(cache, opts, h, insts, st, cycle, inst, li) {
				assignedInst = inst
				break
			}
		}
		if assignedInst >= 0 {
			refRearrange(opts, st, assignedInst)
			continue
		}
		next, ok := refNextEvent(st, cycle)
		if !ok {
			t.Fatalf("reference scheduler deadlocked at cycle %d", cycle)
		}
		cycle = next
	}
	return st
}

func refTryAssign(cache *maestro.Cache, opts Options, h *accel.HDA, insts []workload.Instance, st *refState, cycle int64, inst, li int) bool {
	layer := &insts[inst].Model.Layers[li]

	type cand struct {
		acc    int
		cost   maestro.Cost
		metric float64
		finish int64
	}
	cands := make([]cand, len(h.Subs))
	for a := range h.Subs {
		c := cache.Estimate(layer, h.Subs[a].Style, h.Subs[a].HW)
		cands[a] = cand{
			acc: a, cost: c,
			metric: refMetric(opts.Metric, &c),
			finish: max(cycle, st.free[a]) + c.Cycles,
		}
	}
	if refImbalanced(opts, st, cycle) {
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].finish != cands[j].finish {
				return cands[i].finish < cands[j].finish
			}
			if cands[i].metric != cands[j].metric {
				return cands[i].metric < cands[j].metric
			}
			return cands[i].acc < cands[j].acc
		})
	} else {
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].metric != cands[j].metric {
				return cands[i].metric < cands[j].metric
			}
			return cands[i].acc < cands[j].acc
		})
	}

	for _, c := range cands {
		startT := max(cycle, st.free[c.acc])
		endT := startT + c.cost.Cycles
		if !refMemOK(h, st, startT, endT, c.cost.OccupancyBytes) {
			continue
		}
		st.free[c.acc] = endT
		st.busy[c.acc] += c.cost.Cycles
		st.ready[inst] = endT
		st.nextLayer[inst]++
		st.remaining--
		st.energyPJ += c.cost.EnergyPJ()
		st.running = append(st.running, runSlot{start: startT, end: endT, occ: c.cost.OccupancyBytes})
		st.assignments = append(st.assignments, Assignment{
			Instance: inst, Layer: li, SubAcc: c.acc,
			Start: startT, End: endT,
		})
		return true
	}
	return false
}

// refMetric is the reference's ranking metric, read off a whole Cost
// at the 1 GHz reference clock (Cost.EDP(1.0) for MetricEDP).
func refMetric(m Metric, c *maestro.Cost) float64 {
	return m.Pick(float64(c.Cycles), c.EnergyPJ(), c.EDP(1.0))
}

func refImbalanced(opts Options, st *refState, cycle int64) bool {
	lbf := opts.LoadBalanceFactor
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
		return false
	}
	if lo <= 0 {
		return true
	}
	return float64(hi) > lbf*float64(lo)
}

func refMemOK(h *accel.HDA, st *refState, startT, endT, occ int64) bool {
	live := st.running[:0]
	var sum int64
	for _, r := range st.running {
		if r.end <= st.prune {
			continue
		}
		live = append(live, r)
		if r.end > startT && r.start < endT {
			sum += r.occ
		}
	}
	st.running = live
	return sum+occ <= h.Class.GlobalBufBytes
}

func refRearrange(opts Options, st *refState, inst int) {
	if opts.Ordering == DepthFirst {
		return
	}
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

func refNextEvent(st *refState, cycle int64) (int64, bool) {
	var next int64
	found := false
	consider := func(t int64) {
		if t > cycle && (!found || t < next) {
			next, found = t, true
		}
	}
	for _, t := range st.free {
		consider(t)
	}
	for _, inst := range st.order {
		consider(st.ready[inst])
	}
	return next, found
}

// TestSchedulerMatchesReference runs the optimized scheduler and the
// reference implementation over the paper's AR/VR and MLPerf
// workloads under several configurations and requires bit-identical
// assignment sequences (post-processing disabled: the reference only
// covers the Fig. 8 loop, which is everything the optimization
// touched).
func TestSchedulerMatchesReference(t *testing.T) {
	h := maelstromEdge(t)
	cache := newCache()

	workloads := []*workload.Workload{
		workload.ARVRA(),
		workload.ARVRB(),
		workload.MLPerf(1),
	}
	mkOpts := func(mutate func(*Options)) Options {
		o := DefaultOptions()
		o.PostProcess = false
		if mutate != nil {
			mutate(&o)
		}
		return o
	}
	configs := map[string]Options{
		"default":     mkOpts(nil),
		"depth-first": mkOpts(func(o *Options) { o.Ordering = DepthFirst }),
		"greedy":      func() Options { o := GreedyOptions(); o.PostProcess = false; return o }(),
		"latency":     mkOpts(func(o *Options) { o.Metric = MetricLatency }),
		"tight-lbf":   mkOpts(func(o *Options) { o.LoadBalanceFactor = 1.05 }),
	}

	for name, opts := range configs {
		for _, w := range workloads {
			t.Run(name+"/"+w.Name, func(t *testing.T) {
				s := MustNew(cache, opts)
				got, err := s.Schedule(h, w)
				if err != nil {
					t.Fatal(err)
				}
				want := refSchedule(t, cache, opts, h, w.Instances)

				if len(got.Assignments) != len(want.assignments) {
					t.Fatalf("assignment count %d != reference %d", len(got.Assignments), len(want.assignments))
				}
				for i := range want.assignments {
					g, r := got.Assignments[i], want.assignments[i]
					if g.Instance != r.Instance || g.Layer != r.Layer || g.SubAcc != r.SubAcc ||
						g.Start != r.Start || g.End != r.End {
						t.Fatalf("assignment %d diverged:\n got  %d/%d on %d @ [%d,%d)\n want %d/%d on %d @ [%d,%d)",
							i, g.Instance, g.Layer, g.SubAcc, g.Start, g.End,
							r.Instance, r.Layer, r.SubAcc, r.Start, r.End)
					}
				}
				if got.EnergyPJ != want.energyPJ {
					t.Errorf("energy %v != reference %v", got.EnergyPJ, want.energyPJ)
				}
				var refSpan int64
				for _, a := range want.assignments {
					if a.End > refSpan {
						refSpan = a.End
					}
				}
				if got.MakespanCycles != refSpan {
					t.Errorf("makespan %d != reference %d", got.MakespanCycles, refSpan)
				}
			})
		}
	}
}
