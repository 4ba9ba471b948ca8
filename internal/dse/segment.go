package dse

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/dnn"
	"repro/internal/maestro"
)

// Segment is one contiguous layer range of a model pinned to one
// sub-accelerator: layers [From, To) run on HDA.Subs[SubAcc]. Cycles
// and EnergyPJ are the pinned execution cost of the range (cost-model
// sums; queueing excluded).
type Segment struct {
	From   int   `json:"from"`
	To     int   `json:"to"`
	SubAcc int   `json:"sub_acc"`
	Cycles int64 `json:"cycles"`

	EnergyPJ float64 `json:"energy_pj"`
}

// SegmentPlan is one model's winning fusion cut on a concrete HDA: an
// ordered partition of the model's layers into contiguous segments,
// each pinned to the sub-accelerator whose dataflow prefers it. A
// serving engine admits a fused request as one instance per segment
// chained by precedence, so segment k+1 of one request overlaps
// segment k of the next (see internal/serve).
type SegmentPlan struct {
	Model    string    `json:"model"`
	Segments []Segment `json:"segments"`

	// ChainCycles is the pinned end-to-end latency lower bound: the sum
	// of all segment cycles (one request's segments run sequentially).
	ChainCycles int64 `json:"chain_cycles"`

	// PeriodCycles is the pipeline initiation interval lower bound: the
	// largest total pinned cycles any one sub-accelerator carries. A
	// saturated stream of fused requests completes one request per
	// period, so the plan search minimizes this.
	PeriodCycles int64 `json:"period_cycles"`
}

// NumSegments returns the number of segments in the plan.
func (p SegmentPlan) NumSegments() int { return len(p.Segments) }

// Slices resolves the plan's interned segment models of m (dnn.Slice
// per segment), validating that the segments tile m's layers exactly:
// the first starts at layer 0, each starts where its predecessor
// ended, and the last ends at the final layer. Serving admission uses
// this as the single validation point before decomposing a request.
func (p SegmentPlan) Slices(m *dnn.Model) ([]*dnn.Model, error) {
	if m == nil {
		return nil, fmt.Errorf("dse: plan slices of nil model")
	}
	next := 0
	out := make([]*dnn.Model, len(p.Segments))
	for i, sg := range p.Segments {
		if sg.From != next {
			return nil, fmt.Errorf("dse: plan for %s: segment %d starts at layer %d, want %d", m.Name, i, sg.From, next)
		}
		sm, err := dnn.Slice(m, sg.From, sg.To)
		if err != nil {
			return nil, fmt.Errorf("dse: plan for %s: %w", m.Name, err)
		}
		out[i] = sm
		next = sg.To
	}
	if next != m.NumLayers() {
		return nil, fmt.Errorf("dse: plan for %s covers %d of %d layers", m.Name, next, m.NumLayers())
	}
	return out, nil
}

// PlanSegments searches model m's fusion cuts on HDA h: it enumerates
// the contiguous-segment partitions reachable by greedily merging the
// model's dataflow-preference runs (every layer starts in the segment
// of the sub-accelerator whose per-layer objective metric is lowest),
// costs each (segment, sub-accelerator) pair through the interned cost
// columns, and returns the plan with at most maxSegments segments that
// minimizes the pipeline period (ties: fewer segments, then smaller
// chain latency). maxSegments <= 1, or a single-sub HDA, yields the
// unfused one-segment plan.
//
// The search is deterministic for a fixed (HDA, model, objective,
// maxSegments): merge ties break toward the earlier cut index.
func PlanSegments(cache *maestro.Cache, h *accel.HDA, m *dnn.Model, o Objective, maxSegments int) (SegmentPlan, error) {
	if h == nil || len(h.Subs) == 0 {
		return SegmentPlan{}, fmt.Errorf("dse: nil or empty HDA")
	}
	if m == nil || m.NumLayers() == 0 {
		return SegmentPlan{}, fmt.Errorf("dse: nil or empty model")
	}
	nAcc := len(h.Subs)
	L := m.NumLayers()

	// Prefix sums per sub-accelerator: pinning cost of any layer range
	// becomes two lookups, so the merge loop never re-walks layers.
	metricPre := make([][]float64, nAcc)
	cyclePre := make([][]int64, nAcc)
	energyPre := make([][]float64, nAcc)
	for a, sub := range h.Subs {
		cyc, fps := cache.Cycles(m, sub.Style, sub.HW)
		mp := make([]float64, L+1)
		cp := make([]int64, L+1)
		ep := make([]float64, L+1)
		for li := 0; li < L; li++ {
			mp[li+1] = mp[li] + o.Layer(cyc[li], fps[li])
			cp[li+1] = cp[li] + cyc[li]
			ep[li+1] = ep[li] + fps[li].Energy.Total()
		}
		metricPre[a], cyclePre[a], energyPre[a] = mp, cp, ep
	}
	// pin returns the best sub-accelerator for [from, to) and its
	// summed metric (tie: lower index, the scheduler's convention).
	pin := func(from, to int) (int, float64) {
		bestA, bestV := 0, metricPre[0][to]-metricPre[0][from]
		for a := 1; a < nAcc; a++ {
			if v := metricPre[a][to] - metricPre[a][from]; v < bestV {
				bestA, bestV = a, v
			}
		}
		return bestA, bestV
	}

	// Seed segments from the dataflow-preference runs: maximal layer
	// runs whose preferred sub-accelerator is constant.
	type seg struct {
		from, to int
	}
	var segs []seg
	prev := -1
	for li := 0; li < L; li++ {
		a, _ := pin(li, li+1)
		if a != prev {
			segs = append(segs, seg{from: li, to: li + 1})
			prev = a
		} else {
			segs[len(segs)-1].to = li + 1
		}
	}

	if maxSegments < 1 {
		maxSegments = 1
	}
	if nAcc == 1 {
		maxSegments = 1
	}

	build := func(segs []seg) SegmentPlan {
		p := SegmentPlan{Model: m.Name}
		perSub := make([]int64, nAcc)
		for _, sg := range segs {
			a, _ := pin(sg.from, sg.to)
			cyc := cyclePre[a][sg.to] - cyclePre[a][sg.from]
			p.Segments = append(p.Segments, Segment{
				From: sg.from, To: sg.to, SubAcc: a,
				Cycles:   cyc,
				EnergyPJ: energyPre[a][sg.to] - energyPre[a][sg.from],
			})
			p.ChainCycles += cyc
			perSub[a] += cyc
		}
		for _, c := range perSub {
			if c > p.PeriodCycles {
				p.PeriodCycles = c
			}
		}
		return p
	}
	// coalesce folds adjacent segments that pin to the same
	// sub-accelerator — a cut between them buys no dataflow change.
	// It compacts in place (callers pass a private copy).
	coalesce := func(segs []seg) []seg {
		out := segs[:0]
		for _, sg := range segs {
			if len(out) > 0 {
				pa, _ := pin(out[len(out)-1].from, out[len(out)-1].to)
				if a, _ := pin(sg.from, sg.to); a == pa {
					out[len(out)-1].to = sg.to
					continue
				}
			}
			out = append(out, sg)
		}
		return out
	}

	// Merge the preference runs down one cut at a time (cheapest
	// objective increase first, earlier cut on ties), capturing every
	// candidate plan with at most maxSegments segments along the way —
	// including the fully-merged single-segment (unfused) plan.
	cur := append([]seg(nil), segs...)
	var best SegmentPlan
	have := false
	consider := func(segs []seg) {
		c := coalesce(append([]seg(nil), segs...))
		if len(c) > maxSegments {
			return
		}
		p := build(c)
		if !have ||
			p.PeriodCycles < best.PeriodCycles ||
			(p.PeriodCycles == best.PeriodCycles && len(p.Segments) < len(best.Segments)) ||
			(p.PeriodCycles == best.PeriodCycles && len(p.Segments) == len(best.Segments) && p.ChainCycles < best.ChainCycles) {
			best, have = p, true
		}
	}
	consider(cur)
	for len(cur) > 1 {
		bi, bd := -1, 0.0
		for i := 0; i+1 < len(cur); i++ {
			_, vi := pin(cur[i].from, cur[i].to)
			_, vj := pin(cur[i+1].from, cur[i+1].to)
			_, vm := pin(cur[i].from, cur[i+1].to)
			if d := vm - vi - vj; bi < 0 || d < bd {
				bi, bd = i, d
			}
		}
		cur[bi].to = cur[bi+1].to
		cur = append(cur[:bi+1], cur[bi+2:]...)
		consider(cur)
	}
	return best, nil
}
