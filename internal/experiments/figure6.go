package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dse"
	"repro/internal/workload"
)

// Fig6Point is one PE-partitioning design point of Figure 6.
type Fig6Point struct {
	ShiPEs, NVDLAPEs int
	EDP              float64
}

// Fig6Result reproduces Figure 6: the EDP of a two-sub-accelerator
// cloud HDA (ACC1 Shi-diannao, ACC2 NVDLA) across PE partitionings
// with naive (even) bandwidth partitioning, on AR/VR-A.
type Fig6Result struct {
	Points []Fig6Point
	Best   Fig6Point
	Even   Fig6Point

	// EvenPenaltyPct is how much worse the even 8K/8K split is than
	// the optimum of the PE-only sweep (the paper reports 17%; in our
	// cost model the PE-only optimum for this scenario lands on the
	// even split, so the non-triviality shows up in the joint PE+BW
	// space instead — see JointOptimumNonTrivial).
	EvenPenaltyPct      float64
	PaperEvenPenaltyPct float64
	// SpreadFactor is worst/best EDP across the sweep: how much the
	// partition choice matters (the motivation for systematic search).
	SpreadFactor float64
	// JointOptimumNonTrivial reports whether the full co-designed
	// Maelstrom for this scenario (PE and BW swept together) uses a
	// non-even partition.
	JointOptimumNonTrivial bool
}

// Figure6 sweeps PE partitions of the cloud class at naive 128/128
// GB/s bandwidth halving, scheduling AR/VR-A on every point.
func (c *Config) Figure6() (*Fig6Result, error) {
	sp := dse.Space{
		Class:   accel.Cloud,
		Styles:  []dataflow.Style{dataflow.ShiDiannao, dataflow.NVDLA},
		PEUnits: 16,
		BWUnits: 2, // naive halving: 128/128 GB/s
	}
	opts := dse.DefaultOptions()
	opts.Sched = c.H.SchedOptions()
	r, err := dse.Search(c.H.Cache(), sp, workload.ARVRA(), opts)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{PaperEvenPenaltyPct: 17}
	for _, p := range r.Points {
		// Keep only the even-bandwidth row of the sweep.
		if p.HDA.Subs[0].HW.BWGBps != p.HDA.Subs[1].HW.BWGBps {
			continue
		}
		fp := Fig6Point{
			ShiPEs:   p.HDA.Subs[0].HW.PEs,
			NVDLAPEs: p.HDA.Subs[1].HW.PEs,
			EDP:      p.EDP,
		}
		res.Points = append(res.Points, fp)
		if res.Best.EDP == 0 || fp.EDP < res.Best.EDP {
			res.Best = fp
		}
		if fp.ShiPEs == fp.NVDLAPEs {
			res.Even = fp
		}
	}
	if res.Best.EDP > 0 {
		res.EvenPenaltyPct = (res.Even.EDP - res.Best.EDP) / res.Best.EDP * 100
		worst := res.Best.EDP
		for _, p := range res.Points {
			if p.EDP > worst {
				worst = p.EDP
			}
		}
		res.SpreadFactor = worst / res.Best.EDP
	}
	// The joint PE+BW optimum at the paper's granularity (independent
	// of this Config's coarser test granularity). Only the winning
	// partition is read, so the 105-point sweep runs best-only with
	// bound pruning.
	d, err := c.H.CoDesignBest(accel.Cloud, MaelstromStyles(), workload.ARVRA(), 16, 8, dse.Exhaustive)
	if err != nil {
		return nil, err
	}
	res.JointOptimumNonTrivial = d.HDA.Subs[0].HW.PEs != d.HDA.Subs[1].HW.PEs ||
		d.HDA.Subs[0].HW.BWGBps != d.HDA.Subs[1].HW.BWGBps
	return res, nil
}

// String renders the Fig. 6 PE-partitioning sweep.
func (r *Fig6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6 — PE partitioning sweep (cloud, AR/VR-A, Shi+NVDLA, naive 128/128 GB/s)\n")
	t := &table{header: []string{"Shi PEs", "NVDLA PEs", "EDP (J*s)", ""}}
	for _, p := range r.Points {
		mark := ""
		if p == r.Best {
			mark = "<- best"
		} else if p.ShiPEs == p.NVDLAPEs {
			mark = "<- even split"
		}
		t.add(fmt.Sprintf("%d", p.ShiPEs), fmt.Sprintf("%d", p.NVDLAPEs), f3(p.EDP), mark)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "paper: even 8K/8K split %.0f%% worse than PE-sweep optimum -> measured: %.1f%% worse\n",
		r.PaperEvenPenaltyPct, r.EvenPenaltyPct)
	fmt.Fprintf(&b, "paper: partitioning choice matters (wide EDP range)       -> measured spread: %.2fx worst/best\n",
		r.SpreadFactor)
	fmt.Fprintf(&b, "paper: optimal partitioning is non-trivial                -> measured joint PE+BW optimum non-even: %v\n",
		r.JointOptimumNonTrivial)
	return b.String()
}
