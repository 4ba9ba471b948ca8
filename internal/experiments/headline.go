package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/sched"
)

// HeadlineResult aggregates the paper's §I / §V-B summary comparison:
// Maelstrom vs the best FDA, the SM-FDA, and the RDA, averaged across
// the three workloads × three accelerator classes.
type HeadlineResult struct {
	// Average percentage reductions (positive = Maelstrom lower).
	VsFDALatencyPct, VsFDAEnergyPct     float64
	VsSMFDALatencyPct, VsSMFDAEnergyPct float64
	VsRDALatencyPct, VsRDAEnergyPct     float64
	// Best-HDA EDP improvement over best FDA (paper: 73.6%).
	EDPImprovementPct float64

	// Paper-reported values for the same cells.
	PaperVsFDALatency, PaperVsFDAEnergy     float64
	PaperVsSMFDALatency, PaperVsSMFDAEnergy float64
	PaperVsRDALatency, PaperVsRDAEnergy     float64
	PaperEDPImprovement                     float64

	Scenarios int
}

// Headline computes the summary over all nine scenarios.
func (c *Config) Headline() (*HeadlineResult, error) {
	res := &HeadlineResult{
		PaperVsFDALatency: 65.3, PaperVsFDAEnergy: 5.0,
		PaperVsSMFDALatency: 63.1, PaperVsSMFDAEnergy: 4.1,
		PaperVsRDALatency: -20.7, PaperVsRDAEnergy: 22.0,
		PaperEDPImprovement: 73.6,
	}
	for _, w := range Workloads() {
		for _, class := range accel.Classes() {
			se, err := c.EvalScenario(class, w)
			if err != nil {
				return nil, err
			}
			m := se.Maelstrom.Eval
			res.VsFDALatencyPct += pctVal(m.LatencySec, se.BestFDA.LatencySec)
			res.VsFDAEnergyPct += pctVal(m.EnergyMJ, se.BestFDA.EnergyMJ)
			res.VsSMFDALatencyPct += pctVal(m.LatencySec, se.BestSMFDA.LatencySec)
			res.VsSMFDAEnergyPct += pctVal(m.EnergyMJ, se.BestSMFDA.EnergyMJ)
			res.VsRDALatencyPct += pctVal(m.LatencySec, se.RDA.LatencySec)
			res.VsRDAEnergyPct += pctVal(m.EnergyMJ, se.RDA.EnergyMJ)
			res.EDPImprovementPct += pctVal(se.BestHDA.Eval.EDP, se.BestFDA.EDP)
			res.Scenarios++
		}
	}
	n := float64(res.Scenarios)
	res.VsFDALatencyPct /= n
	res.VsFDAEnergyPct /= n
	res.VsSMFDALatencyPct /= n
	res.VsSMFDAEnergyPct /= n
	res.VsRDALatencyPct /= n
	res.VsRDAEnergyPct /= n
	res.EDPImprovementPct /= n
	return res, nil
}

// String renders the headline comparison table, measured beside the
// paper's numbers.
func (r *HeadlineResult) String() string {
	var b strings.Builder
	b.WriteString("Headline summary — Maelstrom vs baselines, averaged over all scenarios\n")
	t := &table{header: []string{"comparison", "measured", "paper"}}
	row := func(name string, got, want float64) {
		t.add(name, fmt.Sprintf("%+.1f%%", got), fmt.Sprintf("%+.1f%%", want))
	}
	row("latency reduction vs best FDA", r.VsFDALatencyPct, r.PaperVsFDALatency)
	row("energy  reduction vs best FDA", r.VsFDAEnergyPct, r.PaperVsFDAEnergy)
	row("latency reduction vs SM-FDA", r.VsSMFDALatencyPct, r.PaperVsSMFDALatency)
	row("energy  reduction vs SM-FDA", r.VsSMFDAEnergyPct, r.PaperVsSMFDAEnergy)
	row("latency reduction vs RDA", r.VsRDALatencyPct, r.PaperVsRDALatency)
	row("energy  reduction vs RDA", r.VsRDAEnergyPct, r.PaperVsRDAEnergy)
	row("best-HDA EDP gain vs best FDA", r.EDPImprovementPct, r.PaperEDPImprovement)
	b.WriteString(t.String())
	b.WriteString("(signs are the reproduction target: HDA loses latency to RDA but wins energy)\n")
	return b.String()
}

// AblationResult compares Herald's scheduler against the naive greedy
// scheduler on the Maelstrom designs (§V-B "Efficacy of Scheduling
// Algorithm"; paper: 24.1% less EDP).
type AblationResult struct {
	Rows []AblationRow

	AvgEDPReductionPct   float64
	PaperEDPReductionPct float64
}

// AblationRow is one scenario of the scheduler comparison.
type AblationRow struct {
	Workload, Class      string
	HeraldEDP, GreedyEDP float64
}

// SchedulerAblation schedules every Maelstrom design with both
// schedulers.
func (c *Config) SchedulerAblation() (*AblationResult, error) {
	res := &AblationResult{PaperEDPReductionPct: 24.1}
	greedy := sched.MustNew(c.H.Cache(), sched.GreedyOptions())
	for _, w := range Workloads() {
		for _, class := range accel.Classes() {
			d, err := c.Maelstrom(class, w)
			if err != nil {
				return nil, err
			}
			gs, err := greedy.Schedule(d.HDA, w)
			if err != nil {
				return nil, err
			}
			row := AblationRow{
				Workload: w.Name, Class: class.Name,
				HeraldEDP: d.EDP, GreedyEDP: gs.EDP(1.0),
			}
			res.Rows = append(res.Rows, row)
			res.AvgEDPReductionPct += pctVal(row.HeraldEDP, row.GreedyEDP)
		}
	}
	res.AvgEDPReductionPct /= float64(len(res.Rows))
	return res, nil
}

// String renders the scheduler ablation table.
func (r *AblationResult) String() string {
	var b strings.Builder
	b.WriteString("Scheduler ablation — Herald scheduler vs greedy scheduler on Maelstrom designs\n")
	t := &table{header: []string{"scenario", "Herald EDP", "greedy EDP", "reduction"}}
	for _, row := range r.Rows {
		t.add(row.Workload+", "+row.Class, f3(row.HeraldEDP), f3(row.GreedyEDP),
			fmt.Sprintf("%.1f%%", pctVal(row.HeraldEDP, row.GreedyEDP)))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "paper: Herald scheduler %.1f%% less EDP than greedy -> measured avg: %.1f%%\n",
		r.PaperEDPReductionPct, r.AvgEDPReductionPct)
	return b.String()
}
