package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/workload"
)

// HDAEval is one co-designed HDA architecture evaluated on a scenario.
type HDAEval struct {
	Combo  string
	Eval   core.Eval
	Design *core.Design
}

// ScenarioEval evaluates every accelerator organization of Table III
// on one (workload, class) scenario: three FDAs, three 2-way SM-FDAs,
// the four HDA style combinations (each with Herald-optimized
// partitioning), and the MAERI-style RDA.
type ScenarioEval struct {
	Workload *workload.Workload
	Class    accel.Class

	FDAs   []core.Eval
	SMFDAs []core.Eval
	HDAs   []HDAEval
	RDA    core.Eval

	BestFDA   core.Eval
	BestSMFDA core.Eval
	BestHDA   HDAEval
	Maelstrom HDAEval
}

// EvalScenario evaluates (and memoizes via design caching) one
// scenario.
func (c *Config) EvalScenario(class accel.Class, w *workload.Workload) (*ScenarioEval, error) {
	se := &ScenarioEval{Workload: w, Class: class}

	for _, s := range dataflow.AllStyles() {
		e, err := c.H.EvalFDA(class, s, w)
		if err != nil {
			return nil, err
		}
		se.FDAs = append(se.FDAs, e)
		if se.BestFDA.Name == "" || e.EDP < se.BestFDA.EDP {
			se.BestFDA = e
		}

		sm, err := accel.NewSMFDA(class, s, 2)
		if err != nil {
			return nil, err
		}
		sme, err := c.H.EvalHDA(sm, w)
		if err != nil {
			return nil, err
		}
		se.SMFDAs = append(se.SMFDAs, sme)
		if se.BestSMFDA.Name == "" || sme.EDP < se.BestSMFDA.EDP {
			se.BestSMFDA = sme
		}
	}

	for _, combo := range HDACombos() {
		d, err := c.Design(class, combo.Styles, w)
		if err != nil {
			return nil, err
		}
		he := HDAEval{
			Combo:  combo.Name,
			Design: d,
			Eval: core.Eval{
				Name:       combo.Name,
				LatencySec: d.LatencySec,
				EnergyMJ:   d.EnergyMJ,
				EDP:        d.EDP,
			},
		}
		se.HDAs = append(se.HDAs, he)
		if se.BestHDA.Combo == "" || he.Eval.EDP < se.BestHDA.Eval.EDP {
			se.BestHDA = he
		}
		if strings.Contains(combo.Name, "Maelstrom") {
			se.Maelstrom = he
		}
	}

	rda, err := c.H.EvalRDA(class, w)
	if err != nil {
		return nil, err
	}
	se.RDA = rda
	return se, nil
}

// Fig11Result is the full nine-scenario design space of Figure 11.
type Fig11Result struct {
	Scenarios []*ScenarioEval

	// Per-scenario Pareto membership of the best HDA and the RDA over
	// the set {FDAs, SM-FDAs, HDAs, RDA} (the figure's headline: well
	// optimized HDA and RDA points are always on the Pareto curve).
	BestHDAOnPareto int
	RDAOnPareto     int
	// Scenarios where the best HDA beats the best FDA on EDP.
	HDABeatsFDACount int
	// Scenarios where the Maelstrom pair is the best of the four HDAs.
	MaelstromBestCount int
}

// classes evaluated by Figure 11 (all three in the paper).
func fig11Classes() []accel.Class { return accel.Classes() }

// Figure11 evaluates the complete design space: three workloads ×
// three accelerator classes × {FDA, SM-FDA, 4 HDAs, RDA}.
func (c *Config) Figure11() (*Fig11Result, error) {
	res := &Fig11Result{}
	for _, w := range Workloads() {
		for _, class := range fig11Classes() {
			se, err := c.EvalScenario(class, w)
			if err != nil {
				return nil, fmt.Errorf("scenario %s/%s: %w", w.Name, class.Name, err)
			}
			res.Scenarios = append(res.Scenarios, se)

			all := se.allEvals()
			if onPareto(all, se.BestHDA.Eval) {
				res.BestHDAOnPareto++
			}
			if onPareto(all, se.RDA) {
				res.RDAOnPareto++
			}
			if se.BestHDA.Eval.EDP < se.BestFDA.EDP {
				res.HDABeatsFDACount++
			}
			if se.BestHDA.Combo == se.Maelstrom.Combo {
				res.MaelstromBestCount++
			}
		}
	}
	return res, nil
}

// allEvals flattens every organization's point for Pareto checks.
func (se *ScenarioEval) allEvals() []core.Eval {
	var out []core.Eval
	out = append(out, se.FDAs...)
	out = append(out, se.SMFDAs...)
	for _, h := range se.HDAs {
		out = append(out, h.Eval)
	}
	out = append(out, se.RDA)
	return out
}

// onPareto reports whether e is non-dominated in the latency-energy
// plane among all points.
func onPareto(all []core.Eval, e core.Eval) bool {
	for _, p := range all {
		if p.LatencySec < e.LatencySec && p.EnergyMJ < e.EnergyMJ {
			return false
		}
	}
	return true
}

func (se *ScenarioEval) render(b *strings.Builder) {
	fmt.Fprintf(b, "--- %s on %s accelerator ---\n", se.Workload.Name, se.Class.Name)
	t := &table{header: []string{"organization", "latency", "energy", "EDP (J*s)", "partition"}}
	for _, e := range se.FDAs {
		t.add("FDA "+e.Name, ms(e.LatencySec), mj(e.EnergyMJ), f3(e.EDP), "")
	}
	for _, e := range se.SMFDAs {
		t.add("SM-FDA "+e.Name, ms(e.LatencySec), mj(e.EnergyMJ), f3(e.EDP), "")
	}
	for _, h := range se.HDAs {
		part := ""
		for i, sub := range h.Design.HDA.Subs {
			if i > 0 {
				part += " + "
			}
			part += fmt.Sprintf("%d PE/%g GBps", sub.HW.PEs, sub.HW.BWGBps)
		}
		t.add("HDA "+h.Combo, ms(h.Eval.LatencySec), mj(h.Eval.EnergyMJ), f3(h.Eval.EDP), part)
	}
	t.add("RDA (MAERI-style)", ms(se.RDA.LatencySec), mj(se.RDA.EnergyMJ), f3(se.RDA.EDP), "")
	b.WriteString(t.String())
}

// String renders the Fig. 11 design clouds, one table per scenario,
// then the paper's claims against the measured scenario counts.
func (r *Fig11Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 11 — design space of FDA / SM-FDA / HDA / RDA across workloads and classes\n")
	for _, se := range r.Scenarios {
		se.render(&b)
	}
	n := len(r.Scenarios)
	fmt.Fprintf(&b, "paper: well-optimized HDA always on Pareto curve -> measured: %d/%d scenarios\n", r.BestHDAOnPareto, n)
	fmt.Fprintf(&b, "paper: RDA always on Pareto curve                -> measured: %d/%d scenarios\n", r.RDAOnPareto, n)
	fmt.Fprintf(&b, "paper: best HDA beats best FDA (EDP)             -> measured: %d/%d scenarios\n", r.HDABeatsFDACount, n)
	fmt.Fprintf(&b, "paper: NVDLA+Shi (Maelstrom) best of 4 HDAs      -> measured: %d/%d scenarios\n", r.MaelstromBestCount, n)
	return b.String()
}
