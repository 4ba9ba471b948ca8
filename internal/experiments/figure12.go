package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/workload"
)

// Fig12Case is one single-DNN case study (UNet or ResNet50, batch 4,
// cloud accelerator).
type Fig12Case struct {
	Model string

	FDAs      []core.Eval
	BestFDA   core.Eval
	Maelstrom HDAEval
	RDA       core.Eval

	// The paper's observations for this case.
	MaelstromEDPGainPct      float64 // vs best FDA (paper: 26.4% UNet, 48.1% ResNet50)
	PaperMaelstromEDPGainPct float64
	RDALatencyGainPct        float64 // RDA vs Maelstrom (paper: 22.5% / 29.0%)
	PaperRDALatencyGainPct   float64
	RDAEnergyCostPct         float64 // RDA extra energy vs Maelstrom (paper: 11.7% / 15.8%)
	PaperRDAEnergyCostPct    float64
	BestFDAOnPareto          bool // paper: in the single-DNN case the best FDA is Pareto-optimal
}

// Fig12Result is the Figure 12 single-DNN study.
type Fig12Result struct {
	Cases []Fig12Case
}

// Figure12 runs UNet and ResNet50 at batch size four on the cloud
// class across FDAs, the Maelstrom HDA (with Herald-optimized
// partitioning) and the RDA.
func (c *Config) Figure12() (*Fig12Result, error) {
	paper := map[string][3]float64{
		// {Maelstrom EDP gain, RDA latency gain, RDA energy cost}
		"unet":     {26.4, 22.5, 11.7},
		"resnet50": {48.1, 29.0, 15.8},
	}
	res := &Fig12Result{}
	for _, model := range []string{"unet", "resnet50"} {
		w, err := workload.SingleDNN(model, 4)
		if err != nil {
			return nil, err
		}
		cs := Fig12Case{Model: model,
			PaperMaelstromEDPGainPct: paper[model][0],
			PaperRDALatencyGainPct:   paper[model][1],
			PaperRDAEnergyCostPct:    paper[model][2],
		}
		for _, s := range dataflow.AllStyles() {
			e, err := c.H.EvalFDA(accel.Cloud, s, w)
			if err != nil {
				return nil, err
			}
			cs.FDAs = append(cs.FDAs, e)
			if cs.BestFDA.Name == "" || e.EDP < cs.BestFDA.EDP {
				cs.BestFDA = e
			}
		}
		d, err := c.Maelstrom(accel.Cloud, w)
		if err != nil {
			return nil, err
		}
		cs.Maelstrom = HDAEval{Combo: "Maelstrom", Design: d, Eval: core.Eval{
			Name: "maelstrom", LatencySec: d.LatencySec, EnergyMJ: d.EnergyMJ, EDP: d.EDP,
		}}
		rda, err := c.H.EvalRDA(accel.Cloud, w)
		if err != nil {
			return nil, err
		}
		cs.RDA = rda

		cs.MaelstromEDPGainPct = pctVal(cs.Maelstrom.Eval.EDP, cs.BestFDA.EDP)
		cs.RDALatencyGainPct = pctVal(cs.RDA.LatencySec, cs.Maelstrom.Eval.LatencySec)
		cs.RDAEnergyCostPct = -pctVal(cs.RDA.EnergyMJ, cs.Maelstrom.Eval.EnergyMJ)

		all := append(append([]core.Eval(nil), cs.FDAs...), cs.Maelstrom.Eval, cs.RDA)
		cs.BestFDAOnPareto = onPareto(all, cs.BestFDA)
		res.Cases = append(res.Cases, cs)
	}
	return res, nil
}

// String renders the Fig. 12 single-DNN case study, one block per
// model.
func (r *Fig12Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 12 — single-DNN case study (batch 4, cloud accelerator)\n")
	for _, cs := range r.Cases {
		fmt.Fprintf(&b, "--- %s ---\n", cs.Model)
		t := &table{header: []string{"organization", "latency", "energy", "EDP (J*s)"}}
		for _, e := range cs.FDAs {
			t.add("FDA "+e.Name, ms(e.LatencySec), mj(e.EnergyMJ), f3(e.EDP))
		}
		t.add("HDA Maelstrom", ms(cs.Maelstrom.Eval.LatencySec), mj(cs.Maelstrom.Eval.EnergyMJ), f3(cs.Maelstrom.Eval.EDP))
		t.add("RDA", ms(cs.RDA.LatencySec), mj(cs.RDA.EnergyMJ), f3(cs.RDA.EDP))
		b.WriteString(t.String())
		fmt.Fprintf(&b, "paper: Maelstrom EDP gain vs best FDA %.1f%% -> measured %.1f%%\n",
			cs.PaperMaelstromEDPGainPct, cs.MaelstromEDPGainPct)
		fmt.Fprintf(&b, "paper: RDA latency gain vs Maelstrom %.1f%%  -> measured %.1f%%\n",
			cs.PaperRDALatencyGainPct, cs.RDALatencyGainPct)
		fmt.Fprintf(&b, "paper: RDA energy cost vs Maelstrom %.1f%%   -> measured %.1f%%\n",
			cs.PaperRDAEnergyCostPct, cs.RDAEnergyCostPct)
		fmt.Fprintf(&b, "paper: best FDA on Pareto curve (single-DNN) -> measured %v\n", cs.BestFDAOnPareto)
	}
	return b.String()
}
