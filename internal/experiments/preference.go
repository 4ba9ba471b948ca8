package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/maestro"
)

// PreferenceRow is one workload's layer-preference census on one
// substrate size: what fraction of layers (and of MACs) has each
// dataflow style as its per-layer EDP winner.
type PreferenceRow struct {
	Workload string
	PEs      int

	LayerShare map[dataflow.Style]float64
	MACShare   map[dataflow.Style]float64
}

// PreferenceReport computes the census §V-B argues from ("more number
// of layers in the workloads prefer NVDLA style than Shi-diannao
// style"): for each workload, every layer is evaluated under all three
// styles on a full-class substrate and assigned to its EDP winner.
func (c *Config) PreferenceReport(pes int, bw float64, l2 int64) ([]PreferenceRow, error) {
	hw := maestro.HW{PEs: pes, BWGBps: bw, L2Bytes: l2}
	var out []PreferenceRow
	for _, w := range Workloads() {
		row := PreferenceRow{
			Workload:   w.Name,
			PEs:        pes,
			LayerShare: map[dataflow.Style]float64{},
			MACShare:   map[dataflow.Style]float64{},
		}
		var layers, macs float64
		for _, in := range w.Instances {
			for i := range in.Model.Layers {
				l := &in.Model.Layers[i]
				var best dataflow.Style
				bestEDP := 0.0
				for _, s := range dataflow.AllStyles() {
					cost := c.H.Cache().Estimate(l, s, hw)
					if edp := cost.EDP(1.0); bestEDP == 0 || edp < bestEDP {
						bestEDP, best = edp, s
					}
				}
				row.LayerShare[best]++
				row.MACShare[best] += float64(l.MACs())
				layers++
				macs += float64(l.MACs())
			}
		}
		for s := range row.LayerShare {
			row.LayerShare[s] /= layers
		}
		for s := range row.MACShare {
			row.MACShare[s] /= macs
		}
		out = append(out, row)
	}
	return out, nil
}

// PreferenceReportString renders the census for the cloud class.
func (c *Config) PreferenceReportString() (string, error) {
	rows, err := c.PreferenceReport(16384, 256, 16<<20)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Layer dataflow-preference census (per-layer EDP winner, cloud substrate)\n")
	t := &table{header: []string{"workload", "style", "layer share", "MAC share"}}
	for _, row := range rows {
		for _, s := range dataflow.AllStyles() {
			t.add(row.Workload, s.String(),
				fmt.Sprintf("%.1f%%", 100*row.LayerShare[s]),
				fmt.Sprintf("%.1f%%", 100*row.MACShare[s]))
		}
	}
	b.WriteString(t.String())
	b.WriteString("(the paper's §V-B observes most layers prefer NVDLA while the MAC-heavy\n" +
		" spatial layers prefer Shi-diannao — the tension Herald's partitioning resolves)\n")
	return b.String(), nil
}
