package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/maestro"
)

// Fig5Row is one (layer, style) cell of Figure 5's comparison.
type Fig5Row struct {
	Layer       string
	Style       dataflow.Style
	Utilization float64
	EDP         float64

	PaperUtilization float64 // the utilization the paper reports
}

// Fig5Result reproduces Figure 5: the impact of dataflow style on the
// three example layers (early-classification CONV2D, late-
// classification CONV2D, depth-wise CONV2D) on a 16-PE toy
// accelerator.
type Fig5Result struct {
	Rows []Fig5Row

	// UtilizationsMatch reports whether all six mapping utilizations
	// equal the paper's values exactly.
	UtilizationsMatch bool
	// PreferenceSigns reports whether the EDP preferences match the
	// figure: Shi-diannao wins layers 1 and 3, NVDLA wins layer 2.
	PreferenceSigns bool
}

// fig5Layers returns the figure's three example layers.
func fig5Layers() []dnn.Layer {
	return []dnn.Layer{
		{Name: "L1 early-CONV2D", Op: dnn.Conv2D, K: 2, C: 3, Y: 6, X: 6, R: 3, S: 3, Stride: 1},
		{Name: "L2 late-CONV2D", Op: dnn.Conv2D, K: 3, C: 16, Y: 4, X: 4, R: 3, S: 3, Stride: 1},
		{Name: "L3 DWCONV", Op: dnn.DWConv, K: 2, C: 2, Y: 6, X: 6, R: 3, S: 3, Stride: 1},
	}
}

// Figure5 evaluates the figure's layers on NVDLA- and Shi-diannao-
// style 16-PE accelerators.
func (c *Config) Figure5() (*Fig5Result, error) {
	hw := maestro.HW{PEs: 16, BWGBps: 4, L2Bytes: 64 << 10}
	paperUtil := map[string]map[dataflow.Style]float64{
		"L1 early-CONV2D": {dataflow.NVDLA: 0.375, dataflow.ShiDiannao: 1.0},
		"L2 late-CONV2D":  {dataflow.NVDLA: 1.0, dataflow.ShiDiannao: 0.25},
		"L3 DWCONV":       {dataflow.NVDLA: 0.125, dataflow.ShiDiannao: 1.0},
	}
	res := &Fig5Result{UtilizationsMatch: true}
	edp := map[string]map[dataflow.Style]float64{}
	layers := fig5Layers()
	for i := range layers {
		l := &layers[i]
		if err := l.Validate(); err != nil {
			return nil, err
		}
		edp[l.Name] = map[dataflow.Style]float64{}
		for _, s := range []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao} {
			cost := maestro.Estimate(l, s, hw, c.H.Cache().Table())
			row := Fig5Row{
				Layer:            l.Name,
				Style:            s,
				Utilization:      cost.Mapping.Utilization,
				EDP:              cost.EDP(1.0),
				PaperUtilization: paperUtil[l.Name][s],
			}
			if row.Utilization != row.PaperUtilization {
				res.UtilizationsMatch = false
			}
			res.Rows = append(res.Rows, row)
			edp[l.Name][s] = row.EDP
		}
	}
	res.PreferenceSigns = edp["L1 early-CONV2D"][dataflow.ShiDiannao] < edp["L1 early-CONV2D"][dataflow.NVDLA] &&
		edp["L2 late-CONV2D"][dataflow.NVDLA] < edp["L2 late-CONV2D"][dataflow.ShiDiannao] &&
		edp["L3 DWCONV"][dataflow.ShiDiannao] < edp["L3 DWCONV"][dataflow.NVDLA]
	return res, nil
}

// String renders the Fig. 5 per-layer utilization and EDP table.
func (r *Fig5Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 5 — dataflow style impact on three example layers (16 PEs)\n")
	t := &table{header: []string{"layer", "style", "util", "paper util", "EDP"}}
	for _, row := range r.Rows {
		t.add(row.Layer, row.Style.String(),
			fmt.Sprintf("%.1f%%", 100*row.Utilization),
			fmt.Sprintf("%.1f%%", 100*row.PaperUtilization),
			f3(row.EDP))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "paper: all six utilizations            -> measured match: %v\n", r.UtilizationsMatch)
	fmt.Fprintf(&b, "paper: Shi wins L1/L3, NVDLA wins L2   -> measured match: %v\n", r.PreferenceSigns)
	return b.String()
}
