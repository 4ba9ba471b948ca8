package experiments

import (
	"fmt"
	"strings"

	"repro/internal/dnn"
)

// T1Row is one model row of Table I.
type T1Row struct {
	Task, Model string
	Stats       dnn.RatioStats
	Ops         []dnn.Op

	PaperMin, PaperMedian, PaperMax float64
}

// T1Result reproduces Table I: the heterogeneity of the AR/VR models'
// channel-activation size ratios and operator sets.
type T1Result struct {
	Rows []T1Row

	// MaxSpreadFactor is the ratio between the workload-wide largest
	// and smallest channel-activation ratios (the paper quotes
	// 315,076x for its model suite).
	MaxSpreadFactor      float64
	PaperMaxSpreadFactor float64
}

// TableI computes the shape statistics of the five AR/VR models.
func TableI() (*T1Result, error) {
	rows := []T1Row{
		{Task: "Object Detection", Model: "mobilenetv2", PaperMin: 0.013, PaperMedian: 13.714, PaperMax: 1280},
		{Task: "Object Classification", Model: "resnet50", PaperMin: 0.013, PaperMedian: 18.286, PaperMax: 292.571},
		{Task: "Hand Tracking", Model: "unet", PaperMin: 0.002, PaperMedian: 1.855, PaperMax: 34.133},
		{Task: "Hand Pose Estimation", Model: "brq-handpose", PaperMin: 0.016, PaperMedian: 1024, PaperMax: 1024},
		{Task: "Depth Estimation", Model: "fl-depthnet", PaperMin: 0.013, PaperMedian: 4.571, PaperMax: 4096},
	}
	res := &T1Result{PaperMaxSpreadFactor: 315076}
	min, max := 0.0, 0.0
	for i := range rows {
		m, err := dnn.ByName(rows[i].Model)
		if err != nil {
			return nil, err
		}
		rows[i].Stats = m.RatioStats()
		rows[i].Ops = m.Ops()
		if min == 0 || rows[i].Stats.Min < min {
			min = rows[i].Stats.Min
		}
		if rows[i].Stats.Max > max {
			max = rows[i].Stats.Max
		}
	}
	res.Rows = rows
	if min > 0 {
		res.MaxSpreadFactor = max / min
	}
	return res, nil
}

// String renders Table I, ours beside the paper's values.
func (r *T1Result) String() string {
	var b strings.Builder
	b.WriteString("Table I — heterogeneity in DNN models used in AR/VR workloads\n")
	t := &table{header: []string{"task", "model", "min (ours/paper)", "median (ours/paper)", "max (ours/paper)", "operators"}}
	for _, row := range r.Rows {
		ops := make([]string, len(row.Ops))
		for i, o := range row.Ops {
			ops[i] = o.String()
		}
		t.add(row.Task, row.Model,
			fmt.Sprintf("%.3f / %.3f", row.Stats.Min, row.PaperMin),
			fmt.Sprintf("%.3f / %.3f", row.Stats.Median, row.PaperMedian),
			fmt.Sprintf("%.3f / %.3f", row.Stats.Max, row.PaperMax),
			strings.Join(ops, ","))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "paper: largest/smallest ratio spread %.0fx -> measured %.0fx\n",
		r.PaperMaxSpreadFactor, r.MaxSpreadFactor)
	return b.String()
}
