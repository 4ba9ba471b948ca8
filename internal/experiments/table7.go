package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/workload"
)

// T7Row is one row of Table VII: the scheduling time for one workload
// on an HDA with a given number of sub-accelerators.
type T7Row struct {
	Workload string
	Layers   int
	SubAccs  int

	SchedulingTime time.Duration
	MsPerLayer     float64

	PaperSeconds float64 // the paper's laptop-measured seconds
}

// T7Result is the scheduling-time study. The paper reports seconds on
// an i9-9880H laptop (11.09 ms per layer per design point on average);
// our native-Go scheduler is orders of magnitude faster, so the
// comparison is informative, not matched.
type T7Result struct {
	Rows            []T7Row
	AvgMsPerLayer   float64
	PaperMsPerLayer float64
}

// TableVII measures Herald's scheduling time for each workload on 2-
// and 3-way cloud HDAs (Maelstrom styles and the 3-way combo).
func (c *Config) TableVII() (*T7Result, error) {
	paper := map[string]map[int]float64{
		"AR/VR-A":   {2: 2.89, 3: 4.32},
		"AR/VR-B":   {2: 3.98, 3: 10.74},
		"MLPerf-b1": {2: 1.61, 3: 3.22},
	}
	res := &T7Result{PaperMsPerLayer: 11.09}
	var totalMs, totalLayers float64
	for _, w := range Workloads() {
		for _, styles := range [][]dataflow.Style{
			MaelstromStyles(),
			{dataflow.NVDLA, dataflow.ShiDiannao, dataflow.Eyeriss},
		} {
			d, err := c.Design(accel.Cloud, styles, w)
			if err != nil {
				return nil, err
			}
			// Re-schedule on the optimized design to time scheduling in
			// isolation (co-design amortizes cost-model cache warmup).
			sch, err := c.H.Compile(d.HDA, w)
			if err != nil {
				return nil, err
			}
			row := T7Row{
				Workload:       w.Name,
				Layers:         w.TotalLayers(),
				SubAccs:        len(styles),
				SchedulingTime: sch.SchedulingTime,
				MsPerLayer:     float64(sch.SchedulingTime.Microseconds()) / 1000 / float64(w.TotalLayers()),
				PaperSeconds:   paper[w.Name][len(styles)],
			}
			res.Rows = append(res.Rows, row)
			totalMs += float64(sch.SchedulingTime.Microseconds()) / 1000
			totalLayers += float64(w.TotalLayers())
		}
	}
	if totalLayers > 0 {
		res.AvgMsPerLayer = totalMs / totalLayers
	}
	return res, nil
}

// String renders Table VII, ours beside the paper's times.
func (r *T7Result) String() string {
	var b strings.Builder
	b.WriteString("Table VII — scheduling time per workload and sub-accelerator count\n")
	t := &table{header: []string{"workload", "# layers", "# sub-accs", "sched time (ours)", "paper (s)"}}
	for _, row := range r.Rows {
		t.add(row.Workload, fmt.Sprintf("%d", row.Layers), fmt.Sprintf("%d", row.SubAccs),
			row.SchedulingTime.String(), fmt.Sprintf("%.2f", row.PaperSeconds))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "paper: 11.09 ms/layer on an i9 laptop -> measured avg: %.4f ms/layer\n", r.AvgMsPerLayer)
	return b.String()
}

// TableII renders the workload inventory.
func TableII() string {
	var b strings.Builder
	b.WriteString("Table II — heterogeneous multi-DNN workloads\n")
	t := &table{header: []string{"workload", "instances", "layers", "GMACs"}}
	for _, w := range Workloads() {
		t.add(w.Name, fmt.Sprintf("%d", w.NumInstances()), fmt.Sprintf("%d", w.TotalLayers()),
			fmt.Sprintf("%.1f", float64(w.TotalMACs())/1e9))
	}
	w8 := workload.MLPerf(8)
	t.add(w8.Name, fmt.Sprintf("%d", w8.NumInstances()), fmt.Sprintf("%d", w8.TotalLayers()),
		fmt.Sprintf("%.1f", float64(w8.TotalMACs())/1e9))
	b.WriteString(t.String())
	return b.String()
}

// TableIV renders the accelerator classes.
func TableIV() string {
	var b strings.Builder
	b.WriteString("Table IV — accelerator classes\n")
	t := &table{header: []string{"class", "PEs", "NoC BW", "global memory"}}
	for _, cl := range accel.Classes() {
		t.add(cl.Name, fmt.Sprintf("%d", cl.PEs), fmt.Sprintf("%g GB/s", cl.BWGBps),
			fmt.Sprintf("%d MiB", cl.GlobalBufBytes>>20))
	}
	b.WriteString(t.String())
	return b.String()
}
