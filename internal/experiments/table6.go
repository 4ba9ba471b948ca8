package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/workload"
)

// T6Row is one (class, batch size) row of Table VI: the HDA's latency
// and energy gain against the best-EDP FDA and against the RDA on the
// MLPerf workload.
type T6Row struct {
	Class string
	Batch int

	LatencyGainVsFDA float64
	EnergyGainVsFDA  float64
	LatencyGainVsRDA float64
	EnergyGainVsRDA  float64

	PaperLatVsFDA, PaperEVsFDA float64
	PaperLatVsRDA, PaperEVsRDA float64
}

// T6Result is the Table VI batch-size study.
type T6Result struct {
	Rows []T6Row

	// HDA's edge over the RDA must grow with batch size (the paper's
	// takeaway: "HDA prefers large batch sizes").
	GainGrowsWithBatch bool
}

// TableVI evaluates the MLPerf workload at batch sizes 1 and 8 on all
// three classes: the Maelstrom HDA (Herald-optimized per scenario)
// against the best FDA and the RDA.
func (c *Config) TableVI() (*T6Result, error) {
	paper := map[string][4]float64{
		// class|batch -> {lat vs FDA, E vs FDA, lat vs RDA, E vs RDA}
		"edge|1":   {12.4, 0.2, -8.2, 20.4},
		"edge|8":   {21.28, 10.8, 26.7, 22.9},
		"mobile|1": {12.4, 0.2, -8.2, 17.1},
		"mobile|8": {56.0, 1.3, 76.1, 43.5},
		"cloud|1":  {20.2, 10.8, 25.7, 26.8},
		"cloud|8":  {63.9, 1.34, 80.4, 41.3},
	}
	res := &T6Result{}
	sumGain := map[int]float64{}
	for _, class := range accel.Classes() {
		for _, batch := range []int{1, 8} {
			w := workload.MLPerf(batch)
			d, err := c.Maelstrom(class, w)
			if err != nil {
				return nil, err
			}
			var bestFDA struct {
				lat, e, edp float64
			}
			for _, s := range dataflow.AllStyles() {
				e, err := c.H.EvalFDA(class, s, w)
				if err != nil {
					return nil, err
				}
				if bestFDA.edp == 0 || e.EDP < bestFDA.edp {
					bestFDA.lat, bestFDA.e, bestFDA.edp = e.LatencySec, e.EnergyMJ, e.EDP
				}
			}
			rda, err := c.H.EvalRDA(class, w)
			if err != nil {
				return nil, err
			}
			p := paper[class.Name+"|"+itoa(batch)]
			row := T6Row{
				Class: class.Name, Batch: batch,
				LatencyGainVsFDA: pctVal(d.LatencySec, bestFDA.lat),
				EnergyGainVsFDA:  pctVal(d.EnergyMJ, bestFDA.e),
				LatencyGainVsRDA: pctVal(d.LatencySec, rda.LatencySec),
				EnergyGainVsRDA:  pctVal(d.EnergyMJ, rda.EnergyMJ),
				PaperLatVsFDA:    p[0], PaperEVsFDA: p[1],
				PaperLatVsRDA: p[2], PaperEVsRDA: p[3],
			}
			res.Rows = append(res.Rows, row)
			sumGain[batch] += row.LatencyGainVsRDA + row.EnergyGainVsRDA
		}
	}
	res.GainGrowsWithBatch = sumGain[8] > sumGain[1]
	return res, nil
}

func itoa(i int) string { return fmt.Sprintf("%d", i) }

// String renders Table VI, ours beside the paper's gains.
func (r *T6Result) String() string {
	var b strings.Builder
	b.WriteString("Table VI — Maelstrom gains vs best FDA and RDA across MLPerf batch sizes\n")
	t := &table{header: []string{"class", "batch",
		"lat vs FDA (ours/paper)", "E vs FDA (ours/paper)",
		"lat vs RDA (ours/paper)", "E vs RDA (ours/paper)"}}
	for _, row := range r.Rows {
		t.add(row.Class, itoa(row.Batch),
			fmt.Sprintf("%+.1f%% / %+.1f%%", row.LatencyGainVsFDA, row.PaperLatVsFDA),
			fmt.Sprintf("%+.1f%% / %+.1f%%", row.EnergyGainVsFDA, row.PaperEVsFDA),
			fmt.Sprintf("%+.1f%% / %+.1f%%", row.LatencyGainVsRDA, row.PaperLatVsRDA),
			fmt.Sprintf("%+.1f%% / %+.1f%%", row.EnergyGainVsRDA, row.PaperEVsRDA))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "paper: HDA's edge over RDA grows with batch size -> measured: %v\n", r.GainGrowsWithBatch)
	return b.String()
}
