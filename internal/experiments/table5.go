package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accel"
)

// T5Row is one scenario row of Table V: the Herald-optimized Maelstrom
// resource partition.
type T5Row struct {
	Workload, Class   string
	NVDLABW, ShiBW    float64
	NVDLAPEs, ShiPEs  int
	PaperBW, PaperPEs string // the paper's reported partition, for side-by-side
}

// T5Result is Table V plus the paper's aggregate observations about
// the partitions.
type T5Result struct {
	Rows []T5Row

	// AvgNVDLAPEShare is the average fraction of PEs given to the
	// NVDLA-style sub-accelerator (the paper: 111.12% more PEs to
	// NVDLA on average, i.e. share > 0.5).
	AvgNVDLAPEShare float64
	// CloudNVDLAPEShare isolates the cloud scenarios (the paper:
	// cloud leans hardest toward NVDLA).
	CloudNVDLAPEShare float64
	// NonTrivialCount: partitions that are not the even split.
	NonTrivialCount int
}

// paperTable5 lists the paper's reported Maelstrom partitions
// (BW NVDLA/Shi in GB/s, PEs NVDLA/Shi).
var paperTable5 = map[string]struct{ bw, pe string }{
	"AR/VR-A|edge":     {"4 / 12", "128 / 896"},
	"AR/VR-A|mobile":   {"40 / 24", "1792 / 2304"},
	"AR/VR-A|cloud":    {"224 / 32", "9728 / 6656"},
	"AR/VR-B|edge":     {"4 / 12", "128 / 896"},
	"AR/VR-B|mobile":   {"48 / 16", "1536 / 2560"},
	"AR/VR-B|cloud":    {"128 / 128", "12032 / 4352"},
	"MLPerf-b1|edge":   {"4 / 12", "64 / 960"},
	"MLPerf-b1|mobile": {"32 / 32", "1280 / 2816"},
	"MLPerf-b1|cloud":  {"160 / 96", "8192 / 8192"},
}

// TableV reports the optimized Maelstrom hardware partitions found by
// Herald for every workload × class scenario.
func (c *Config) TableV() (*T5Result, error) {
	res := &T5Result{}
	var peShareSum, cloudShareSum float64
	var cloudN int
	for _, w := range Workloads() {
		for _, class := range accel.Classes() {
			d, err := c.Maelstrom(class, w)
			if err != nil {
				return nil, err
			}
			nv := d.HDA.Subs[0] // Maelstrom styles: NVDLA first
			shi := d.HDA.Subs[1]
			paper := paperTable5[w.Name+"|"+class.Name]
			row := T5Row{
				Workload: w.Name, Class: class.Name,
				NVDLABW: nv.HW.BWGBps, ShiBW: shi.HW.BWGBps,
				NVDLAPEs: nv.HW.PEs, ShiPEs: shi.HW.PEs,
				PaperBW: paper.bw, PaperPEs: paper.pe,
			}
			res.Rows = append(res.Rows, row)
			share := float64(nv.HW.PEs) / float64(class.PEs)
			peShareSum += share
			if class.Name == "cloud" {
				cloudShareSum += share
				cloudN++
			}
			if nv.HW.PEs != shi.HW.PEs || nv.HW.BWGBps != shi.HW.BWGBps {
				res.NonTrivialCount++
			}
		}
	}
	res.AvgNVDLAPEShare = peShareSum / float64(len(res.Rows))
	if cloudN > 0 {
		res.CloudNVDLAPEShare = cloudShareSum / float64(cloudN)
	}
	return res, nil
}

// String renders Table V, ours beside the paper's partitions.
func (r *T5Result) String() string {
	var b strings.Builder
	b.WriteString("Table V — Maelstrom: optimized HW resource partition found by Herald\n")
	t := &table{header: []string{"scenario", "BW NVDLA/Shi (ours)", "BW (paper)", "PE NVDLA/Shi (ours)", "PE (paper)"}}
	for _, row := range r.Rows {
		t.add(row.Workload+", "+row.Class,
			fmt.Sprintf("%g / %g", row.NVDLABW, row.ShiBW), row.PaperBW,
			fmt.Sprintf("%d / %d", row.NVDLAPEs, row.ShiPEs), row.PaperPEs)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "paper: optimal partitioning is non-trivial -> measured: %d/%d non-even partitions\n",
		r.NonTrivialCount, len(r.Rows))
	fmt.Fprintf(&b, "paper: NVDLA receives more PEs on average  -> measured avg NVDLA PE share: %.1f%%\n",
		100*r.AvgNVDLAPEShare)
	fmt.Fprintf(&b, "paper: cloud leans hardest toward NVDLA    -> measured cloud NVDLA PE share: %.1f%%\n",
		100*r.CloudNVDLAPEShare)
	return b.String()
}
