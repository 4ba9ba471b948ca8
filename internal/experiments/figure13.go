package experiments

import (
	"fmt"
	"strings"

	"repro/internal/accel"
)

// Fig13Cell is the average latency/energy of one accelerator
// organization running one workload (averaged across the three
// accelerator classes), as in Figure 13's bars.
type Fig13Cell struct {
	Accelerator string
	Workload    string
	LatencySec  float64
	EnergyMJ    float64
}

// Fig13Result is the workload-change robustness study: HDA designs
// optimized for workload X are fixed and re-scheduled (layer scheduling
// only) for workloads Y and Z.
type Fig13Result struct {
	Cells []Fig13Cell

	// AvgMismatchLatencyPct / AvgMismatchEnergyPct: the average
	// latency/energy increase of running a mismatched HDA (optimized
	// for another workload) relative to the matched one (paper: 4.0%
	// and 0.1% on average).
	AvgMismatchLatencyPct float64
	AvgMismatchEnergyPct  float64
	PaperMismatchLatency  float64
	PaperMismatchEnergy   float64
}

// Figure13 fixes HDA-A/HDA-B/HDA-M (Maelstrom designs optimized for
// AR/VR-A, AR/VR-B and MLPerf) and runs every workload on each,
// alongside the FDA, SM-FDA and RDA references.
func (c *Config) Figure13() (*Fig13Result, error) {
	res := &Fig13Result{PaperMismatchLatency: 4.0, PaperMismatchEnergy: 0.1}
	workloads := Workloads()
	names := []string{"HDA-A", "HDA-B", "HDA-M"}

	var mismatchLat, mismatchE float64
	var mismatchN int

	for wi, target := range workloads {
		// Reference organizations, averaged across classes.
		var fdaLat, fdaE, smLat, smE, rdaLat, rdaE float64
		for _, class := range accel.Classes() {
			se, err := c.EvalScenario(class, target)
			if err != nil {
				return nil, err
			}
			fdaLat += se.BestFDA.LatencySec
			fdaE += se.BestFDA.EnergyMJ
			smLat += se.BestSMFDA.LatencySec
			smE += se.BestSMFDA.EnergyMJ
			rdaLat += se.RDA.LatencySec
			rdaE += se.RDA.EnergyMJ
		}
		n := float64(len(accel.Classes()))
		res.Cells = append(res.Cells,
			Fig13Cell{"FDA", target.Name, fdaLat / n, fdaE / n},
			Fig13Cell{"SFDA", target.Name, smLat / n, smE / n},
			Fig13Cell{"RDA", target.Name, rdaLat / n, rdaE / n})

		// The three fixed HDA designs (per class, designs optimized
		// for each source workload), re-scheduled for the target.
		for si, source := range workloads {
			var lat, e float64
			for _, class := range accel.Classes() {
				d, err := c.Maelstrom(class, source)
				if err != nil {
					return nil, err
				}
				sch, err := c.H.Compile(d.HDA, target)
				if err != nil {
					return nil, err
				}
				lat += sch.LatencySeconds(1.0)
				e += sch.EnergyMJ()
			}
			cell := Fig13Cell{names[si], target.Name, lat / n, e / n}
			res.Cells = append(res.Cells, cell)
			if si != wi {
				// Mismatch penalty vs the matched design.
				var mLat, mE float64
				for _, class := range accel.Classes() {
					d, err := c.Maelstrom(class, target)
					if err != nil {
						return nil, err
					}
					mLat += d.LatencySec
					mE += d.EnergyMJ
				}
				mLat /= n
				mE /= n
				mismatchLat += -pctVal(cell.LatencySec, mLat)
				mismatchE += -pctVal(cell.EnergyMJ, mE)
				mismatchN++
			}
		}
	}
	if mismatchN > 0 {
		res.AvgMismatchLatencyPct = mismatchLat / float64(mismatchN)
		res.AvgMismatchEnergyPct = mismatchE / float64(mismatchN)
	}
	return res, nil
}

// String renders the Fig. 13 workload-change table, averaged across
// classes.
func (r *Fig13Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 13 — workload-change robustness (averages across classes)\n")
	t := &table{header: []string{"accelerator", "workload", "latency", "energy"}}
	for _, cell := range r.Cells {
		t.add(cell.Accelerator, cell.Workload, ms(cell.LatencySec), mj(cell.EnergyMJ))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "paper: mismatched-HDA latency penalty %.1f%% -> measured %.1f%%\n",
		r.PaperMismatchLatency, r.AvgMismatchLatencyPct)
	fmt.Fprintf(&b, "paper: mismatched-HDA energy penalty %.1f%%  -> measured %.1f%%\n",
		r.PaperMismatchEnergy, r.AvgMismatchEnergyPct)
	return b.String()
}
