// Package trace renders and exports layer execution schedules: text
// Gantt charts per sub-accelerator, shared-buffer occupancy timelines,
// per-instance completion summaries, and CSV/JSON dumps for external
// tooling. The paper's Fig. 7 visualizes schedules exactly this way
// (time × sub-accelerator with per-layer boxes).
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sched"
)

// Gantt renders the schedule as one text lane per sub-accelerator,
// `width` characters wide. Each layer occupies a proportional span
// labeled with its global instance index (an incremental snapshot's
// window starts at its retired count); idle time renders as dots.
func Gantt(s *sched.Schedule, width int) string {
	if width < 16 {
		width = 16
	}
	if s.MakespanCycles == 0 || len(s.Assignments) == 0 {
		return "(empty schedule)\n"
	}
	lanes := make([][]rune, len(s.HDA.Subs))
	for i := range lanes {
		lanes[i] = []rune(strings.Repeat(".", width))
	}
	scale := float64(width) / float64(s.MakespanCycles)
	for _, a := range s.Assignments {
		lo := int(float64(a.Start) * scale)
		hi := int(float64(a.End) * scale)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		mark := markFor(s.Retired.Instances + a.Instance)
		for p := lo; p < hi; p++ {
			lanes[a.SubAcc][p] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %d cycles (%.4f s @1GHz); one column = %.0f cycles\n",
		s.MakespanCycles, s.LatencySeconds(1.0), 1/scale)
	for i, lane := range lanes {
		fmt.Fprintf(&b, "%-22s |%s|\n", s.HDA.Subs[i].Name, string(lane))
	}
	b.WriteString(legend(s))
	return b.String()
}

// markFor maps an instance index to a stable rune (0-9, a-z, A-Z, #).
func markFor(inst int) rune {
	const syms = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	if inst < len(syms) {
		return rune(syms[inst])
	}
	return '#'
}

func legend(s *sched.Schedule) string {
	var b strings.Builder
	b.WriteString("legend:")
	for i, in := range s.Workload.Instances {
		fmt.Fprintf(&b, " %c=%s", markFor(s.Retired.Instances+i), in.Name())
		if i >= 61 {
			b.WriteString(" ...")
			break
		}
	}
	b.WriteString("\n")
	return b.String()
}

// Sample is one point of the occupancy timeline.
type Sample struct {
	Cycle int64
	Bytes int64
}

// OccupancyTimeline returns the shared-global-buffer occupancy as a
// step function: a sample at every instant it changes
// (sched.OccupancySteps).
func OccupancyTimeline(s *sched.Schedule) []Sample {
	var out []Sample
	for c, b := range sched.OccupancySteps(s.Assignments) {
		out = append(out, Sample{Cycle: c, Bytes: b})
	}
	return out
}

// InstanceSummary is the completion view of one model instance — the
// per-sub-task latency an AR/VR system integrator would read off.
type InstanceSummary struct {
	Instance   string
	Layers     int
	FinishedAt int64   // cycle of last layer completion
	BusyCycles int64   // sum of its layers' cycles
	EnergyMJ   float64 // energy attributed to its layers
}

// Instances summarizes per-instance completion, sorted by finish time.
func Instances(s *sched.Schedule) []InstanceSummary {
	sums := make([]InstanceSummary, len(s.Workload.Instances))
	for i, in := range s.Workload.Instances {
		sums[i].Instance = in.Name()
	}
	for _, a := range s.Assignments {
		sm := &sums[a.Instance]
		sm.Layers++
		if a.End > sm.FinishedAt {
			sm.FinishedAt = a.End
		}
		sm.BusyCycles += a.End - a.Start
		sm.EnergyMJ += a.Cost.EnergyPJ() * 1e-9
	}
	sort.Slice(sums, func(i, j int) bool { return sums[i].FinishedAt < sums[j].FinishedAt })
	return sums
}

// WriteCSV dumps every assignment as one CSV row (instance, layer,
// sub-accelerator, start, end, cycles, energy pJ, occupancy bytes).
func WriteCSV(w io.Writer, s *sched.Schedule) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"instance", "layer", "layer_name", "sub_acc", "style",
		"start_cycle", "end_cycle", "cycles", "energy_pj", "occupancy_bytes"}); err != nil {
		return err
	}
	for _, a := range s.Assignments {
		in := s.Workload.Instances[a.Instance]
		sub := s.HDA.Subs[a.SubAcc]
		rec := []string{
			in.Name(),
			strconv.Itoa(a.Layer),
			in.Model.Layers[a.Layer].Name,
			sub.Name,
			sub.Style.String(),
			strconv.FormatInt(a.Start, 10),
			strconv.FormatInt(a.End, 10),
			strconv.FormatInt(a.End-a.Start, 10),
			strconv.FormatFloat(a.Cost.EnergyPJ(), 'f', 1, 64),
			strconv.FormatInt(a.Cost.OccupancyBytes, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonSchedule is the exported JSON shape: an incremental snapshot's
// live window (its assignments) plus the retired totals; makespan and
// energy cover both, the peak occupancy the window.
type jsonSchedule struct {
	HDA         string           `json:"hda"`
	Workload    string           `json:"workload"`
	Makespan    int64            `json:"makespan_cycles"`
	EnergyPJ    float64          `json:"energy_pj"`
	PeakBytes   int64            `json:"peak_occupancy_bytes"`
	Retired     jsonRetired      `json:"retired"`
	Assignments []jsonAssignment `json:"assignments"`
}

// jsonRetired mirrors sched.Retired; all zero for a batch schedule.
type jsonRetired struct {
	Instances      int     `json:"instances"`
	Assignments    int     `json:"assignments"`
	BusyCycles     []int64 `json:"busy_cycles"`
	EnergyPJ       float64 `json:"energy_pj"`
	FrontierCycles []int64 `json:"frontier_cycles"`
}

type jsonAssignment struct {
	Instance   string  `json:"instance"`
	InstanceID int     `json:"instance_id"` // global index, stable across retirement
	Layer      int     `json:"layer"`
	SubAcc     string  `json:"sub_acc"`
	Start      int64   `json:"start"`
	End        int64   `json:"end"`
	EnergyPJ   float64 `json:"energy_pj"`
}

// WriteJSON dumps the schedule as indented JSON.
func WriteJSON(w io.Writer, s *sched.Schedule) error {
	out := jsonSchedule{
		HDA:       s.HDA.String(),
		Workload:  s.Workload.Name,
		Makespan:  s.MakespanCycles,
		EnergyPJ:  s.EnergyPJ,
		PeakBytes: s.PeakOccupancyBytes(),
		Retired: jsonRetired{
			Instances:      s.Retired.Instances,
			Assignments:    s.Retired.Assignments,
			BusyCycles:     s.Retired.BusyCycles,
			EnergyPJ:       s.Retired.EnergyPJ,
			FrontierCycles: s.Retired.FrontierCycles,
		},
	}
	for _, a := range s.Assignments {
		out.Assignments = append(out.Assignments, jsonAssignment{
			Instance:   s.Workload.Instances[a.Instance].Name(),
			InstanceID: s.Retired.Instances + a.Instance,
			Layer:      a.Layer,
			SubAcc:     s.HDA.Subs[a.SubAcc].Name,
			Start:      a.Start,
			End:        a.End,
			EnergyPJ:   a.Cost.EnergyPJ(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
