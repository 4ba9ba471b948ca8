package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/energy"
	"repro/internal/maestro"
	"repro/internal/sched"
	"repro/internal/workload"
)

func testSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	h, err := accel.New("t", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := workload.MustNew("trace", []workload.Entry{
		{Model: "mobilenetv1", Batches: 2},
		{Model: "brq-handpose", Batches: 1},
	})
	s := sched.MustNew(maestro.NewCache(energy.Default28nm()), sched.DefaultOptions())
	sch, err := s.Schedule(h, w)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestGantt(t *testing.T) {
	sch := testSchedule(t)
	g := Gantt(sch, 80)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	// header + one lane per sub-acc + legend
	if len(lines) != 2+len(sch.HDA.Subs) {
		t.Fatalf("gantt lines = %d, want %d:\n%s", len(lines), 2+len(sch.HDA.Subs), g)
	}
	if !strings.Contains(g, "acc1-NVDLA") || !strings.Contains(g, "acc2-Shi-diannao") {
		t.Error("lane labels missing")
	}
	if !strings.Contains(g, "mobilenetv1#1") {
		t.Error("legend missing instance names")
	}
	// Every instance mark should appear somewhere.
	for i := range sch.Workload.Instances {
		if !strings.ContainsRune(g, markFor(i)) {
			t.Errorf("instance %d mark %c absent from gantt", i, markFor(i))
		}
	}
	if out := Gantt(&sched.Schedule{HDA: sch.HDA, Workload: sch.Workload}, 40); !strings.Contains(out, "empty") {
		t.Error("empty schedule should render a placeholder")
	}
}

func TestOccupancyTimeline(t *testing.T) {
	sch := testSchedule(t)
	tl := OccupancyTimeline(sch)
	if len(tl) == 0 {
		t.Fatal("empty timeline")
	}
	var peak int64
	prev := int64(-1)
	for _, s := range tl {
		if s.Cycle < prev {
			t.Fatal("timeline not sorted")
		}
		prev = s.Cycle
		if s.Bytes < 0 {
			t.Fatalf("negative occupancy %d at %d", s.Bytes, s.Cycle)
		}
		if s.Bytes > peak {
			peak = s.Bytes
		}
	}
	if peak != sch.PeakOccupancyBytes() {
		t.Errorf("timeline peak %d != schedule peak %d", peak, sch.PeakOccupancyBytes())
	}
	if last := tl[len(tl)-1]; last.Bytes != 0 {
		t.Errorf("occupancy should return to zero at the end, got %d", last.Bytes)
	}
}

func TestInstances(t *testing.T) {
	sch := testSchedule(t)
	sums := Instances(sch)
	if len(sums) != sch.Workload.NumInstances() {
		t.Fatalf("summaries = %d", len(sums))
	}
	var layers int
	var maxFinish int64
	for i, s := range sums {
		layers += s.Layers
		if s.FinishedAt > maxFinish {
			maxFinish = s.FinishedAt
		}
		if i > 0 && s.FinishedAt < sums[i-1].FinishedAt {
			t.Error("summaries not sorted by finish time")
		}
		if s.BusyCycles <= 0 || s.EnergyMJ <= 0 {
			t.Errorf("%s: empty summary", s.Instance)
		}
	}
	if layers != sch.Workload.TotalLayers() {
		t.Errorf("summary layers %d != workload %d", layers, sch.Workload.TotalLayers())
	}
	if maxFinish != sch.MakespanCycles {
		t.Errorf("latest finish %d != makespan %d", maxFinish, sch.MakespanCycles)
	}
}

func TestWriteCSV(t *testing.T) {
	sch := testSchedule(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sch); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+len(sch.Assignments) {
		t.Fatalf("csv rows = %d, want %d", len(recs), 1+len(sch.Assignments))
	}
	if recs[0][0] != "instance" || len(recs[1]) != 10 {
		t.Error("csv shape unexpected")
	}
}

func TestWriteJSON(t *testing.T) {
	sch := testSchedule(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sch); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Makespan    int64 `json:"makespan_cycles"`
		Assignments []struct {
			Instance string `json:"instance"`
			End      int64  `json:"end"`
		} `json:"assignments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Makespan != sch.MakespanCycles {
		t.Error("makespan mismatch in JSON")
	}
	if len(decoded.Assignments) != len(sch.Assignments) {
		t.Error("assignment count mismatch in JSON")
	}
}

// TestWriteJSONRetiredWindow renders an incremental snapshot whose
// early instances retired: the JSON carries the live window with
// global instance ids plus the retired totals, and the Gantt legend
// labels the window by global index.
func TestWriteJSONRetiredWindow(t *testing.T) {
	h, err := accel.New("t", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := sched.DefaultOptions()
	opts.PostProcess = false
	inc, err := sched.MustNew(maestro.NewCache(energy.Default28nm()), opts).Incremental(h, "retire")
	if err != nil {
		t.Fatal(err)
	}
	m := workload.MustNew("one", []workload.Entry{{Model: "brq-handpose", Batches: 1}}).Instances[0].Model
	for i := 0; i < 12; i++ {
		in := workload.Instance{Model: m, Batch: i + 1, ArrivalCycle: int64(i) * 50_000_000}
		if _, err := inc.Extend([]sched.Admission{{Instance: in}}); err != nil {
			t.Fatal(err)
		}
	}
	sch := inc.Snapshot()
	base := sch.Retired.Instances
	if base == 0 || base+sch.Workload.NumInstances() != 12 {
		t.Fatalf("%d retired + %d live instances, want some retired out of 12", base, sch.Workload.NumInstances())
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sch); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Makespan int64 `json:"makespan_cycles"`
		Retired  struct {
			Instances   int     `json:"instances"`
			Assignments int     `json:"assignments"`
			BusyCycles  []int64 `json:"busy_cycles"`
		} `json:"retired"`
		Assignments []struct {
			InstanceID int `json:"instance_id"`
		} `json:"assignments"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Makespan != sch.MakespanCycles || decoded.Retired.Instances != base ||
		decoded.Retired.Assignments != base*m.NumLayers() || len(decoded.Retired.BusyCycles) != 2 {
		t.Errorf("decoded totals %+v, want makespan %d and %d retired instances", decoded, sch.MakespanCycles, base)
	}
	for _, a := range decoded.Assignments {
		if a.InstanceID < base || a.InstanceID >= 12 {
			t.Fatalf("assignment instance id %d outside the live window [%d, 12)", a.InstanceID, base)
		}
	}
	if g := Gantt(sch, 40); !strings.Contains(g, "b="+m.Name+"#12") {
		t.Errorf("Gantt legend does not label the last instance by its global index 11:\n%s", g)
	}
}
