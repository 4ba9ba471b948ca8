package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/energy"
	"repro/internal/maestro"
	"repro/internal/workload"
)

func newCache() *maestro.Cache { return maestro.NewCache(energy.Default28nm()) }

func maelstromEdge(t testing.TB) *accel.HDA {
	t.Helper()
	// Table V's AR/VR edge partition: NVDLA 128 PEs / 4 GB/s,
	// Shi-diannao 896 PEs / 12 GB/s.
	h, err := accel.New("maelstrom", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 128, BWGBps: 4},
		{Style: dataflow.ShiDiannao, PEs: 896, BWGBps: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestScheduleSmallWorkloadValid(t *testing.T) {
	h := maelstromEdge(t)
	w := workload.MustNew("small", []workload.Entry{
		{Model: "mobilenetv1", Batches: 2},
		{Model: "brq-handpose", Batches: 1},
	})
	s := MustNew(newCache(), DefaultOptions())
	sch, err := s.Schedule(h, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	if sch.MakespanCycles <= 0 || sch.EnergyPJ <= 0 {
		t.Error("non-positive schedule metrics")
	}
	if len(sch.Assignments) != w.TotalLayers() {
		t.Errorf("assignments %d != layers %d", len(sch.Assignments), w.TotalLayers())
	}
	if sch.SchedulingTime <= 0 {
		t.Error("scheduling time not recorded")
	}
}

func TestScheduleAllWorkloadsAllOrderings(t *testing.T) {
	h := maelstromEdge(t)
	cache := newCache()
	for _, w := range workload.Evaluated() {
		for _, ord := range []Ordering{BreadthFirst, DepthFirst} {
			opts := DefaultOptions()
			opts.Ordering = ord
			s := MustNew(cache, opts)
			sch, err := s.Schedule(h, w)
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, ord, err)
			}
			if err := sch.Validate(); err != nil {
				t.Errorf("%s/%v: %v", w.Name, ord, err)
			}
		}
	}
}

// TestLayerParallelismReducesLatency: the HDA's latency hiding
// (§III-B) — a multi-instance workload on a 2-way HDA must finish
// sooner than the sum of per-layer best latencies run sequentially,
// because independent models overlap.
func TestLayerParallelismReducesLatency(t *testing.T) {
	h := maelstromEdge(t)
	cache := newCache()
	w := workload.MustNew("par", []workload.Entry{{Model: "mobilenetv1", Batches: 4}})
	s := MustNew(cache, DefaultOptions())
	sch, err := s.Schedule(h, w)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential lower bound: every layer on its own best sub-acc, one
	// at a time.
	var sequential int64
	for _, in := range w.Instances {
		for i := range in.Model.Layers {
			best := int64(1) << 62
			for a := range h.Subs {
				c := cache.Estimate(&in.Model.Layers[i], h.Subs[a].Style, h.Subs[a].HW)
				if c.Cycles < best {
					best = c.Cycles
				}
			}
			sequential += best
		}
	}
	if sch.MakespanCycles >= sequential {
		t.Errorf("no latency hiding: makespan %d >= sequential %d", sch.MakespanCycles, sequential)
	}
}

// TestPreferenceAssignment: with balancing disabled, FC-heavy layers
// land on the NVDLA sub-accelerator and large-spatial layers on the
// Shi-diannao one (§IV-D dataflow-preference-based assignment).
func TestPreferenceAssignment(t *testing.T) {
	h := maelstromEdge(t)
	opts := DefaultOptions()
	opts.LoadBalanceFactor = inf()
	opts.PostProcess = false
	s := MustNew(newCache(), opts)
	w := workload.MustNew("pref", []workload.Entry{
		{Model: "brq-handpose", Batches: 1}, // FC trunk
		{Model: "unet", Batches: 1},         // giant spatial convs
	})
	sch, err := s.Schedule(h, w)
	if err != nil {
		t.Fatal(err)
	}
	fcOnNVDLA, fcTotal := 0, 0
	convOnShi, convTotal := 0, 0
	for _, a := range sch.Assignments {
		in := w.Instances[a.Instance]
		l := &in.Model.Layers[a.Layer]
		if in.Model.Name == "brq-handpose" && l.Op.String() == "FC" {
			fcTotal++
			if h.Subs[a.SubAcc].Style == dataflow.NVDLA {
				fcOnNVDLA++
			}
		}
		if in.Model.Name == "unet" && l.Y >= 100 {
			convTotal++
			if h.Subs[a.SubAcc].Style == dataflow.ShiDiannao {
				convOnShi++
			}
		}
	}
	if fcTotal == 0 || convTotal == 0 {
		t.Fatal("test workload lost its probe layers")
	}
	if fcOnNVDLA*2 < fcTotal {
		t.Errorf("only %d/%d FC layers on NVDLA", fcOnNVDLA, fcTotal)
	}
	if convOnShi*2 < convTotal {
		t.Errorf("only %d/%d large spatial convs on Shi-diannao", convOnShi, convTotal)
	}
}

// TestHeraldBeatsGreedy: the paper's scheduler-efficacy result (§V-B):
// Herald's load-balanced, post-processed schedules must have lower EDP
// than the naive greedy scheduler on a Maelstrom design.
func TestHeraldBeatsGreedy(t *testing.T) {
	h := maelstromEdge(t)
	cache := newCache()
	w := workload.ARVRA()

	herald := MustNew(cache, DefaultOptions())
	greedy := MustNew(cache, GreedyOptions())

	hs, err := herald.Schedule(h, w)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := greedy.Schedule(h, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := hs.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := gs.Validate(); err != nil {
		t.Fatal(err)
	}
	if hs.EDP(1.0) >= gs.EDP(1.0) {
		t.Errorf("Herald EDP %.4g not better than greedy %.4g", hs.EDP(1.0), gs.EDP(1.0))
	}
}

func TestSingleSubAccIsSequential(t *testing.T) {
	fda, err := accel.NewFDA(accel.Edge, dataflow.NVDLA)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.MustNew("seq", []workload.Entry{{Model: "mobilenetv1", Batches: 1}})
	s := MustNew(newCache(), DefaultOptions())
	sch, err := s.Schedule(fda, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.Validate(); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, a := range sch.Assignments {
		sum += a.End - a.Start
	}
	if sch.MakespanCycles != sum {
		t.Errorf("single-sub schedule should be dense: makespan %d != busy %d", sch.MakespanCycles, sum)
	}
	if u := sch.Utilization(); u[0] < 0.999 {
		t.Errorf("utilization %v, want ~1", u)
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := DefaultOptions()
	bad.LoadBalanceFactor = 0.5
	if _, err := New(newCache(), bad); err == nil {
		t.Error("LbF < 1 should be rejected")
	}
	bad = DefaultOptions()
	bad.LookAhead = -1
	if _, err := New(newCache(), bad); err == nil {
		t.Error("negative look-ahead should be rejected")
	}
	if MetricEDP.String() != "edp" || BreadthFirst.String() != "breadth-first" {
		t.Error("stringers broken")
	}
}

func TestScheduleRejectsEmptyInputs(t *testing.T) {
	s := MustNew(newCache(), DefaultOptions())
	h := maelstromEdge(t)
	if _, err := s.Schedule(nil, workload.ARVRA()); err == nil {
		t.Error("nil HDA accepted")
	}
	if _, err := s.Schedule(h, nil); err == nil {
		t.Error("nil workload accepted")
	}
}

// TestScheduleInvariants property-checks schedule legality across
// random HDA partitions, workload mixes and scheduler options.
func TestScheduleInvariants(t *testing.T) {
	cache := newCache()
	models := []string{"mobilenetv1", "brq-handpose", "mobilenetv2", "resnet50", "gnmt"}
	styles := dataflow.AllStyles()
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random 2- or 3-way partition of the edge class.
		n := 2 + r.Intn(2)
		parts := make([]accel.Partition, n)
		peLeft, bwLeft := accel.Edge.PEs, accel.Edge.BWGBps
		for i := 0; i < n-1; i++ {
			pe := 64 * (1 + r.Intn(peLeft/64-(n-1-i)))
			bw := float64(1 + r.Intn(int(bwLeft)-(n-1-i))) // at least 1 GB/s each
			parts[i] = accel.Partition{Style: styles[r.Intn(len(styles))], PEs: pe, BWGBps: bw}
			peLeft -= pe
			bwLeft -= bw
		}
		parts[n-1] = accel.Partition{Style: styles[r.Intn(len(styles))], PEs: peLeft, BWGBps: bwLeft}
		h, err := accel.New("rand", accel.Edge, parts)
		if err != nil {
			t.Logf("partition rejected: %v", err)
			return false
		}
		// Random workload of 1-3 entries.
		var entries []workload.Entry
		for i := 0; i <= r.Intn(2); i++ {
			entries = append(entries, workload.Entry{Model: models[r.Intn(len(models))], Batches: 1 + r.Intn(2)})
		}
		w, err := workload.New("rand", entries)
		if err != nil {
			return false
		}
		opts := DefaultOptions()
		if r.Intn(2) == 0 {
			opts.Ordering = DepthFirst
		}
		if r.Intn(3) == 0 {
			opts.LoadBalanceFactor = 1.0 + 4*r.Float64()
		}
		opts.PostProcess = r.Intn(2) == 0
		s := MustNew(cache, opts)
		sch, err := s.Schedule(h, w)
		if err != nil {
			t.Logf("schedule failed: %v", err)
			return false
		}
		if err := sch.Validate(); err != nil {
			t.Logf("invalid schedule: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPostProcessNeverRegresses: the Fig. 9 pass must not increase the
// makespan (it only accepts improving or neutral moves).
func TestPostProcessNeverRegresses(t *testing.T) {
	h := maelstromEdge(t)
	cache := newCache()
	w := workload.ARVRB()

	noPost := DefaultOptions()
	noPost.PostProcess = false
	base, err := MustNew(cache, noPost).Schedule(h, w)
	if err != nil {
		t.Fatal(err)
	}
	post, err := MustNew(cache, DefaultOptions()).Schedule(h, w)
	if err != nil {
		t.Fatal(err)
	}
	if post.MakespanCycles > base.MakespanCycles {
		t.Errorf("post-processing regressed makespan: %d > %d", post.MakespanCycles, base.MakespanCycles)
	}
	if err := post.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	h := maelstromEdge(t)
	w := workload.MustNew("v", []workload.Entry{{Model: "brq-handpose", Batches: 1}})
	s := MustNew(newCache(), DefaultOptions())
	sch, err := s.Schedule(h, w)
	if err != nil {
		t.Fatal(err)
	}

	// Dependence violation.
	bad := *sch
	bad.Assignments = append([]Assignment(nil), sch.Assignments...)
	for i := range bad.Assignments {
		if bad.Assignments[i].Layer == 1 {
			a := &bad.Assignments[i]
			a.Start, a.End = 0, a.End-a.Start
		}
	}
	if err := bad.Validate(); err == nil {
		t.Error("Validate missed a dependence/overlap violation")
	}

	// Missing layer.
	bad2 := *sch
	bad2.Assignments = sch.Assignments[:len(sch.Assignments)-1]
	if err := bad2.Validate(); err == nil {
		t.Error("Validate missed a missing layer")
	}

	// Energy mismatch.
	bad3 := *sch
	bad3.EnergyPJ = sch.EnergyPJ * 2
	if err := bad3.Validate(); err == nil {
		t.Error("Validate missed an energy mismatch")
	}
}

func TestWorkloadTableII(t *testing.T) {
	a := workload.ARVRA()
	if a.NumInstances() != 10 {
		t.Errorf("AR/VR-A instances = %d, want 10 (2+4+4)", a.NumInstances())
	}
	b := workload.ARVRB()
	if b.NumInstances() != 12 {
		t.Errorf("AR/VR-B instances = %d, want 12 (2+2+4+2+2)", b.NumInstances())
	}
	m := workload.MLPerf(1)
	if m.NumInstances() != 5 {
		t.Errorf("MLPerf instances = %d, want 5", m.NumInstances())
	}
	m8 := workload.MLPerf(8)
	if m8.NumInstances() != 40 {
		t.Errorf("MLPerf-b8 instances = %d, want 40", m8.NumInstances())
	}
	if b.TotalLayers() <= a.TotalLayers()/2 {
		t.Error("AR/VR-B should be comparable in size to AR/VR-A")
	}
	if _, err := workload.New("bad", nil); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := workload.New("bad", []workload.Entry{{Model: "nope", Batches: 1}}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := workload.New("bad", []workload.Entry{{Model: "unet", Batches: 0}}); err == nil {
		t.Error("zero batches accepted")
	}
	single, err := workload.SingleDNN("unet", 4)
	if err != nil || single.NumInstances() != 4 {
		t.Errorf("SingleDNN: %v, %d instances", err, single.NumInstances())
	}
	if got := a.Instances[0].Name(); got != "resnet50#1" {
		t.Errorf("instance name = %q", got)
	}
}

// TestAssignmentSize pins the committed-log entry at 48 bytes with one
// pointer: the assignment log's page size and every schedule's
// footprint scale with it.
func TestAssignmentSize(t *testing.T) {
	if n := unsafe.Sizeof(Assignment{}); n != 48 {
		t.Errorf("Assignment is %d bytes, want 48", n)
	}
}
