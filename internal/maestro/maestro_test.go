package maestro

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/energy"
)

// fig2HW is the Figure 2 configuration: 256 PEs, 32 GB/s NoC bandwidth,
// with a generous shared buffer.
var fig2HW = HW{PEs: 256, BWGBps: 32, L2Bytes: 4 << 20}

func et() energy.Table { return energy.Default28nm() }

func TestHWValidate(t *testing.T) {
	good := fig2HW
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []HW{
		{PEs: 0, BWGBps: 32, L2Bytes: 1 << 20},
		{PEs: 256, BWGBps: 0, L2Bytes: 1 << 20},
		{PEs: 256, BWGBps: 32, L2Bytes: 10},
		{PEs: 256, BWGBps: 32, L2Bytes: 1 << 20, ContextCycles: -1},
		{PEs: 256, BWGBps: 32, L2Bytes: 1 << 20, ContextPJ: -1},
		// Non-finite values: a NaN in a cache key never equals itself,
		// so every lookup would intern a new row.
		{PEs: 256, BWGBps: nan, L2Bytes: 1 << 20},
		{PEs: 256, BWGBps: inf, L2Bytes: 1 << 20},
		{PEs: 256, BWGBps: -inf, L2Bytes: 1 << 20},
		{PEs: 256, BWGBps: 32, L2Bytes: 1 << 20, ClockGHz: nan},
		{PEs: 256, BWGBps: 32, L2Bytes: 1 << 20, ClockGHz: inf},
		{PEs: 256, BWGBps: 32, L2Bytes: 1 << 20, ClockGHz: -inf},
		{PEs: 256, BWGBps: 32, L2Bytes: 1 << 20, ContextPJ: nan},
		{PEs: 256, BWGBps: 32, L2Bytes: 1 << 20, ContextPJ: inf},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, h)
		}
	}
	good2 := []HW{
		{PEs: 1, BWGBps: math.SmallestNonzeroFloat64, L2Bytes: 1024},
		{PEs: 256, BWGBps: 32, L2Bytes: 1 << 20, ClockGHz: 0.5, ContextCycles: 10, ContextPJ: 1e3},
		{PEs: 256, BWGBps: 32, L2Bytes: 1 << 20, ClockGHz: -1}, // defaults to 1 GHz
	}
	for i, h := range good2 {
		if err := h.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected %+v: %v", i, h, err)
		}
	}
	if (HW{}).Clock() != 1.0 {
		t.Error("zero clock should default to 1 GHz")
	}
}

func TestEnergyTableValidate(t *testing.T) {
	if err := et().Validate(); err != nil {
		t.Fatal(err)
	}
	badTable := et()
	badTable.DRAM = badTable.RF / 2
	if err := badTable.Validate(); err == nil {
		t.Error("inverted hierarchy should fail validation")
	}
	neg := et()
	neg.MAC = 0
	if err := neg.Validate(); err == nil {
		t.Error("zero MAC energy should fail validation")
	}
	scaled := et().Scale(2)
	if scaled.MAC != 2*et().MAC || scaled.DRAM != 2*et().DRAM {
		t.Error("Scale should multiply every entry")
	}
}

// TestFigure2Orderings reproduces the qualitative content of Figure 2:
// on ResNet50 (deep channels) the NVDLA style has the lowest EDP of the
// three styles; on UNet (shallow channels, huge activations) NVDLA has
// the highest EDP and Shi-diannao the lowest.
func TestFigure2Orderings(t *testing.T) {
	resnet := dnn.MustByName("resnet50")
	unet := dnn.MustByName("unet")

	edp := func(m *dnn.Model, s dataflow.Style) float64 {
		return EstimateModel(m, s, fig2HW, et()).EDP(1.0)
	}

	rn := edp(resnet, dataflow.NVDLA)
	rs := edp(resnet, dataflow.ShiDiannao)
	re := edp(resnet, dataflow.Eyeriss)
	if !(rn < rs && rn < re) {
		t.Errorf("ResNet50 EDP: NVDLA %.3g should beat Shi %.3g and Eyeriss %.3g (Fig. 2a)", rn, rs, re)
	}

	un := edp(unet, dataflow.NVDLA)
	us := edp(unet, dataflow.ShiDiannao)
	ue := edp(unet, dataflow.Eyeriss)
	if !(us < un) {
		t.Errorf("UNet EDP: Shi %.3g should beat NVDLA %.3g (Fig. 2b)", us, un)
	}
	if !(un > us && un > ue) {
		t.Errorf("UNet EDP: NVDLA %.3g should be the worst (Shi %.3g, Eyeriss %.3g)", un, us, ue)
	}

	// Figure 2's axes differ by orders of magnitude: UNet's EDP dwarfs
	// ResNet50's on every style (the workload itself is ~15x the MACs
	// at 4x the batch in AR/VR-A; here instance-for-instance).
	if us < rs {
		t.Errorf("UNet EDP (%.3g) should exceed ResNet50's (%.3g) on the same style", us, rs)
	}
}

// TestFigure5EDPOrderings checks the per-layer preference signs of
// Figure 5: Shi-diannao wins layers 1 (early-classification conv) and
// 3 (depth-wise), NVDLA wins layer 2 (late-classification conv).
func TestFigure5EDPOrderings(t *testing.T) {
	hw := HW{PEs: 16, BWGBps: 4, L2Bytes: 64 << 10}
	layers := []dnn.Layer{
		{Name: "l1", Op: dnn.Conv2D, K: 2, C: 3, Y: 6, X: 6, R: 3, S: 3, Stride: 1},
		{Name: "l2", Op: dnn.Conv2D, K: 3, C: 16, Y: 4, X: 4, R: 3, S: 3, Stride: 1},
		{Name: "l3", Op: dnn.DWConv, K: 2, C: 2, Y: 6, X: 6, R: 3, S: 3, Stride: 1},
	}
	edp := func(i int, s dataflow.Style) float64 {
		return Estimate(&layers[i], s, hw, et()).EDP(1.0)
	}
	if !(edp(0, dataflow.ShiDiannao) < edp(0, dataflow.NVDLA)) {
		t.Error("Fig. 5 layer 1: Shi-diannao should have lower EDP than NVDLA")
	}
	if !(edp(1, dataflow.NVDLA) < edp(1, dataflow.ShiDiannao)) {
		t.Error("Fig. 5 layer 2: NVDLA should have lower EDP than Shi-diannao")
	}
	if !(edp(2, dataflow.ShiDiannao) < edp(2, dataflow.NVDLA)) {
		t.Error("Fig. 5 layer 3: Shi-diannao should have lower EDP than NVDLA")
	}
}

func TestContextPenaltyApplied(t *testing.T) {
	l := dnn.Layer{Op: dnn.Conv2D, K: 64, C: 64, Y: 28, X: 28, R: 3, S: 3, Stride: 1, Pad: 1}
	base := Estimate(&l, dataflow.NVDLA, fig2HW, et())
	hw := fig2HW
	hw.ContextCycles = 10000
	hw.ContextPJ = 5e6
	pen := Estimate(&l, dataflow.NVDLA, hw, et())
	if pen.Cycles != base.Cycles+10000 {
		t.Errorf("context cycles not charged: %d vs %d", pen.Cycles, base.Cycles)
	}
	if pen.EnergyPJ() != base.EnergyPJ()+5e6 {
		t.Errorf("context energy not charged: %g vs %g", pen.EnergyPJ(), base.EnergyPJ())
	}
}

func TestDoubleBufferedLatency(t *testing.T) {
	// A compute-heavy layer must be compute-bound; starving its
	// bandwidth must flip it to memory-bound with higher latency.
	l := dnn.Layer{Op: dnn.Conv2D, K: 512, C: 512, Y: 14, X: 14, R: 3, S: 3, Stride: 1, Pad: 1}
	rich := Estimate(&l, dataflow.NVDLA, HW{PEs: 256, BWGBps: 256, L2Bytes: 8 << 20}, et())
	if rich.Cycles-rich.FillCycles != rich.ComputeCycles {
		t.Errorf("with ample bandwidth the layer should be compute-bound: %+v", rich)
	}
	poor := Estimate(&l, dataflow.NVDLA, HW{PEs: 256, BWGBps: 0.5, L2Bytes: 8 << 20}, et())
	if poor.Cycles <= rich.Cycles {
		t.Error("starved bandwidth should increase latency")
	}
	if poor.MemoryCycles <= poor.ComputeCycles {
		t.Error("starved bandwidth should make the layer memory-bound")
	}
}

func TestSmallBufferIncreasesDRAMTraffic(t *testing.T) {
	// When neither weights nor inputs fit the resident budget, DRAM
	// traffic must exceed the compulsory footprint.
	l := dnn.Layer{Op: dnn.Conv2D, K: 512, C: 512, Y: 56, X: 56, R: 3, S: 3, Stride: 1, Pad: 1}
	compulsory := l.InputElems() + l.WeightElems() + l.OutputElems()
	big := Estimate(&l, dataflow.NVDLA, HW{PEs: 256, BWGBps: 32, L2Bytes: 32 << 20}, et())
	if big.DRAMBytes != compulsory {
		t.Errorf("ample buffer: DRAM bytes %d, want compulsory %d", big.DRAMBytes, compulsory)
	}
	small := Estimate(&l, dataflow.NVDLA, HW{PEs: 256, BWGBps: 32, L2Bytes: 256 << 10}, et())
	if small.DRAMBytes <= compulsory {
		t.Errorf("tiny buffer: DRAM bytes %d should exceed compulsory %d", small.DRAMBytes, compulsory)
	}
	if small.Energy.DRAM <= big.Energy.DRAM {
		t.Error("tiny buffer should cost more DRAM energy")
	}
}

func TestRepeatScalesCost(t *testing.T) {
	base := dnn.Layer{Op: dnn.FC, K: 4096, C: 2048, Y: 1, X: 1, R: 1, S: 1, Stride: 1}
	rep := base
	rep.Repeat = 25
	c1 := Estimate(&base, dataflow.NVDLA, fig2HW, et())
	c25 := Estimate(&rep, dataflow.NVDLA, fig2HW, et())
	if c25.ComputeCycles != 25*c1.ComputeCycles {
		t.Errorf("repeat compute cycles: %d, want %d", c25.ComputeCycles, 25*c1.ComputeCycles)
	}
	if c25.Energy.MAC != 25*c1.Energy.MAC {
		t.Errorf("repeat MAC energy: %g, want %g", c25.Energy.MAC, 25*c1.Energy.MAC)
	}
	// Weights that fit the global buffer are fetched from DRAM once
	// regardless of repeats.
	small := dnn.Layer{Op: dnn.FC, K: 1024, C: 1024, Y: 1, X: 1, R: 1, S: 1, Stride: 1, Repeat: 25}
	cs := Estimate(&small, dataflow.NVDLA, fig2HW, et())
	wantDRAM := small.TotalInputElems() + small.WeightElems() + small.TotalOutputElems()
	if cs.DRAMBytes != wantDRAM {
		t.Errorf("resident-weight repeat DRAM bytes: %d, want %d", cs.DRAMBytes, wantDRAM)
	}
	// Weights that exceed the global buffer re-stream from DRAM every
	// timestep — the RNN weight-streaming wall that makes GNMT
	// memory-bound at batch 1.
	if c25.DRAMBytes <= rep.WeightElems()*2 {
		t.Errorf("oversized weights should re-stream from DRAM per repeat: %d", c25.DRAMBytes)
	}
}

func TestOccupancyCapped(t *testing.T) {
	l := dnn.Layer{Op: dnn.Conv2D, K: 64, C: 64, Y: 578, X: 578, R: 3, S: 3, Stride: 1}
	c := Estimate(&l, dataflow.ShiDiannao, HW{PEs: 256, BWGBps: 32, L2Bytes: 4 << 20}, et())
	if c.OccupancyBytes > 4<<20 {
		t.Errorf("occupancy %d exceeds L2 share", c.OccupancyBytes)
	}
	tiny := dnn.Layer{Op: dnn.FC, K: 16, C: 16, Y: 1, X: 1, R: 1, S: 1, Stride: 1}
	ct := Estimate(&tiny, dataflow.NVDLA, fig2HW, et())
	want := tiny.InputElems() + tiny.OutputElems() + tiny.WeightElems()
	if ct.OccupancyBytes != want {
		t.Errorf("small-layer occupancy %d, want exact working set %d", ct.OccupancyBytes, want)
	}
}

func TestCacheMemoizes(t *testing.T) {
	c := NewCache(et())
	l1 := dnn.Layer{Name: "a", Op: dnn.Conv2D, K: 64, C: 64, Y: 28, X: 28, R: 3, S: 3, Stride: 1, Pad: 1}
	l2 := l1
	l2.Name = "b" // same shape, different name

	cost1 := c.Estimate(&l1, dataflow.NVDLA, fig2HW)
	if c.Len() != 1 {
		t.Fatalf("cache size = %d, want 1", c.Len())
	}
	cost2 := c.Estimate(&l2, dataflow.NVDLA, fig2HW)
	if c.Len() != 1 {
		t.Errorf("same shape should hit cache; size = %d", c.Len())
	}
	if cost1 != cost2 {
		t.Error("cache must return identical costs for identical shapes")
	}
	_ = c.Estimate(&l1, dataflow.ShiDiannao, fig2HW)
	if c.Len() != 2 {
		t.Errorf("different style should miss cache; size = %d", c.Len())
	}
	hw2 := fig2HW
	hw2.PEs = 128
	_ = c.Estimate(&l1, dataflow.NVDLA, hw2)
	if c.Len() != 3 {
		t.Errorf("different HW should miss cache; size = %d", c.Len())
	}
	if c.Table() != et() {
		t.Error("Table accessor mismatch")
	}
}

func TestEstimateModelSumsLayers(t *testing.T) {
	m := dnn.MustByName("mobilenetv1")
	mc := EstimateModel(m, dataflow.NVDLA, fig2HW, et())
	if len(mc.PerLayer) != m.NumLayers() {
		t.Fatalf("per-layer costs: %d, want %d", len(mc.PerLayer), m.NumLayers())
	}
	var cyc int64
	var pj float64
	for _, c := range mc.PerLayer {
		cyc += c.Cycles
		pj += c.EnergyPJ()
	}
	if cyc != mc.Cycles {
		t.Errorf("cycles sum mismatch: %d vs %d", cyc, mc.Cycles)
	}
	if pj != mc.EnergyPJ {
		t.Errorf("energy sum mismatch: %g vs %g", pj, mc.EnergyPJ)
	}
	if mc.Seconds(1.0) <= 0 || mc.EDP(1.0) <= 0 {
		t.Error("model seconds/EDP must be positive")
	}
}

func genCostLayer(r *rand.Rand) dnn.Layer {
	ops := []dnn.Op{dnn.Conv2D, dnn.PWConv, dnn.DWConv, dnn.FC, dnn.UpConv}
	op := ops[r.Intn(len(ops))]
	l := dnn.Layer{Op: op, Stride: 1}
	switch op {
	case dnn.FC:
		l.K, l.C, l.Y, l.X, l.R, l.S = 1+r.Intn(2048), 1+r.Intn(2048), 1, 1, 1, 1
	case dnn.PWConv:
		l.K, l.C, l.R, l.S = 1+r.Intn(256), 1+r.Intn(256), 1, 1
		l.Y, l.X = 1+r.Intn(128), 1+r.Intn(128)
	case dnn.DWConv:
		ch := 1 + r.Intn(256)
		l.K, l.C, l.R, l.S, l.Pad = ch, ch, 3, 3, 1
		l.Y, l.X = 3+r.Intn(128), 3+r.Intn(128)
	case dnn.UpConv:
		l.K, l.C, l.R, l.S, l.Stride = 1+r.Intn(128), 1+r.Intn(128), 2, 2, 2
		l.Y, l.X = 1+r.Intn(64), 1+r.Intn(64)
	default:
		l.K, l.C, l.R, l.S, l.Pad = 1+r.Intn(256), 1+r.Intn(256), 3, 3, 1
		l.Y, l.X = 3+r.Intn(128), 3+r.Intn(128)
	}
	return l
}

// TestCostInvariants property-checks the cost model: positive latency
// and energy, latency at least the compute lower bound, DRAM traffic
// at least compulsory, array traffic at least DRAM traffic, and energy
// components all non-negative.
func TestCostInvariants(t *testing.T) {
	hws := []HW{
		{PEs: 64, BWGBps: 8, L2Bytes: 512 << 10},
		{PEs: 256, BWGBps: 32, L2Bytes: 4 << 20},
		{PEs: 1024, BWGBps: 16, L2Bytes: 4 << 20},
		{PEs: 16384, BWGBps: 256, L2Bytes: 16 << 20},
	}
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := genCostLayer(r)
		if err := l.Validate(); err != nil {
			return false
		}
		hw := hws[r.Intn(len(hws))]
		for _, s := range dataflow.AllStyles() {
			c := Estimate(&l, s, hw, et())
			if c.Cycles < c.ComputeCycles {
				t.Logf("%v: latency below compute bound", s)
				return false
			}
			compulsory := l.InputElems() + l.WeightElems() + l.OutputElems()
			if c.DRAMBytes < compulsory {
				t.Logf("%v on %v: DRAM %d < compulsory %d", s, l.String(), c.DRAMBytes, compulsory)
				return false
			}
			if c.ArrayBytes < c.DRAMBytes && c.ArrayBytes < compulsory {
				t.Logf("%v: array traffic below both DRAM and compulsory", s)
				return false
			}
			e := c.Energy
			if e.MAC <= 0 || e.RF <= 0 || e.NoC <= 0 || e.Buffer <= 0 || e.DRAM <= 0 || e.Context < 0 {
				return false
			}
			if c.EnergyPJ() < e.MAC+e.DRAM {
				return false
			}
			if c.OccupancyBytes <= 0 || c.OccupancyBytes > hw.L2Bytes {
				return false
			}
			if c.Seconds(1.0) <= 0 || c.EDP(1.0) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestMoreBandwidthNeverHurts: latency is monotonically non-increasing
// in bandwidth for a fixed mapping.
func TestMoreBandwidthNeverHurts(t *testing.T) {
	l := dnn.Layer{Op: dnn.Conv2D, K: 128, C: 128, Y: 56, X: 56, R: 3, S: 3, Stride: 1, Pad: 1}
	prev := int64(1 << 62)
	for _, bw := range []float64{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		c := Estimate(&l, dataflow.ShiDiannao, HW{PEs: 256, BWGBps: bw, L2Bytes: 4 << 20}, et())
		if c.Cycles > prev {
			t.Errorf("bandwidth %g: latency %d rose above %d", bw, c.Cycles, prev)
		}
		prev = c.Cycles
	}
}
