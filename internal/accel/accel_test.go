package accel

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/energy"
	"repro/internal/maestro"
)

func TestTableIVClasses(t *testing.T) {
	want := []struct {
		name string
		pes  int
		bw   float64
		buf  int64
	}{
		{"edge", 1024, 16, 4 << 20},
		{"mobile", 4096, 64, 8 << 20},
		{"cloud", 16384, 256, 16 << 20},
	}
	cs := Classes()
	if len(cs) != len(want) {
		t.Fatalf("got %d classes", len(cs))
	}
	for i, w := range want {
		c := cs[i]
		if c.Name != w.name || c.PEs != w.pes || c.BWGBps != w.bw || c.GlobalBufBytes != w.buf {
			t.Errorf("class %d = %+v, want %+v (Table IV)", i, c, w)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("class %s: %v", c.Name, err)
		}
		parsed, err := ParseClass(w.name)
		if err != nil || parsed != c {
			t.Errorf("ParseClass(%q) = %+v, %v", w.name, parsed, err)
		}
	}
	if _, err := ParseClass("datacenter"); err == nil {
		t.Error("ParseClass should reject unknown names")
	}
}

// TestClassValidateRejects: a budget that is missing, too small or not
// finite is rejected; NaN slips through a plain "<= 0" test.
func TestClassValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    Class
	}{
		{"no PEs", Class{Name: "x", PEs: 0, BWGBps: 16, GlobalBufBytes: 4 << 20}},
		{"zero bandwidth", Class{Name: "x", PEs: 1024, BWGBps: 0, GlobalBufBytes: 4 << 20}},
		{"negative bandwidth", Class{Name: "x", PEs: 1024, BWGBps: -16, GlobalBufBytes: 4 << 20}},
		{"NaN bandwidth", Class{Name: "x", PEs: 1024, BWGBps: math.NaN(), GlobalBufBytes: 4 << 20}},
		{"+Inf bandwidth", Class{Name: "x", PEs: 1024, BWGBps: math.Inf(1), GlobalBufBytes: 4 << 20}},
		{"tiny buffer", Class{Name: "x", PEs: 1024, BWGBps: 16, GlobalBufBytes: 1023}},
	} {
		if err := tc.c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.c)
		}
	}
}

func TestNewHDADefinition1(t *testing.T) {
	// The Table V AR/VR-A cloud Maelstrom point: 9728/6656 PEs,
	// 224/32 GB/s.
	h, err := New("maelstrom", Cloud, []Partition{
		{Style: dataflow.NVDLA, PEs: 9728, BWGBps: 224},
		{Style: dataflow.ShiDiannao, PEs: 6656, BWGBps: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumSubs() != 2 || !h.Heterogeneous() {
		t.Error("expected a 2-way heterogeneous HDA")
	}
	if got := h.Subs[0].HW.PEs + h.Subs[1].HW.PEs; got != Cloud.PEs {
		t.Errorf("PE sum %d != %d", got, Cloud.PEs)
	}
	if got := h.Subs[0].HW.BWGBps + h.Subs[1].HW.BWGBps; got != Cloud.BWGBps {
		t.Errorf("BW sum %g != %g", got, Cloud.BWGBps)
	}
	// The global scratchpad is shared (time-multiplexed): every
	// sub-accelerator sees the full buffer, and the scheduler enforces
	// the joint occupancy constraint.
	if h.Subs[0].HW.L2Bytes != Cloud.GlobalBufBytes || h.Subs[1].HW.L2Bytes != Cloud.GlobalBufBytes {
		t.Error("sub-accelerators should share the full global buffer")
	}
	if !strings.Contains(h.String(), "NVDLA") || !strings.Contains(h.String(), "9728") {
		t.Errorf("String() = %q", h.String())
	}
}

func TestNewHDARejectsBadPartitions(t *testing.T) {
	cases := []struct {
		name  string
		parts []Partition
	}{
		{"empty", nil},
		{"pe-sum", []Partition{{dataflow.NVDLA, 512, 8}, {dataflow.ShiDiannao, 256, 8}}},
		{"bw-sum", []Partition{{dataflow.NVDLA, 512, 8}, {dataflow.ShiDiannao, 512, 4}}},
		{"zero-pe", []Partition{{dataflow.NVDLA, 0, 8}, {dataflow.ShiDiannao, 1024, 8}}},
		{"zero-bw", []Partition{{dataflow.NVDLA, 512, 0}, {dataflow.ShiDiannao, 512, 16}}},
		{"bad-style", []Partition{{dataflow.Style(9), 512, 8}, {dataflow.ShiDiannao, 512, 8}}},
		// Two int-max shares wrap the PE sum back onto the 1024 budget.
		{"pe-overflow", []Partition{{dataflow.NVDLA, math.MaxInt, 8}, {dataflow.NVDLA, math.MaxInt, 4}, {dataflow.NVDLA, 1026, 4}}},
		{"nan-bw", []Partition{{dataflow.NVDLA, 512, math.NaN()}, {dataflow.ShiDiannao, 512, 16}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.name, Edge, tc.parts); err == nil {
			t.Errorf("%s: New accepted invalid partitioning", tc.name)
		}
	}
}

func TestNewFDA(t *testing.T) {
	f, err := NewFDA(Edge, dataflow.Eyeriss)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumSubs() != 1 || f.Heterogeneous() {
		t.Error("FDA should be a single homogeneous substrate")
	}
	if f.Subs[0].HW.PEs != Edge.PEs || f.Subs[0].HW.BWGBps != Edge.BWGBps {
		t.Error("FDA should hold the full class budget")
	}
	if f.Subs[0].HW.L2Bytes != Edge.GlobalBufBytes {
		t.Errorf("FDA buffer share = %d, want full %d", f.Subs[0].HW.L2Bytes, Edge.GlobalBufBytes)
	}
}

func TestNewSMFDA(t *testing.T) {
	s, err := NewSMFDA(Mobile, dataflow.NVDLA, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumSubs() != 2 || s.Heterogeneous() {
		t.Error("SM-FDA should be homogeneous with n subs")
	}
	for _, sub := range s.Subs {
		if sub.HW.PEs != Mobile.PEs/2 || sub.HW.BWGBps != Mobile.BWGBps/2 {
			t.Errorf("SM-FDA sub share = %+v, want even split", sub.HW)
		}
	}
	if _, err := NewSMFDA(Mobile, dataflow.NVDLA, 0); err == nil {
		t.Error("n=0 should be rejected")
	}
	if _, err := NewSMFDA(Mobile, dataflow.NVDLA, 3); err == nil {
		t.Error("non-divisible split should be rejected")
	}
}

func TestRDAPicksBestStyleAndTaxes(t *testing.T) {
	r, err := NewRDA(Edge)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	cache := maestro.NewCache(energy.Default28nm())

	// FC strongly prefers NVDLA; a shallow large conv prefers
	// Shi-diannao. The RDA must pick accordingly.
	fc := dnn.Layer{Op: dnn.FC, K: 4096, C: 4096, Y: 1, X: 1, R: 1, S: 1, Stride: 1}
	_, style := r.LayerCost(cache, &fc)
	if style != dataflow.NVDLA {
		t.Errorf("RDA picked %v for FC, want NVDLA", style)
	}
	// A shallow-channel, large-spatial conv prefers an activation-
	// parallel style (Shi-diannao or Eyeriss), never NVDLA.
	shallow := dnn.Layer{Op: dnn.Conv2D, K: 64, C: 1, Y: 580, X: 580, R: 3, S: 3, Stride: 1}
	_, style = r.LayerCost(cache, &shallow)
	if style == dataflow.NVDLA {
		t.Errorf("RDA picked NVDLA for shallow conv, want a spatial style")
	}

	// Taxes: RDA energy must exceed the best raw style energy by at
	// least the overhead factor, and latency by the reconfig cycles.
	raw := cache.Estimate(&fc, dataflow.NVDLA, r.HW())
	taxed, _ := r.LayerCost(cache, &fc)
	if taxed.Cycles != raw.Cycles+r.ReconfigCycles {
		t.Errorf("reconfig latency not charged: %d vs %d", taxed.Cycles, raw.Cycles)
	}
	wantE := raw.EnergyPJ()*DefaultRDAEnergyOverhead + r.ReconfigPJ
	if got := taxed.EnergyPJ(); got < wantE*0.999 || got > wantE*1.001 {
		t.Errorf("taxed energy = %g, want %g", got, wantE)
	}
}

func TestRDAValidate(t *testing.T) {
	r, _ := NewRDA(Cloud)
	r.EnergyOverhead = 0.5
	if err := r.Validate(); err == nil {
		t.Error("overhead < 1 should be rejected")
	}
	r, _ = NewRDA(Cloud)
	r.ReconfigCycles = -1
	if err := r.Validate(); err == nil {
		t.Error("negative reconfig cycles should be rejected")
	}
}
