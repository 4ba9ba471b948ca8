package dse

import (
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dnn"
)

// segTestHDA is the two-dataflow edge substrate the fusion search cuts
// against: MobileNets alternate depthwise/pointwise preference across
// it, so plans should split.
func segTestHDA(t testing.TB) *accel.HDA {
	t.Helper()
	h, err := accel.New("seg-test", accel.Edge, []accel.Partition{
		{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8},
		{Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestPlanSegmentsTilesAndPins(t *testing.T) {
	cache := testCache()
	h := segTestHDA(t)
	m := dnn.MustByName("mobilenetv2")

	p, err := PlanSegments(cache, h, m, ObjectiveEDP, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Model != m.Name {
		t.Errorf("plan model = %q, want %q", p.Model, m.Name)
	}
	if p.NumSegments() < 2 {
		t.Fatalf("mobilenetv2 should split on a two-dataflow HDA, got %d segments", p.NumSegments())
	}
	if p.NumSegments() > 4 {
		t.Fatalf("plan exceeds maxSegments: %d > 4", p.NumSegments())
	}

	// Segments tile the layers exactly and carry consistent aggregates.
	var chain int64
	perSub := make(map[int]int64)
	next := 0
	for i, sg := range p.Segments {
		if sg.From != next || sg.To <= sg.From {
			t.Fatalf("segment %d covers [%d,%d), want to start at %d", i, sg.From, sg.To, next)
		}
		if sg.SubAcc < 0 || sg.SubAcc >= len(h.Subs) {
			t.Fatalf("segment %d pinned to sub %d of %d", i, sg.SubAcc, len(h.Subs))
		}
		if i > 0 && sg.SubAcc == p.Segments[i-1].SubAcc {
			t.Errorf("segments %d and %d both pin to sub %d: cut buys no dataflow change", i-1, i, sg.SubAcc)
		}
		if sg.Cycles <= 0 || sg.EnergyPJ <= 0 {
			t.Errorf("segment %d has non-positive cost: %d cycles, %f pJ", i, sg.Cycles, sg.EnergyPJ)
		}
		chain += sg.Cycles
		perSub[sg.SubAcc] += sg.Cycles
		next = sg.To
	}
	if next != m.NumLayers() {
		t.Fatalf("plan covers %d of %d layers", next, m.NumLayers())
	}
	if chain != p.ChainCycles {
		t.Errorf("ChainCycles = %d, want segment sum %d", p.ChainCycles, chain)
	}
	var period int64
	for _, c := range perSub {
		if c > period {
			period = c
		}
	}
	if period != p.PeriodCycles {
		t.Errorf("PeriodCycles = %d, want max per-sub sum %d", p.PeriodCycles, period)
	}
	if p.PeriodCycles > p.ChainCycles {
		t.Errorf("period %d exceeds chain latency %d", p.PeriodCycles, p.ChainCycles)
	}

	// Slices resolves the same tiling through the interned cuts.
	subs, err := p.Slices(m)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sm := range subs {
		total += sm.NumLayers()
	}
	if len(subs) != p.NumSegments() || total != m.NumLayers() {
		t.Errorf("Slices: %d models over %d layers, want %d over %d",
			len(subs), total, p.NumSegments(), m.NumLayers())
	}
}

func TestPlanSegmentsDeterministic(t *testing.T) {
	cache := testCache()
	h := segTestHDA(t)
	m := dnn.MustByName("mobilenetv1")
	a, err := PlanSegments(cache, h, m, ObjectiveEDP, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanSegments(cache, h, m, ObjectiveEDP, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeat search diverged:\n  %+v\n  %+v", a, b)
	}
}

func TestPlanSegmentsUnfused(t *testing.T) {
	cache := testCache()
	m := dnn.MustByName("mobilenetv2")

	// maxSegments <= 1 forces the whole-model plan even when the HDA
	// could split it.
	p, err := PlanSegments(cache, segTestHDA(t), m, ObjectiveEDP, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSegments() != 1 || p.Segments[0].From != 0 || p.Segments[0].To != m.NumLayers() {
		t.Errorf("maxSegments=1 plan = %+v, want one whole-model segment", p.Segments)
	}
	if p.PeriodCycles != p.ChainCycles {
		t.Errorf("one-segment plan: period %d != chain %d", p.PeriodCycles, p.ChainCycles)
	}

	// A single-sub HDA has no dataflow boundary to cut at.
	fda, err := accel.NewFDA(accel.Edge, dataflow.NVDLA)
	if err != nil {
		t.Fatal(err)
	}
	p, err = PlanSegments(cache, fda, m, ObjectiveEDP, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSegments() != 1 {
		t.Errorf("single-sub HDA plan has %d segments, want 1", p.NumSegments())
	}
}

func TestPlanSegmentsErrors(t *testing.T) {
	cache := testCache()
	m := dnn.MustByName("mobilenetv1")
	if _, err := PlanSegments(cache, nil, m, ObjectiveEDP, 4); err == nil {
		t.Error("nil HDA should error")
	}
	if _, err := PlanSegments(cache, segTestHDA(t), nil, ObjectiveEDP, 4); err == nil {
		t.Error("nil model should error")
	}
}

func TestSlicesValidation(t *testing.T) {
	m := dnn.MustByName("mobilenetv1")
	L := m.NumLayers()

	if _, err := (SegmentPlan{}).Slices(nil); err == nil {
		t.Error("nil model should error")
	}
	bad := []SegmentPlan{
		{Segments: []Segment{{From: 1, To: L}}},                       // misses layer 0
		{Segments: []Segment{{From: 0, To: 3}, {From: 4, To: L}}},     // gap at layer 3
		{Segments: []Segment{{From: 0, To: 3}, {From: 2, To: L}}},     // overlap
		{Segments: []Segment{{From: 0, To: L - 1}}},                   // short coverage
		{Segments: []Segment{{From: 0, To: 3}, {From: 3, To: L + 1}}}, // past the end
	}
	for i, p := range bad {
		if _, err := p.Slices(m); err == nil {
			t.Errorf("bad plan %d (%+v) should fail validation", i, p.Segments)
		}
	}

	good := SegmentPlan{Segments: []Segment{{From: 0, To: 3}, {From: 3, To: L}}}
	subs, err := good.Slices(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 || subs[0].NumLayers() != 3 || subs[1].NumLayers() != L-3 {
		t.Errorf("good plan sliced to %d models", len(subs))
	}
}
