// Package maestro reimplements the MAESTRO-style analytical cost model
// the paper uses (§IV-B): given a layer, a dataflow style, and the
// hardware parameters of one (sub-)accelerator, it estimates latency
// and energy from data-reuse-derived access counts, exactly at the
// altitude of the original model — no cycle-accurate simulation, pure
// arithmetic over the mapping's fold/multicast structure.
//
// The pipeline is:
//
//	layer + style + PEs  ──dataflow.Map──▶  Mapping (folds, multicast)
//	Mapping + buffers + energy.Table ──▶ Footprint (bytes, pJ, occupancy)
//	Footprint + bandwidth + clock ──Cycles──▶ latency; ──Cost──▶ Cost
//
// Latency follows the paper's execution model (§IV-A): compute and
// data movement overlap via double buffering, so steady-state latency
// is max(computeCycles, memoryCycles), plus a non-overlapped prologue
// for the first tile fill, plus an optional per-layer context-change
// penalty (§IV-A gives Herald an option to charge data-layout and
// context-switch costs).
//
// # Caching
//
// A cost splits into two parts with different keys. A Footprint is the
// bandwidth-free part: the mapping, compute cycles, traffic bytes,
// energy and buffer occupancy, which depend on the layer shape, the
// (style, PEs) mapping, the buffer sizes and the context energy only.
// The cycles are what the bandwidth share, the clock and the context
// cycles add: Footprint.Cycles divides its compulsory, spill and fill
// bytes by the bandwidth, with exactly the float expressions of the
// whole-Cost model, so a Cost rebuilt from a footprint is bit-identical
// to Estimate's.
//
// A Cache memoizes both by dense ids. Each distinct layer shape is
// interned once to an int32 shape id, and each model once to the
// shape ids of its layers. Each (style, PEs) pair is a mapping row of
// dataflow.Mappings indexed by shape id — the expensive fold/multicast
// analysis. Each bandwidth-free substrate is a footprint row of
// Footprints indexed by shape id, plus its whole-model footprint
// columns. Each full (style, HW) substrate holds pointer-free
// whole-model cycles columns, each kept beside the footprint column it
// was derived from; Cycles returns both. A DSE sweep that
// schedules every PE split under every bandwidth split therefore
// interns one mapping and one footprint per (shape, style, PEs) of a
// class, and one []int64 per bandwidth-only design point and model.
// A cold column does one hashed row lookup and a slice index per
// layer. Every row has its own lock, so a DSE worker pool and the
// online serving engine only contend on a row they both fill.
// Single-threaded hot loops (the scheduler) keep a private
// unsynchronized L0 table in front of the shared cache; see
// internal/sched. Those mapping, footprint and cycles memos are all
// the cache keeps: EstimateRef and CostColumn build whole Costs afresh
// from the interned footprints on every call, and no hot path calls
// them.
package maestro

import (
	"fmt"
	"math"

	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/energy"
)

// HW describes the hardware resources of one (sub-)accelerator
// substrate: a PE array, its share of global NoC/memory bandwidth,
// and its share of the global scratchpad.
type HW struct {
	PEs      int     // number of processing elements
	BWGBps   float64 // global NoC + DRAM bandwidth share, GB/s
	L2Bytes  int64   // global buffer share, bytes
	L1Bytes  int64   // sub-accelerator local buffer; 0 = L2/4 clamped to [1 KiB, 2 MiB]
	ClockGHz float64 // PE clock; 0 defaults to 1 GHz

	// ContextCycles and ContextPJ are charged once per layer executed
	// on this substrate, modeling layer-switch reconfiguration or
	// data-layout adjustment (zero for FDA/HDA sub-accelerators with a
	// shared inner-loop order; nonzero for RDAs that reconfigure per
	// layer).
	ContextCycles int64
	ContextPJ     float64
}

// Clock returns the effective clock in GHz.
func (h HW) Clock() float64 {
	if h.ClockGHz <= 0 {
		return 1.0
	}
	return h.ClockGHz
}

// bytesPerCycle converts the bandwidth share into bytes per PE clock
// cycle (1 GB/s at 1 GHz = 1 byte/cycle).
func (h HW) bytesPerCycle() float64 {
	return h.BWGBps / h.Clock()
}

// L1 returns the effective local-buffer size: each sub-accelerator
// carries its own buffer (Fig. 3c) that serves intra-layer tensor
// re-streaming without touching the partitioned global NoC.
func (h HW) L1() int64 {
	if h.L1Bytes > 0 {
		return h.L1Bytes
	}
	l1 := h.L2Bytes / 4
	if l1 > 2<<20 {
		l1 = 2 << 20
	}
	if l1 < 1024 {
		l1 = 1024
	}
	return l1
}

// Validate reports whether the hardware description is usable.
func (h HW) Validate() error {
	if h.PEs < 1 {
		return fmt.Errorf("maestro: PEs must be >= 1 (got %d)", h.PEs)
	}
	if !(h.BWGBps > 0) || math.IsInf(h.BWGBps, 1) {
		return fmt.Errorf("maestro: bandwidth must be positive and finite (got %g)", h.BWGBps)
	}
	if math.IsNaN(h.ClockGHz) || math.IsInf(h.ClockGHz, 0) {
		return fmt.Errorf("maestro: clock must be finite (got %g)", h.ClockGHz)
	}
	if h.L2Bytes < 1024 {
		return fmt.Errorf("maestro: L2 share must be >= 1 KiB (got %d)", h.L2Bytes)
	}
	if h.ContextCycles < 0 || !(h.ContextPJ >= 0) || math.IsInf(h.ContextPJ, 1) {
		return fmt.Errorf("maestro: context penalties must be finite and >= 0")
	}
	return nil
}

// EnergyBreakdown itemizes layer energy by hierarchy level, in pJ.
type EnergyBreakdown struct {
	MAC, RF, NoC, Buffer, DRAM, Context float64
}

// Total returns the summed energy in pJ.
func (b EnergyBreakdown) Total() float64 {
	return b.MAC + b.RF + b.NoC + b.Buffer + b.DRAM + b.Context
}

// Cost is the estimated execution cost of one layer on one
// (sub-)accelerator.
type Cost struct {
	// Mapping is the dataflow mapping the cost was derived from —
	// shared with the mapping cache (a Cost used to embed the whole
	// ~150-byte struct by value, which doubled the interned cost
	// cache's footprint); treat the pointee as immutable.
	Mapping *dataflow.Mapping

	ComputeCycles int64 // PE-array busy cycles
	MemoryCycles  int64 // NoC/DRAM streaming cycles (overlapped)
	FillCycles    int64 // non-overlapped first-tile prologue
	Cycles        int64 // total latency: max(compute, memory) + fill + context

	DRAMBytes   int64 // DRAM <-> global buffer traffic
	GlobalBytes int64 // global buffer <-> sub-accelerator traffic (partitioned NoC)
	ArrayBytes  int64 // local buffer <-> PE array traffic (local interconnect)

	Energy EnergyBreakdown

	// OccupancyBytes is the global-buffer footprint the layer holds
	// while executing (its working set, capped at the substrate's L2
	// share); the scheduler's memory-size constraint sums these across
	// concurrently-running layers.
	OccupancyBytes int64
}

// Seconds converts the latency to seconds at the given clock.
func (c Cost) Seconds(clockGHz float64) float64 {
	if clockGHz <= 0 {
		clockGHz = 1.0
	}
	return float64(c.Cycles) / (clockGHz * 1e9)
}

// EnergyPJ returns total energy in picojoules.
func (c Cost) EnergyPJ() float64 { return c.Energy.Total() }

// EDP returns the energy-delay product in joule-seconds at the given
// clock (the paper's primary efficiency metric).
func (c Cost) EDP(clockGHz float64) float64 {
	return c.EnergyPJ() * 1e-12 * c.Seconds(clockGHz)
}

// Footprint is the bandwidth-free part of a layer's cost on one
// (sub-)accelerator: everything the cost model derives from the layer
// shape, the (style, PEs) mapping, the buffer sizes and the context
// energy, plus the byte counts latency divides by the bandwidth. Two
// substrates that differ only in bandwidth, clock or context cycles
// share one Footprint; Cycles and Cost finish the estimate for a
// given HW.
type Footprint struct {
	// Mapping is the dataflow mapping the footprint was derived from —
	// shared with the mapping cache; treat the pointee as immutable.
	Mapping *dataflow.Mapping

	ComputeCycles int64 // PE-array busy cycles

	DRAMBytes   int64 // DRAM <-> global buffer traffic
	GlobalBytes int64 // global buffer <-> sub-accelerator traffic (partitioned NoC)
	ArrayBytes  int64 // local buffer <-> PE array traffic (local interconnect)

	// CompulsoryBytes is the traffic that overlaps with compute under
	// double buffering (every tensor once); GlobalBytes beyond it is
	// spill that serializes. FillBytes is the first tile's
	// non-overlapped prologue.
	CompulsoryBytes int64
	FillBytes       int64

	Energy EnergyBreakdown

	// OccupancyBytes is the global-buffer footprint the layer holds
	// while executing (its working set, capped at the substrate's L2
	// share); the scheduler's memory-size constraint sums these across
	// concurrently-running layers.
	OccupancyBytes int64
}

// EnergyPJ returns total energy in picojoules.
func (f *Footprint) EnergyPJ() float64 { return f.Energy.Total() }

// Cycles returns the layer's latency on hw, which must share the
// footprint's style, PEs, buffers and context energy: max(compute,
// compulsory streaming) + spill streaming + fill + context cycles.
func (f *Footprint) Cycles(hw HW) int64 {
	bpc := hw.bytesPerCycle()
	spill := max(f.GlobalBytes-f.CompulsoryBytes, 0)
	steady := max(f.ComputeCycles, int64(float64(f.CompulsoryBytes)/bpc))
	return steady + int64(float64(spill)/bpc) + int64(float64(f.FillBytes)/bpc) + hw.ContextCycles
}

// Cost returns the full cost of the footprint's layer on hw (see
// Cycles for which hw fits).
func (f *Footprint) Cost(hw HW) Cost {
	bpc := hw.bytesPerCycle()
	return Cost{
		Mapping:        f.Mapping,
		ComputeCycles:  f.ComputeCycles,
		MemoryCycles:   int64(float64(max(f.GlobalBytes, f.DRAMBytes)) / bpc),
		FillCycles:     int64(float64(f.FillBytes) / bpc),
		Cycles:         f.Cycles(hw),
		DRAMBytes:      f.DRAMBytes,
		GlobalBytes:    f.GlobalBytes,
		ArrayBytes:     f.ArrayBytes,
		Energy:         f.Energy,
		OccupancyBytes: f.OccupancyBytes,
	}
}

// Estimate computes the cost of layer l under the given dataflow style
// on substrate hw with energy table et. The layer must be valid.
func Estimate(l *dnn.Layer, style dataflow.Style, hw HW, et energy.Table) Cost {
	m := dataflow.Map(style, l, hw.PEs)
	fp := footprint(l, &m, hw, et)
	return fp.Cost(hw)
}

// footprint derives layer l's bandwidth-free footprint under mapping m.
// Of hw it reads only the buffer sizes and the context energy.
func footprint(l *dnn.Layer, m *dataflow.Mapping, hw HW, et energy.Table) Footprint {
	reps := int64(1)
	if l.Repeat > 1 {
		reps = int64(l.Repeat)
	}

	// Tensor footprints in bytes (8-bit words: 1 element = 1 byte).
	inBytes1 := l.InputElems()
	wBytes := l.WeightElems()
	outBytes1 := l.OutputElems()
	inBytes := inBytes1 * reps
	outBytes := outBytes1 * reps

	// --- Global buffer <-> PE array traffic (execution-model steps 2
	// and 4: distribute weight tiles, stream activation tiles). The
	// mapping's stream-fold counts say how many times each tensor
	// element re-enters the array; spatial multicast is already folded
	// into them (a fold that feeds SpatK lanes streams each element
	// once for all of them).
	inArray := inBytes * m.InputStreamFolds
	wArray := wBytes * m.WeightStreamFolds * reps
	outArray := outBytes // outputs leave the array exactly once
	array := inArray + wArray + outArray

	// --- Traffic placement across the hierarchy. A tensor whose
	// re-streamed working set fits the sub-accelerator's local buffer
	// is fetched from the global side once and re-streamed locally;
	// otherwise every re-stream crosses the global NoC. Likewise a
	// tensor that fits the global-buffer share crosses DRAM once;
	// otherwise its global-side streams spill to DRAM. This coupling is
	// what makes weight-stationary dataflows (input re-streamed per
	// output-channel fold) pay dearly on activation-dominated networks
	// whose feature maps exceed the buffers (Fig. 2b), while
	// output-stationary dataflows pay on weight-dominated ones.
	l1res := hw.L1()
	l2res := hw.L2Bytes
	budget := hw.L2Bytes / 2 // streamed-tile budget under double buffering
	if budget < 1 {
		budget = 1
	}
	globalIn := inBytes
	if inBytes1 > l1res {
		globalIn = inArray
	}
	globalW := wBytes
	if wBytes > l1res {
		globalW = wArray
	}
	global := globalIn + globalW + outBytes

	dramIn := inBytes
	if inBytes1 > l2res {
		dramIn = globalIn
	}
	dramW := wBytes
	if wBytes > l2res {
		dramW = globalW
	}
	dram := dramIn + dramW + outBytes

	// --- Latency inputs (see Cycles). The partitioned global NoC
	// carries the global-side streams and the DRAM fills; local
	// re-streaming is served by the sub-accelerator's own interconnect
	// at array rate. Compulsory traffic overlaps with compute under
	// double buffering, but spill re-streams (working sets that
	// overflow the buffers) cannot be prefetched into buffer space that
	// does not exist — they serialize with compute. This is the latency
	// tax weight-stationary dataflows pay on activation-dominated
	// layers. Only the division by the bandwidth share is left to
	// Cycles.
	compulsory := inBytes + wBytes + outBytes
	fill := min(inBytes1+wBytes, budget)

	// --- Energy.
	var e EnergyBreakdown
	macs := l.MACs()
	e.MAC = float64(macs) * et.MAC
	// Each MAC reads its input and weight operands from the PE-local
	// RF (2 events); partial sums cost a read+write per *accumulation
	// step*, and spatial reduction (NVDLA's adder tree across c0,
	// Eyeriss's row set across r0) combines PsumReduce MAC results per
	// step. Output-stationary Shi-diannao accumulates every MAC
	// temporally (PsumReduce = 1).
	psumEvents := 2.0 // read + write per accumulation step
	if m.PsumAccumulator {
		psumEvents = 1.0 // in-place accumulator update
	}
	psumSteps := float64(macs) / float64(m.PsumReduce)
	e.RF = (2*float64(macs) + psumEvents*psumSteps) * et.RF
	// Every word entering or leaving the array traverses the local
	// interconnect; global-side streams and DRAM fills each touch the
	// global buffer.
	e.NoC = float64(array) * et.NoC
	e.Buffer = float64(global+dram) * et.Buffer
	e.DRAM = float64(dram) * et.DRAM
	e.Context = hw.ContextPJ

	// --- Scheduler-visible occupancy: the slice of the shared global
	// buffer a running layer holds. Tensors stream through in tiles
	// (execution-model steps 2-6), so a layer pins at most a local-
	// buffer-scale window of double-buffered tiles — not its full
	// working set — in the global buffer at any instant.
	occ := inBytes1 + outBytes1 + min(wBytes, budget)
	if l1 := hw.L1(); occ > l1 {
		occ = l1
	}

	return Footprint{
		Mapping:         m,
		ComputeCycles:   m.ComputeCycles,
		DRAMBytes:       dram,
		GlobalBytes:     global,
		ArrayBytes:      array,
		CompulsoryBytes: compulsory,
		FillBytes:       fill,
		Energy:          e,
		OccupancyBytes:  occ,
	}
}
