package maestro

import (
	"math"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/energy"
)

// Tests of the footprint/cycles layout against the whole-Cost model it
// replaced.

// legacyEstimate is a verbatim copy of the cost model from before
// footprints split off the bandwidth: one function from (layer,
// mapping, HW) to a whole Cost. The layout tests hold the new paths to
// it bit for bit.
func legacyEstimate(l *dnn.Layer, m *dataflow.Mapping, hw HW, et energy.Table) Cost {
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

	// --- Latency. The partitioned global NoC carries the global-side
	// streams and the DRAM fills; local re-streaming is served by the
	// sub-accelerator's own interconnect at array rate. Compulsory
	// traffic overlaps with compute under double buffering, but spill
	// re-streams (working sets that overflow the buffers) cannot be
	// prefetched into buffer space that does not exist — they serialize
	// with compute. This is the latency tax weight-stationary dataflows
	// pay on activation-dominated layers.
	bpc := hw.bytesPerCycle()
	compulsory := inBytes + wBytes + outBytes
	spill := global - compulsory
	if spill < 0 {
		spill = 0
	}
	memCycles := int64(float64(max(global, dram)) / bpc)
	spillCycles := int64(float64(spill) / bpc)
	fill := int64(float64(min(inBytes1+wBytes, budget)) / bpc)
	steady := max(m.ComputeCycles, int64(float64(compulsory)/bpc))
	total := steady + spillCycles + fill + hw.ContextCycles

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

	return Cost{
		Mapping:        m,
		ComputeCycles:  m.ComputeCycles,
		MemoryCycles:   memCycles,
		FillCycles:     fill,
		Cycles:         total,
		DRAMBytes:      dram,
		GlobalBytes:    global,
		ArrayBytes:     array,
		Energy:         e,
		OccupancyBytes: occ,
	}
}

// layoutClasses are accel's Table IV classes (accel imports maestro,
// so the test restates them): PEs, bandwidth in GB/s, global buffer.
var layoutClasses = []struct {
	name string
	pes  int
	bw   float64
	buf  int64
}{
	{"edge", 1024, 16, 4 << 20},
	{"mobile", 4096, 64, 8 << 20},
	{"cloud", 16384, 256, 16 << 20},
}

var layoutStyles = []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao, dataflow.Eyeriss}

// gridHW returns the sub-accelerator HW of pe sixteenths of class c's
// PEs and bw eighths of its bandwidth, with the whole global buffer (a
// DSE partition's sub at the paper's 16/8 granularity).
func gridHW(c int, pe, bw int) HW {
	cl := layoutClasses[c]
	return HW{PEs: cl.pes * pe / 16, BWGBps: cl.bw * float64(bw) / 8, L2Bytes: cl.buf}
}

// sameCost reports whether two costs agree bit for bit, comparing the
// mappings by value.
func sameCost(a, b Cost) bool {
	if *a.Mapping != *b.Mapping {
		return false
	}
	a.Mapping, b.Mapping = nil, nil
	return a == b
}

// TestFootprintLayoutMatchesLegacy: for every zoo layer, style and
// sub-accelerator of the 16/8 grid of all three classes, the cycles
// column, the footprint-derived Cost and Cache.Estimate all equal the
// legacy whole-Cost model bit for bit, at the default clock and at
// 0.7 GHz.
func TestFootprintLayoutMatchesLegacy(t *testing.T) {
	et := energy.Default28nm()
	cache := NewCache(et)
	checked := 0
	for _, name := range dnn.Names() {
		m, err := dnn.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for c := range layoutClasses {
			for pe := 1; pe <= 16; pe++ {
				for bw := 1; bw <= 8; bw++ {
					hw := gridHW(c, pe, bw)
					// Every other point runs at a clock that makes the
					// bytes-per-cycle rate inexact in binary.
					if (pe+bw)%2 == 1 {
						hw.ClockGHz = 0.7
					}
					for _, st := range layoutStyles {
						cyc, fps := cache.Cycles(m, st, hw)
						for li := range m.Layers {
							l := &m.Layers[li]
							want := legacyEstimate(l, fps[li].Mapping, hw, et)
							if got := fps[li].Cost(hw); !sameCost(got, want) {
								t.Fatalf("%s layer %d %s on %+v: footprint cost\n%+v\nwant\n%+v", name, li, st, hw, got, want)
							}
							if cyc[li] != want.Cycles {
								t.Fatalf("%s layer %d %s on %+v: cycles %d, want %d", name, li, st, hw, cyc[li], want.Cycles)
							}
							if bw == 8 && pe%5 == 1 {
								// Spot-check the whole-Cost entry points
								// on one bandwidth share per PE count.
								if got := cache.Estimate(l, st, hw); !sameCost(got, want) {
									t.Fatalf("%s layer %d %s on %+v: Cache.Estimate differs", name, li, st, hw)
								}
								if got := Estimate(l, st, hw, et); !sameCost(got, want) {
									t.Fatalf("%s layer %d %s on %+v: Estimate differs", name, li, st, hw)
								}
							}
							checked++
						}
					}
				}
			}
		}
	}
	t.Logf("%d (layer, style, HW) costs identical; %d footprints, %d mappings", checked, cache.Len(), cache.MappingLen())
}

// inDomain reports whether a layer's counts stay within the cost
// model's int64 arithmetic at every substrate the fuzzer decodes.
func inDomain(l *dnn.Layer) bool {
	const elems, macs = 1 << 32, 1 << 40
	return l.MACs() <= macs && l.TotalInputElems() <= elems &&
		l.WeightElems() <= elems && l.TotalOutputElems() <= elems
}

// special maps a selector to a value the validators must reject, or
// keeps v.
func special(sel uint8, v float64) float64 {
	switch sel % 8 {
	case 1:
		return math.NaN()
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return -v
	}
	return v
}

// FuzzFootprint decodes a layer shape and an HW and, for every input
// the validators accept, checks that the uncached Estimate,
// Cache.Estimate, EstimateRef, the cycles column and the footprint
// agree with the legacy model bit for bit (mappings by value), that a
// layer never finishes before its compute, and that an HW differing
// only in bandwidth shares the footprint pointer.
func FuzzFootprint(f *testing.F) {
	i := 0
	for _, name := range dnn.Names() {
		m, _ := dnn.ByName(name)
		for _, li := range []int{0, len(m.Layers) / 2, len(m.Layers) - 1} {
			l := m.Layers[li]
			if l.K > 1<<15 || l.C > 1<<15 || l.Y > 1<<11 || l.X > 1<<11 || l.R > 16 || l.S > 16 {
				continue
			}
			c := layoutClasses[i%3]
			hw := gridHW(i%3, i%15+1, i%7+1)
			f.Add(uint8(l.Op), uint16(l.K-1), uint16(l.C-1), uint16(l.Y-1), uint16(l.X-1),
				uint8(l.R-1), uint8(l.S-1), uint8(l.Stride-1), uint8(l.Pad), uint8(l.Repeat),
				uint8(i%3), uint16(hw.PEs-1), uint32(hw.BWGBps*256), uint8(0),
				uint32(c.buf), uint32(0), uint8(16), uint8(0), int16(0), uint32(0), uint8(0))
			i++
		}
	}
	// A NaN or infinite bandwidth, clock or context energy, and an RDA-
	// style context penalty.
	f.Add(uint8(0), uint16(63), uint16(63), uint16(55), uint16(55), uint8(2), uint8(2), uint8(0), uint8(1), uint8(0),
		uint8(0), uint16(511), uint32(8*256), uint8(1), uint32(4<<20), uint32(0), uint8(16), uint8(0), int16(0), uint32(0), uint8(0))
	f.Add(uint8(0), uint16(63), uint16(63), uint16(55), uint16(55), uint8(2), uint8(2), uint8(0), uint8(1), uint8(0),
		uint8(1), uint16(511), uint32(8*256), uint8(2), uint32(4<<20), uint32(0), uint8(16), uint8(1), int16(0), uint32(0), uint8(0))
	f.Add(uint8(0), uint16(63), uint16(63), uint16(55), uint16(55), uint8(2), uint8(2), uint8(0), uint8(1), uint8(0),
		uint8(2), uint16(511), uint32(8*256), uint8(0), uint32(4<<20), uint32(0), uint8(16), uint8(0), int16(0), uint32(7), uint8(1))
	f.Add(uint8(1), uint16(127), uint16(63), uint16(27), uint16(27), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0),
		uint8(2), uint16(1023), uint32(3), uint8(0), uint32(1<<20), uint32(64<<10), uint8(24), uint8(0), int16(100), uint32(50000), uint8(0))

	et := energy.Default28nm()
	f.Fuzz(func(t *testing.T, op uint8, k, c, y, x uint16, r, s, stride, pad, repeat uint8,
		style uint8, pes uint16, bw uint32, bwSel uint8, l2, l1 uint32, clock, clockSel uint8,
		ctxCycles int16, ctxPJ uint32, ctxSel uint8) {
		l := dnn.Layer{
			Name: "fuzz", Op: dnn.Op(op % 5),
			K: int(k) + 1, C: int(c) + 1, Y: int(y) + 1, X: int(x) + 1,
			R: int(r%16) + 1, S: int(s%16) + 1, Stride: int(stride%4) + 1, Pad: int(pad % 4), Repeat: int(repeat % 9),
		}
		switch l.Op {
		case dnn.DWConv:
			l.C = l.K
		case dnn.PWConv:
			l.R, l.S = 1, 1
		case dnn.FC:
			l.Y, l.X, l.R, l.S = 1, 1, 1, 1
		}
		if l.Validate() != nil || !inDomain(&l) {
			return
		}
		st := layoutStyles[int(style)%len(layoutStyles)]
		hw := HW{
			PEs:           int(pes%16384) + 1,
			BWGBps:        special(bwSel, float64(bw)/256),
			L2Bytes:       int64(l2),
			L1Bytes:       int64(l1),
			ClockGHz:      special(clockSel, float64(clock)/16),
			ContextCycles: int64(ctxCycles),
			ContextPJ:     special(ctxSel, float64(ctxPJ)/16),
		}
		if hw.Validate() != nil {
			return
		}

		want := Estimate(&l, st, hw, et)
		if legacy := legacyEstimate(&l, want.Mapping, hw, et); !sameCost(want, legacy) {
			t.Fatalf("Estimate differs from the legacy model on %v %+v:\n%+v\nwant\n%+v", st, hw, want, legacy)
		}
		if want.Cycles < want.ComputeCycles {
			t.Fatalf("cycles %d < compute cycles %d on %v %+v", want.Cycles, want.ComputeCycles, st, hw)
		}
		cache := NewCache(et)
		if got := cache.Estimate(&l, st, hw); !sameCost(got, want) {
			t.Fatalf("Cache.Estimate differs:\n%+v\nwant\n%+v", got, want)
		}
		if got := cache.EstimateRef(&l, st, hw); !sameCost(*got, want) {
			t.Fatalf("EstimateRef differs:\n%+v\nwant\n%+v", *got, want)
		}
		m := &dnn.Model{Name: "fuzz", Layers: []dnn.Layer{l}}
		cyc, fps := cache.Cycles(m, st, hw)
		fp := fps[0]
		if cyc[0] != want.Cycles || fp.Cycles(hw) != want.Cycles {
			t.Fatalf("cycles column %d, footprint %d, want %d", cyc[0], fp.Cycles(hw), want.Cycles)
		}
		if *fp.Mapping != *want.Mapping {
			t.Fatal("footprint mapping differs from the estimate's")
		}
		other := hw
		other.BWGBps = hw.BWGBps*3 + 1
		if _, ofps := cache.Cycles(m, st, other); ofps[0] != fp {
			t.Fatalf("HWs that differ only in bandwidth hold distinct footprints (%g vs %g GB/s)", hw.BWGBps, other.BWGBps)
		}
		if got := cache.Estimate(&l, st, other); !sameCost(got, Estimate(&l, st, other, et)) {
			t.Fatal("Cache.Estimate on the shared footprint differs from Estimate")
		}
	})
}
