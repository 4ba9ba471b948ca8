package maestro

import (
	"sync"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/energy"
)

// raceLayers returns a mixed bag of layer shapes for cache hammering.
func raceLayers() []dnn.Layer {
	return []dnn.Layer{
		{Op: dnn.Conv2D, K: 64, C: 3, Y: 224, X: 224, R: 7, S: 7, Stride: 2, Pad: 3},
		{Op: dnn.Conv2D, K: 128, C: 64, Y: 56, X: 56, R: 3, S: 3, Stride: 1, Pad: 1},
		{Op: dnn.PWConv, K: 256, C: 128, Y: 28, X: 28, R: 1, S: 1, Stride: 1},
		{Op: dnn.DWConv, K: 128, C: 128, Y: 28, X: 28, R: 3, S: 3, Stride: 1, Pad: 1},
		{Op: dnn.FC, K: 1000, C: 2048, Y: 1, X: 1, R: 1, S: 1, Stride: 1},
	}
}

// TestCacheConcurrentHammer drives the cost cache from many
// goroutines at once — the DSE-worker-pool-plus-serving-engine access
// pattern — and checks every concurrent answer against an uncached
// reference estimate. Run with -race (CI does) to catch row or
// mapping-level synchronization bugs.
func TestCacheConcurrentHammer(t *testing.T) {
	et := energy.Default28nm()
	cache := NewCache(et)
	layers := raceLayers()
	styles := []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao, dataflow.Eyeriss}
	hws := []HW{
		{PEs: 128, BWGBps: 4, L2Bytes: 1 << 20},
		{PEs: 896, BWGBps: 12, L2Bytes: 3 << 20},
		{PEs: 1024, BWGBps: 16, L2Bytes: 4 << 20},
	}

	const goroutines = 16
	const rounds = 40
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Each goroutine walks the key space in a different
				// order so cold misses race on every row.
				for i := 0; i < len(layers)*len(styles)*len(hws); i++ {
					j := (i*7 + g*13 + r) % (len(layers) * len(styles) * len(hws))
					l := &layers[j%len(layers)]
					st := styles[(j/len(layers))%len(styles)]
					hw := hws[j/(len(layers)*len(styles))]
					got := cache.Estimate(l, st, hw)
					ref := cache.EstimateRef(l, st, hw)
					if got != *ref {
						errs <- "Estimate and EstimateRef disagree"
						return
					}
					want := Estimate(l, st, hw, et)
					// The cache interns the mapping; the direct path
					// builds a fresh one. Value-compare the mapping,
					// bit-compare the rest.
					if *got.Mapping != *want.Mapping {
						errs <- "cached mapping differs from direct estimate"
						return
					}
					got.Mapping, want.Mapping = nil, nil
					if got != want {
						errs <- "cached cost differs from direct estimate"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	maxKeys := len(layers) * len(styles) * len(hws)
	if n := cache.Len(); n == 0 || n > maxKeys {
		t.Errorf("cache holds %d entries, want 1..%d (racing writers must dedupe)", n, maxKeys)
	}
	if n := cache.MappingLen(); n == 0 || n > len(layers)*len(styles)*len(hws) {
		t.Errorf("mapping cache holds %d entries", n)
	}
}

// TestCacheInterning: concurrent queries for one key must converge on
// a single interned *Cost (the racing-writer dedup in EstimateRef).
func TestCacheInterning(t *testing.T) {
	cache := NewCache(energy.Default28nm())
	l := raceLayers()[0]
	hw := HW{PEs: 256, BWGBps: 8, L2Bytes: 2 << 20}

	const goroutines = 8
	ptrs := make([]*Cost, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ptrs[g] = cache.EstimateRef(&l, dataflow.NVDLA, hw)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if ptrs[g] != ptrs[0] {
			t.Fatal("EstimateRef returned distinct pointers for one key")
		}
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("cache holds %d footprints for a single hammered key", n)
	}
	if n := cache.CostLen(); n != 1 {
		t.Fatalf("cache interned %d Costs for a single hammered key", n)
	}
}

// TestCacheInterleavedPaths interleaves CostColumn, EstimateRef,
// Cycles and Mapping from several goroutines over models
// that share layer shapes and over substrates of which two differ only
// in bandwidth and two only in buffer size, then checks that every
// path converged on one interned entry per key: one footprint per
// bandwidth-free (shape, style, PEs, L2) key, one mapping per (shape,
// style, PEs) key, and one Cost per full (shape, style, HW) key.
// Run with -race -count=10 (make race does).
func TestCacheInterleavedPaths(t *testing.T) {
	cache := NewCache(energy.Default28nm())
	ls := raceLayers()
	models := []*dnn.Model{
		{Name: "a", Layers: []dnn.Layer{ls[0], ls[1], ls[2], ls[1]}},
		{Name: "b", Layers: []dnn.Layer{ls[2], ls[3], ls[4]}},
		{Name: "c", Layers: []dnn.Layer{ls[4], ls[1], ls[3], ls[0], ls[3]}},
	}
	styles := []dataflow.Style{dataflow.NVDLA, dataflow.ShiDiannao}
	hws := []HW{
		{PEs: 256, BWGBps: 8, L2Bytes: 2 << 20},
		{PEs: 256, BWGBps: 16, L2Bytes: 2 << 20}, // hws[0] but for bandwidth
		{PEs: 512, BWGBps: 8, L2Bytes: 2 << 20},
		{PEs: 256, BWGBps: 8, L2Bytes: 4 << 20}, // hws[0] but for buffer
	}
	n := len(models) * len(styles) * len(hws)

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// i*5 mod n is a permutation (n = 24), so every goroutine
			// visits every (model, style, HW) once, starting apart.
			for i := 0; i < n; i++ {
				j := (i*5 + g*7) % n
				m := models[j%len(models)]
				st := styles[(j/len(models))%len(styles)]
				hw := hws[j/(len(models)*len(styles))]
				switch (g + i) % 4 {
				case 0:
					col := cache.CostColumn(m, st, hw)
					for li := range m.Layers {
						if cache.EstimateRef(&m.Layers[li], st, hw) != col[li] {
							t.Errorf("%s layer %d: EstimateRef and CostColumn differ", m.Name, li)
						}
					}
				case 1:
					for li := range m.Layers {
						p := cache.EstimateRef(&m.Layers[li], st, hw)
						if p != cache.CostColumn(m, st, hw)[li] {
							t.Errorf("%s layer %d: EstimateRef and CostColumn differ", m.Name, li)
						}
					}
				case 2:
					for li := range m.Layers {
						mp := cache.Mapping(&m.Layers[li], st, hw.PEs)
						if mp != *cache.EstimateRef(&m.Layers[li], st, hw).Mapping {
							t.Errorf("%s layer %d: Mapping differs from the cost's mapping", m.Name, li)
						}
					}
				case 3:
					cyc, fps := cache.Cycles(m, st, hw)
					for li := range m.Layers {
						c := cache.EstimateRef(&m.Layers[li], st, hw)
						if cyc[li] != c.Cycles || fps[li].Mapping != c.Mapping {
							t.Errorf("%s layer %d: Cycles differs from the cost", m.Name, li)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	type footEntry struct {
		shape dnn.ShapeKey
		style dataflow.Style
		hw    HW // bandwidth-free part
	}
	type mappingEntry struct {
		shape dnn.ShapeKey
		style dataflow.Style
		pes   int
	}
	type costEntry struct {
		shape dnn.ShapeKey
		style dataflow.Style
		hw    HW
	}
	foots := make(map[footEntry]bool)
	maps := make(map[mappingEntry]bool)
	costs := make(map[costEntry]*Cost)
	distinct := make(map[*Cost]bool)
	for _, m := range models {
		for li := range m.Layers {
			for _, st := range styles {
				for _, hw := range hws {
					k := m.Layers[li].Key()
					foots[footEntry{k, st, HW{PEs: hw.PEs, L2Bytes: hw.L2Bytes}}] = true
					maps[mappingEntry{k, st, hw.PEs}] = true
					p := cache.EstimateRef(&m.Layers[li], st, hw)
					if q, ok := costs[costEntry{k, st, hw}]; ok && q != p {
						t.Errorf("%s layer %d %s on %+v: one key interned two Costs", m.Name, li, st, hw)
					}
					if p != cache.CostColumn(m, st, hw)[li] {
						t.Errorf("%s layer %d %s on %+v: EstimateRef and CostColumn differ", m.Name, li, st, hw)
					}
					costs[costEntry{k, st, hw}] = p
					distinct[p] = true
				}
			}
		}
	}
	// 5 shapes x 2 styles x 4 HWs: one interned Cost per full key.
	if len(costs) != 40 || len(distinct) != 40 {
		t.Errorf("%d full (shape, style, HW) keys hold %d distinct Costs, want 40 and 40", len(costs), len(distinct))
	}
	if got := cache.CostLen(); got != 40 {
		t.Errorf("CostLen() = %d, want 40 interned Costs", got)
	}
	// 5 shapes x 2 styles x {256/2M, 512/2M, 256/4M}, and x {256, 512}.
	if got := cache.Len(); got != len(foots) || got != 30 {
		t.Errorf("Len() = %d, want %d distinct (shape, style, PEs, L2) keys", got, len(foots))
	}
	if got := cache.MappingLen(); got != len(maps) || got != 20 {
		t.Errorf("MappingLen() = %d, want %d distinct (shape, style, PEs) keys", got, len(maps))
	}

	for _, m := range models {
		_, fp0 := cache.Cycles(m, dataflow.NVDLA, hws[0])
		if _, fp1 := cache.Cycles(m, dataflow.NVDLA, hws[1]); &fp0[0] != &fp1[0] {
			t.Errorf("%s: substrates that differ in bandwidth hold distinct footprint columns", m.Name)
		}
		for li := range m.Layers {
			l := &m.Layers[li]
			for _, st := range styles {
				lo, hi := cache.EstimateRef(l, st, hws[0]), cache.EstimateRef(l, st, hws[1])
				if lo == hi {
					t.Fatalf("%s layer %d: substrates that differ in bandwidth share one cost", m.Name, li)
				}
				if lo.Mapping != hi.Mapping {
					t.Errorf("%s layer %d: costs that differ only in bandwidth hold distinct mappings", m.Name, li)
				}
				buf := cache.EstimateRef(l, st, hws[3])
				if buf.Mapping != lo.Mapping {
					t.Errorf("%s layer %d: costs that differ only in buffer hold distinct mappings", m.Name, li)
				}
				_, buf3 := cache.Cycles(m, st, hws[3])
				if _, fp := cache.Cycles(m, st, hws[0]); buf3[li] == fp[li] {
					t.Errorf("%s layer %d: substrates that differ in buffer share one footprint", m.Name, li)
				}
			}
		}
	}
}
