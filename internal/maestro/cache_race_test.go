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

// TestCacheInterning: concurrent Cycles calls for one (model, style,
// HW) must converge on one canonical pair of columns (the racing-writer
// dedup in Cycles and footColumn), and the model's repeated shape must
// share one footprint.
func TestCacheInterning(t *testing.T) {
	cache := NewCache(energy.Default28nm())
	ls := raceLayers()
	m := &dnn.Model{Name: "m", Layers: []dnn.Layer{ls[0], ls[1], ls[2], ls[1]}}
	hw := HW{PEs: 256, BWGBps: 8, L2Bytes: 2 << 20}

	const goroutines = 8
	cycs := make([][]int64, goroutines)
	fpss := make([][]*Footprint, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cycs[g], fpss[g] = cache.Cycles(m, dataflow.NVDLA, hw)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if &cycs[g][0] != &cycs[0][0] || &fpss[g][0] != &fpss[0][0] {
			t.Fatal("Cycles returned distinct columns for one key")
		}
	}
	if fpss[0][1] != fpss[0][3] {
		t.Error("a repeated layer shape holds two footprints")
	}
	if n := cache.Len(); n != 3 {
		t.Fatalf("cache holds %d footprints for a 3-shape model on one substrate", n)
	}
	if n := cache.MappingLen(); n != 3 {
		t.Fatalf("cache holds %d mappings for a 3-shape model on one array", n)
	}
}

// TestCacheInterleavedPaths interleaves CostColumn, EstimateRef,
// Estimate and Cycles from several goroutines over models that share
// layer shapes and over substrates of which two differ only in
// bandwidth and two only in buffer size, then checks that every path
// agrees on each (shape, style, HW) Cost by value and converged on one
// interned entry per memo key: one footprint per bandwidth-free
// (shape, style, PEs, L2) key and one mapping per (shape, style, PEs)
// key. Run with -race -count=10 (make race does).
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
						if *cache.EstimateRef(&m.Layers[li], st, hw) != *col[li] {
							t.Errorf("%s layer %d: EstimateRef and CostColumn differ", m.Name, li)
						}
					}
				case 1:
					for li := range m.Layers {
						c := cache.Estimate(&m.Layers[li], st, hw)
						if c != *cache.CostColumn(m, st, hw)[li] {
							t.Errorf("%s layer %d: Estimate and CostColumn differ", m.Name, li)
						}
					}
				case 2:
					_, fps := cache.Cycles(m, st, hw)
					for li := range m.Layers {
						if fps[li].Mapping != cache.EstimateRef(&m.Layers[li], st, hw).Mapping {
							t.Errorf("%s layer %d: the footprint's mapping differs from the cost's", m.Name, li)
						}
						if *fps[li].Mapping != dataflow.Map(st, &m.Layers[li], hw.PEs) {
							t.Errorf("%s layer %d: interned mapping differs from dataflow.Map", m.Name, li)
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
	foots := make(map[footEntry]bool)
	maps := make(map[mappingEntry]bool)
	for _, m := range models {
		for li := range m.Layers {
			for _, st := range styles {
				for _, hw := range hws {
					k := m.Layers[li].Key()
					foots[footEntry{k, st, HW{PEs: hw.PEs, L2Bytes: hw.L2Bytes}}] = true
					maps[mappingEntry{k, st, hw.PEs}] = true
					ref := *cache.EstimateRef(&m.Layers[li], st, hw)
					if ref != *cache.CostColumn(m, st, hw)[li] || ref != cache.Estimate(&m.Layers[li], st, hw) {
						t.Errorf("%s layer %d %s on %+v: EstimateRef, CostColumn and Estimate differ", m.Name, li, st, hw)
					}
				}
			}
		}
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
		for _, st := range styles {
			_, lo := cache.Cycles(m, st, hws[0])
			_, hi := cache.Cycles(m, st, hws[1])
			_, buf := cache.Cycles(m, st, hws[3])
			for li := range m.Layers {
				if lo[li].Mapping != hi[li].Mapping {
					t.Errorf("%s layer %d: footprints that differ only in bandwidth hold distinct mappings", m.Name, li)
				}
				if buf[li].Mapping != lo[li].Mapping {
					t.Errorf("%s layer %d: footprints that differ only in buffer hold distinct mappings", m.Name, li)
				}
				if buf[li] == lo[li] {
					t.Errorf("%s layer %d: substrates that differ in buffer share one footprint", m.Name, li)
				}
			}
		}
	}
}
