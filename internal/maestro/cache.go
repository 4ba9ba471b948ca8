package maestro

import (
	"sync"
	"sync/atomic"

	"repro/internal/dataflow"
	"repro/internal/dnn"
	"repro/internal/energy"
)

// The cache addresses entries by dense ids (see the package comment):
//
//	shape ids:       dnn.ShapeKey         -> int32, one per distinct layer shape
//	model ids:       *dnn.Model           -> []int32, each layer's shape id
//	mapping rows:    (style, PEs)         -> []*dataflow.Mapping by shape id
//	footprint rows:  (style, PEs, L2, L1, -> []*Footprint by shape id, plus the
//	                  context energy)        row's *dnn.Model -> []*Footprint columns
//	substrate rows:  (style, full HW)     -> *dnn.Model -> []int64 cycles column
//	                                         beside its []*Footprint column
//
// A cold Cycles call hashes once for its row and once for the model,
// then indexes slices per layer; a warm one is the same two lookups
// and returns both interned columns. The cost model itself
// is cheap arithmetic, so hashing a wide (shape, style, HW) key per
// layer would cost a DSE sweep more CPU than the estimates it
// memoizes.
//
// Each level is keyed by exactly what it reads. dataflow.Map depends
// only on the layer shape, the style and the PE count; a footprint
// adds the buffer sizes and the context energy; only the cycles read
// the bandwidth share, the clock and the context cycles. A DSE sweep
// evaluates the same (shape, style, PEs) triple under dozens of
// bandwidth partitions of one class, and every one of them reuses one
// mapping and one footprint: a bandwidth-only design point costs one
// []int64 per model. Each row has its own lock, so the DSE worker pool
// and a concurrently-running serving engine only meet on a row they
// both fill. (Schedulers additionally keep a private unsynchronized L0
// in front of this cache.)

// substrate identifies a row: one style on one sub-accelerator, or on
// its bandwidth-free part (footprintHW) for a footprint row.
type substrate struct {
	style dataflow.Style
	hw    HW
}

// footprintHW returns the fields of hw a footprint reads: the PEs, the
// buffer sizes and the context energy.
func footprintHW(hw HW) HW {
	return HW{PEs: hw.PEs, L2Bytes: hw.L2Bytes, L1Bytes: hw.L1Bytes, ContextPJ: hw.ContextPJ}
}

// array identifies a mapping row: the part of a substrate that
// dataflow.Map reads.
type array struct {
	style dataflow.Style
	pes   int
}

// subRow holds the cycles columns of one substrate.
type subRow struct {
	foot *footRow // the substrate's footprint row; immutable

	mu     sync.RWMutex
	cycles map[*dnn.Model]cyclesCol // guarded by mu
}

// cyclesCol is one model's interned cycles column on a substrate, kept
// beside the footprint column it was derived from so one lookup
// returns both.
type cyclesCol struct {
	cycles []int64
	fps    []*Footprint
}

// footRow holds the interned footprints of one bandwidth-free
// substrate.
type footRow struct {
	hw   HW      // footprintHW of the substrates sharing the row; immutable
	maps *mapRow // the row's (style, PEs) mapping row; immutable

	mu   sync.RWMutex
	fps  []*Footprint                // indexed by shape id; guarded by mu
	cols map[*dnn.Model][]*Footprint // whole-model columns; guarded by mu
}

// mapRow holds the interned mappings of one (style, PEs) array.
type mapRow struct {
	array // immutable

	mu   sync.RWMutex
	maps []*dataflow.Mapping // indexed by shape id; guarded by mu
}

// Cache memoizes Estimate results for a fixed energy table. It is safe
// for concurrent use.
type Cache struct {
	table energy.Table

	// Each level is a typed RWMutex map, not a sync.Map: sync.Map's
	// per-Load interface boxing and type hashing profiled as a
	// double-digit share of a cold DSE sweep.
	shapes struct {
		mu  sync.RWMutex
		ids map[dnn.ShapeKey]int32
	}
	models struct {
		mu  sync.RWMutex
		ids map[*dnn.Model][]int32
	}
	subs struct {
		mu sync.RWMutex
		m  map[substrate]*subRow
	}
	foots struct {
		mu sync.RWMutex
		m  map[substrate]*footRow
	}
	arrays struct {
		mu sync.RWMutex
		m  map[array]*mapRow
	}

	footprints, mappings atomic.Int64 // entry counts (Len, MappingLen)
}

// NewCache returns an empty cost cache bound to the given energy table.
func NewCache(et energy.Table) *Cache {
	c := &Cache{table: et}
	c.shapes.ids = make(map[dnn.ShapeKey]int32)
	c.models.ids = make(map[*dnn.Model][]int32)
	c.subs.m = make(map[substrate]*subRow)
	c.foots.m = make(map[substrate]*footRow)
	c.arrays.m = make(map[array]*mapRow)
	return c
}

// Table returns the energy table this cache is bound to.
func (c *Cache) Table() energy.Table { return c.table }

// at returns row[id], or nil past the row's end.
func at[T any](row []*T, id int32) *T {
	if int(id) < len(row) {
		return row[id]
	}
	return nil
}

// put stores p at row[id], growing the row as needed.
func put[T any](row []*T, id int32, p *T) []*T {
	if n := int(id) + 1; n > len(row) {
		row = append(row, make([]*T, n-len(row))...)
	}
	row[id] = p
	return row
}

// shapeID returns the dense id of l's shape, interning it on first
// sight.
func (c *Cache) shapeID(l *dnn.Layer) int32 {
	k := l.Key()
	c.shapes.mu.RLock()
	id, ok := c.shapes.ids[k]
	c.shapes.mu.RUnlock()
	if ok {
		return id
	}
	c.shapes.mu.Lock()
	id = c.internShapeLocked(k)
	c.shapes.mu.Unlock()
	return id
}

// internShapeLocked returns k's shape id, assigning the next free one
// on first sight.
func (c *Cache) internShapeLocked(k dnn.ShapeKey) int32 {
	id, ok := c.shapes.ids[k]
	if !ok {
		id = int32(len(c.shapes.ids))
		c.shapes.ids[k] = id
	}
	return id
}

// modelIDs returns the shape id of each of m's layers. Zoo models are
// interned (dnn.ByName caches), so the pointer is a stable identity.
func (c *Cache) modelIDs(m *dnn.Model) []int32 {
	c.models.mu.RLock()
	ids, ok := c.models.ids[m]
	c.models.mu.RUnlock()
	if ok {
		return ids
	}
	ids = make([]int32, len(m.Layers))
	c.shapes.mu.Lock()
	for i := range m.Layers {
		ids[i] = c.internShapeLocked(m.Layers[i].Key())
	}
	c.shapes.mu.Unlock()
	c.models.mu.Lock()
	if q, ok := c.models.ids[m]; ok {
		ids = q // another goroutine won the race; keep one canonical slice
	} else {
		c.models.ids[m] = ids
	}
	c.models.mu.Unlock()
	return ids
}

// row returns the substrate row of style on hw, creating it on first
// use.
func (c *Cache) row(style dataflow.Style, hw HW) *subRow {
	k := substrate{style: style, hw: hw}
	c.subs.mu.RLock()
	r := c.subs.m[k]
	c.subs.mu.RUnlock()
	if r != nil {
		return r
	}
	foot := c.footRow(style, hw)
	c.subs.mu.Lock()
	if r = c.subs.m[k]; r == nil {
		r = &subRow{foot: foot}
		c.subs.m[k] = r
	}
	c.subs.mu.Unlock()
	return r
}

// footRow returns the footprint row of style on hw's bandwidth-free
// part, creating it on first use.
func (c *Cache) footRow(style dataflow.Style, hw HW) *footRow {
	k := substrate{style: style, hw: footprintHW(hw)}
	c.foots.mu.RLock()
	r := c.foots.m[k]
	c.foots.mu.RUnlock()
	if r != nil {
		return r
	}
	maps := c.mapRow(style, hw.PEs)
	c.foots.mu.Lock()
	if r = c.foots.m[k]; r == nil {
		r = &footRow{hw: k.hw, maps: maps}
		c.foots.m[k] = r
	}
	c.foots.mu.Unlock()
	return r
}

// mapRow returns the mapping row of style on a pes-sized array,
// creating it on first use.
func (c *Cache) mapRow(style dataflow.Style, pes int) *mapRow {
	k := array{style: style, pes: pes}
	c.arrays.mu.RLock()
	r := c.arrays.m[k]
	c.arrays.mu.RUnlock()
	if r != nil {
		return r
	}
	c.arrays.mu.Lock()
	if r = c.arrays.m[k]; r == nil {
		r = &mapRow{array: k}
		c.arrays.m[k] = r
	}
	c.arrays.mu.Unlock()
	return r
}

// mappingRef returns the interned mapping of layer l (shape id id) on
// mapping row mr — the pointer Footprint.Mapping carries, so every
// footprint of a (shape, style, PEs) triple shares one mapping struct.
// The pointee must not be modified.
func (c *Cache) mappingRef(mr *mapRow, id int32, l *dnn.Layer) *dataflow.Mapping {
	mr.mu.RLock()
	p := at(mr.maps, id)
	mr.mu.RUnlock()
	if p != nil {
		return p
	}
	m := dataflow.Map(mr.style, l, mr.pes)
	mr.mu.Lock()
	if p = at(mr.maps, id); p == nil {
		p = &m
		mr.maps = put(mr.maps, id, p)
		c.mappings.Add(1)
	}
	mr.mu.Unlock()
	return p
}

// footprintRef returns the interned footprint of layer l (shape id id)
// on footprint row fr. The pointee must not be modified.
func (c *Cache) footprintRef(fr *footRow, id int32, l *dnn.Layer) *Footprint {
	fr.mu.RLock()
	p := at(fr.fps, id)
	fr.mu.RUnlock()
	if p != nil {
		return p
	}
	fp := footprint(l, c.mappingRef(fr.maps, id, l), fr.hw, c.table)
	fr.mu.Lock()
	if p = at(fr.fps, id); p == nil {
		p = &fp
		fr.fps = put(fr.fps, id, p)
		c.footprints.Add(1)
	}
	fr.mu.Unlock()
	return p
}

// Estimate returns the cost of layer l under style on substrate hw,
// derived from the layer's memoized footprint.
func (c *Cache) Estimate(l *dnn.Layer, style dataflow.Style, hw HW) Cost {
	return c.footprintRef(c.footRow(style, hw), c.shapeID(l), l).Cost(hw)
}

// EstimateRef is Estimate returning a pointer to a freshly built Cost;
// nothing interns whole Costs. Hot callers read Cycles instead.
func (c *Cache) EstimateRef(l *dnn.Layer, style dataflow.Style, hw HW) *Cost {
	cost := c.Estimate(l, style, hw)
	return &cost
}

// slabBlock is the number of entries per slab a column fill allocates:
// a DSE sweep interns tens of thousands of footprints, and slab-backed
// entries cut both the allocation count and the garbage collector's
// scan set. A block never reallocates once a pointer into it is
// published (appends move to a fresh block when one fills), so
// interned pointers stay valid.
const slabBlock = 16

// footColumn returns model m's per-layer interned footprints on
// footprint row fr — shared by every substrate that differs only in
// bandwidth, clock or context cycles. The column (and each entry) is
// shared and must not be modified.
//
// A miss fills the column under its row's write lock, so goroutines
// racing on one row derive each shape once and share one canonical
// column.
func (c *Cache) footColumn(fr *footRow, m *dnn.Model) []*Footprint {
	fr.mu.RLock()
	col, ok := fr.cols[m]
	fr.mu.RUnlock()
	if ok {
		return col
	}
	ids := c.modelIDs(m)
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if col, ok := fr.cols[m]; ok {
		return col // another goroutine won the race; keep one canonical column
	}
	col = make([]*Footprint, len(ids))
	var slab []Footprint
	for i, id := range ids {
		p := at(fr.fps, id)
		if p == nil {
			if len(slab) == cap(slab) {
				slab = make([]Footprint, 0, min(slabBlock, len(ids)-i))
			}
			l := &m.Layers[i]
			slab = append(slab, footprint(l, c.mappingRef(fr.maps, id, l), fr.hw, c.table))
			p = &slab[len(slab)-1]
			fr.fps = put(fr.fps, id, p)
			c.footprints.Add(1)
		}
		col[i] = p
	}
	if fr.cols == nil {
		fr.cols = make(map[*dnn.Model][]*Footprint)
	}
	fr.cols[m] = col
	return col
}

// Cycles returns model m's per-layer latency under style on substrate
// hw, interned per substrate and model, together with the per-layer
// footprints it was derived from: cycles[i] == fps[i].Cycles(hw). The
// footprints are interned per bandwidth-free substrate, so every
// substrate that differs from hw only in bandwidth, clock or context
// cycles returns the same footprint pointers. These are the
// scheduling-free "busy-cycle rows" the scheduler's L0 tables, the
// DSE's objective lower bounds, segment planning and serving estimates
// read. Both columns are shared and must not be modified.
func (c *Cache) Cycles(m *dnn.Model, style dataflow.Style, hw HW) (cycles []int64, fps []*Footprint) {
	r := c.row(style, hw)
	r.mu.RLock()
	col, ok := r.cycles[m]
	r.mu.RUnlock()
	if ok {
		return col.cycles, col.fps
	}
	fps = c.footColumn(r.foot, m)
	r.mu.Lock()
	defer r.mu.Unlock()
	if col, ok := r.cycles[m]; ok {
		return col.cycles, col.fps // another goroutine won the race; keep one canonical column
	}
	cycles = make([]int64, len(fps))
	for i, fp := range fps {
		cycles[i] = fp.Cycles(hw)
	}
	if r.cycles == nil {
		r.cycles = make(map[*dnn.Model]cyclesCol)
	}
	r.cycles[m] = cyclesCol{cycles: cycles, fps: fps}
	return cycles, fps
}

// CostColumn returns model m's per-layer costs under style on substrate
// hw, in layer order, built from Cycles' interned footprint column. The
// Costs are freshly built on every call.
func (c *Cache) CostColumn(m *dnn.Model, style dataflow.Style, hw HW) []*Cost {
	_, fps := c.Cycles(m, style, hw)
	costs := make([]Cost, len(fps))
	col := make([]*Cost, len(fps))
	for i, fp := range fps {
		costs[i] = fp.Cost(hw)
		col[i] = &costs[i]
	}
	return col
}

// Len returns the number of memoized footprints: distinct (shape,
// style, PEs, L2, L1, context energy) keys (diagnostics).
func (c *Cache) Len() int { return int(c.footprints.Load()) }

// MappingLen returns the number of memoized mappings (diagnostics).
func (c *Cache) MappingLen() int { return int(c.mappings.Load()) }

// ModelCost aggregates the sequential execution of a whole model on a
// single monolithic substrate (the FDA execution model: one layer
// after another).
type ModelCost struct {
	Cycles   int64
	EnergyPJ float64
	PerLayer []Cost
}

// Seconds converts the total latency to seconds.
func (mc ModelCost) Seconds(clockGHz float64) float64 {
	if clockGHz <= 0 {
		clockGHz = 1.0
	}
	return float64(mc.Cycles) / (clockGHz * 1e9)
}

// EDP returns the model-level energy-delay product in joule-seconds.
func (mc ModelCost) EDP(clockGHz float64) float64 {
	return mc.EnergyPJ * 1e-12 * mc.Seconds(clockGHz)
}

// EstimateModel runs every layer of m sequentially under one style on
// one substrate, as a fixed dataflow accelerator would (Fig. 2's
// experiment shape).
func EstimateModel(m *dnn.Model, style dataflow.Style, hw HW, et energy.Table) ModelCost {
	mc := ModelCost{PerLayer: make([]Cost, len(m.Layers))}
	for i := range m.Layers {
		cost := Estimate(&m.Layers[i], style, hw, et)
		mc.PerLayer[i] = cost
		mc.Cycles += cost.Cycles
		mc.EnergyPJ += cost.EnergyPJ()
	}
	return mc
}
