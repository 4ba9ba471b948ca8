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
//	shape ids:     dnn.ShapeKey       -> int32, one per distinct layer shape
//	model ids:     *dnn.Model         -> []int32, each layer's shape id
//	mapping rows:  (style, PEs)       -> []*dataflow.Mapping by shape id
//	cost rows:     (style, full HW)   -> []*Cost by shape id, plus the
//	                                     row's *dnn.Model -> []*Cost columns
//
// A cold CostColumn hashes once for its substrate row and once for the
// model, then indexes slices per layer; a warm one is the same two
// lookups and returns the interned column. The cost model itself is
// cheap arithmetic, so hashing a wide (shape, style, HW) key per layer
// would cost a DSE sweep more CPU than the estimates it memoizes.
//
// The mapping level exists because dataflow.Map depends only on the
// layer shape, the style and the PE count — not on the bandwidth or
// buffer shares. A DSE sweep evaluates the same (shape, style, PEs)
// triple under dozens of bandwidth/buffer partitions; those cost-row
// misses all reuse one memoized mapping instead of re-running the
// fold/multicast analysis. Each row has its own lock, so the DSE
// worker pool and a concurrently-running serving engine only meet on
// a row they both fill. (Schedulers additionally keep a private
// unsynchronized L0 in front of this cache.)

// substrate identifies a cost row: one style on one sub-accelerator.
type substrate struct {
	style dataflow.Style
	hw    HW
}

// array identifies a mapping row: the part of a substrate that
// dataflow.Map reads.
type array struct {
	style dataflow.Style
	pes   int
}

// costRow holds the interned costs of one substrate.
type costRow struct {
	maps *mapRow // the substrate's (style, PEs) mapping row; immutable

	mu    sync.RWMutex
	costs []*Cost                // indexed by shape id; guarded by mu
	cols  map[*dnn.Model][]*Cost // whole-model columns; guarded by mu
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
	rows struct {
		mu sync.RWMutex
		m  map[substrate]*costRow
	}
	arrays struct {
		mu sync.RWMutex
		m  map[array]*mapRow
	}

	costs, mappings atomic.Int64 // entry counts (Len, MappingLen)
}

// NewCache returns an empty cost cache bound to the given energy table.
func NewCache(et energy.Table) *Cache {
	c := &Cache{table: et}
	c.shapes.ids = make(map[dnn.ShapeKey]int32)
	c.models.ids = make(map[*dnn.Model][]int32)
	c.rows.m = make(map[substrate]*costRow)
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

// row returns the cost row of style on hw, creating it on first use.
func (c *Cache) row(style dataflow.Style, hw HW) *costRow {
	k := substrate{style: style, hw: hw}
	c.rows.mu.RLock()
	r := c.rows.m[k]
	c.rows.mu.RUnlock()
	if r != nil {
		return r
	}
	maps := c.mapRow(style, hw.PEs)
	c.rows.mu.Lock()
	if r = c.rows.m[k]; r == nil {
		r = &costRow{maps: maps}
		c.rows.m[k] = r
	}
	c.rows.mu.Unlock()
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
// mapping row mr — the pointer Cost.Mapping carries, so every cost of
// a (shape, style, PEs) triple shares one mapping struct. The pointee
// must not be modified.
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

// Estimate returns the (possibly memoized) cost of layer l under style
// on substrate hw.
func (c *Cache) Estimate(l *dnn.Layer, style dataflow.Style, hw HW) Cost {
	return *c.EstimateRef(l, style, hw)
}

// EstimateRef is Estimate returning the interned cache entry itself,
// sparing hot callers (the scheduler's inner loop) a ~250-byte struct
// copy per query. The pointee is shared and must not be modified.
func (c *Cache) EstimateRef(l *dnn.Layer, style dataflow.Style, hw HW) *Cost {
	id := c.shapeID(l)
	r := c.row(style, hw)
	r.mu.RLock()
	p := at(r.costs, id)
	r.mu.RUnlock()
	if p != nil {
		return p
	}
	cost := estimate(l, c.mappingRef(r.maps, id, l), hw, c.table)
	r.mu.Lock()
	if p = at(r.costs, id); p == nil {
		p = &cost
		r.costs = put(r.costs, id, p)
		c.costs.Add(1)
	}
	r.mu.Unlock()
	return p
}

// CostColumn returns model m's per-layer interned costs under style on
// substrate hw — the scheduling-free "busy-cycle row" view that the
// scheduler's L0 tables, the DSE's objective lower bounds, and fleet
// ETA estimates consume. The column (and each entry) is shared and
// must not be modified.
//
// A miss fills the column under its row's write lock, so goroutines
// racing on one substrate estimate each shape once and share one
// canonical column. Misses are filled through fixed-size slab blocks
// instead of one heap object per layer: a DSE sweep interns tens of
// thousands of Cost entries, and slab-backed entries cut both the
// allocation count and the garbage collector's scan set. A block never
// reallocates once a pointer into it is published (appends move to a
// fresh block when one fills), so interned pointers stay valid.
func (c *Cache) CostColumn(m *dnn.Model, style dataflow.Style, hw HW) []*Cost {
	r := c.row(style, hw)
	r.mu.RLock()
	col, ok := r.cols[m]
	r.mu.RUnlock()
	if ok {
		return col
	}
	ids := c.modelIDs(m)
	r.mu.Lock()
	defer r.mu.Unlock()
	if col, ok := r.cols[m]; ok {
		return col // another goroutine won the race; keep one canonical column
	}
	const slabBlock = 16
	col = make([]*Cost, len(ids))
	var slab []Cost
	for i, id := range ids {
		p := at(r.costs, id)
		if p == nil {
			if len(slab) == cap(slab) {
				slab = make([]Cost, 0, min(slabBlock, len(ids)-i))
			}
			l := &m.Layers[i]
			slab = append(slab, estimate(l, c.mappingRef(r.maps, id, l), hw, c.table))
			p = &slab[len(slab)-1]
			r.costs = put(r.costs, id, p)
			c.costs.Add(1)
		}
		col[i] = p
	}
	if r.cols == nil {
		r.cols = make(map[*dnn.Model][]*Cost)
	}
	r.cols[m] = col
	return col
}

// Mapping returns the (possibly memoized) dataflow mapping of layer l
// under style on a pes-sized array — the expensive half of a cost
// query, shared across substrates that differ only in bandwidth or
// buffer shares.
func (c *Cache) Mapping(l *dnn.Layer, style dataflow.Style, pes int) dataflow.Mapping {
	return *c.mappingRef(c.mapRow(style, pes), c.shapeID(l), l)
}

// Len returns the number of memoized cost entries (diagnostics).
func (c *Cache) Len() int { return int(c.costs.Load()) }

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
