//go:build !race

package sched

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/workload"
)

// TestSchedulerAllocationBudget pins the steady-state assignment loop
// at zero heap allocations per layer assignment: with a warm cost
// cache, a full scheduling pass may allocate only per-run setup (run
// state, event heap seed, the result Schedule), never per layer. The
// budget is enforced two ways: an absolute per-pass cap far below the
// workload's layer count, and the requirement that scheduling ~9x
// more layers does not allocate more.
//
// (Excluded under -race: the race runtime adds bookkeeping
// allocations that AllocsPerRun would count.)
func TestSchedulerAllocationBudget(t *testing.T) {
	h := maelstromEdge(t)
	cache := newCache()
	opts := DefaultOptions()
	opts.PostProcess = false // measure the Fig. 8 loop itself

	small := workload.MustNew("alloc-small", []workload.Entry{
		{Model: "brq-handpose", Batches: 1},
	})
	big := workload.ARVRB() // 438 layers

	s := MustNew(cache, opts)
	// Warm every cache level (shared, scheduler cost rows).
	for _, w := range []*workload.Workload{small, big} {
		if _, err := s.Schedule(h, w); err != nil {
			t.Fatal(err)
		}
	}

	measure := func(w *workload.Workload) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := s.Schedule(h, w); err != nil {
				t.Fatal(err)
			}
		})
	}
	smallAllocs := measure(small)
	bigAllocs := measure(big)

	layers := int64(big.TotalLayers())
	// Per-run setup costs a few dozen allocations; anything linear in
	// the layer count means the inner loop regressed.
	const budget = 64
	if bigAllocs > budget {
		t.Errorf("full pass over %d layers allocates %.0f times (budget %d): inner loop is no longer allocation-free",
			layers, bigAllocs, budget)
	}
	// The big workload schedules ~9x the layers of the small one; an
	// allocation-free inner loop keeps the per-pass counts within
	// setup noise of each other.
	if bigAllocs > smallAllocs+16 {
		t.Errorf("allocations scale with workload size: %.0f (%d layers) vs %.0f (%d layers)",
			bigAllocs, layers, smallAllocs, int64(small.TotalLayers()))
	}
	if perLayer := bigAllocs / float64(layers); perLayer >= 0.5 {
		t.Errorf("%.3f allocs per layer assignment, want ~0", perLayer)
	}
}

// TestExtendBytesIndependentOfBacklog pins what one Incremental.Extend
// allocates to its batch, not to the committed backlog: the median
// bytes a single-request Extend allocates on a 2000-instance backlog
// stay within a small constant of the same Extend on a 50-instance
// backlog, although every backlog layer is still live in the memory
// ledger. (A rollback point that copies the ledger grows with it.) The
// median drops the odd sample where an append-only array — a
// per-instance array or a ledger slot list — doubles; the assignment
// log adds a fixed 12 KB page instead, every 256 commits.
func TestExtendBytesIndependentOfBacklog(t *testing.T) {
	h := incTestHDA(t)
	s := incTestScheduler(t)
	m := mustModel(t, "brq-handpose")
	perExtend := func(backlog int) uint64 {
		inc := backlogIncremental(t, s, h, m, backlog)
		var ms runtime.MemStats
		samples := make([]uint64, 32)
		for i := range samples {
			adm := []Admission{{Instance: workload.Instance{Model: m, Batch: backlog + i + 1}}}
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if _, err := inc.Extend(adm); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			samples[i] = ms.TotalAlloc - before
		}
		slices.Sort(samples)
		return samples[len(samples)/2]
	}
	small, big := perExtend(50), perExtend(2000)
	const slack = 512
	if big > small+slack {
		t.Errorf("Extend allocates %d B on a 2000-instance backlog vs %d B on a 50-instance one (slack %d B): rollback cost tracks the backlog",
			big, small, slack)
	}
}
