package dse

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/accel"
	"repro/internal/workload"
)

// TestSweeperReuse: repeated Sweep calls on one handle must return
// identical results (warm HDA/cost/bound memos must not change
// anything), including across different workloads.
func TestSweeperReuse(t *testing.T) {
	cache := testCache()
	opts := DefaultOptions()
	opts.Prune = true
	opts.BestOnly = true
	sw, err := NewSweeper(cache, edgeSpace(), opts)
	if err != nil {
		t.Fatal(err)
	}

	wA := smallWorkload()
	wB := workload.MustNew("shifted", []workload.Entry{
		{Model: "mobilenetv1", Batches: 1},
		{Model: "unet", Batches: 1},
	})

	coldA, err := sw.Sweep(wA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Sweep(wB); err != nil { // interleave another mix
		t.Fatal(err)
	}
	warmA, err := sw.Sweep(wA)
	if err != nil {
		t.Fatal(err)
	}
	samePoint(t, "cold-vs-warm", warmA.Best, coldA.Best)
	if warmA.Explored+warmA.Pruned != coldA.Explored+coldA.Pruned {
		t.Errorf("coverage changed across reuse: %d+%d vs %d+%d",
			warmA.Explored, warmA.Pruned, coldA.Explored, coldA.Pruned)
	}

	// The warm sweep must reuse cached HDAs: every slot still holds the
	// pointer the cold sweep built, named after its enumeration index.
	hdas := make([]*accel.HDA, len(sw.slots))
	for i := range sw.slots {
		hdas[i] = sw.slots[i].h
		if want := fmt.Sprintf("hda-%d", sw.slots[i].idx); hdas[i] == nil || hdas[i].Name != want {
			t.Fatalf("slot %d: HDA %v, want one named %s", i, hdas[i], want)
		}
	}
	if _, err := sw.Sweep(wB); err != nil {
		t.Fatal(err)
	}
	for i := range sw.slots {
		if sw.slots[i].h != hdas[i] {
			t.Errorf("slot %d: warm re-sweep rebuilt its HDA", i)
		}
	}

	// A slot reloaded with another index rebuilds, named after it.
	sl := partSlot{idx: 99, part: sw.slots[0].part}
	h, err := sl.hda(sw.sp)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "hda-99" || !h.SamePartition(hdas[0]) {
		t.Errorf("partition repeated at index 99 resolved to %s %v", h.Name, h)
	}
}

// TestSweeperBestOnlyKeepsSchedule: the retained Best point must carry
// its schedule even when the cloud is dropped (core.Design needs it).
func TestSweeperBestOnlyKeepsSchedule(t *testing.T) {
	opts := DefaultOptions()
	opts.BestOnly = true
	res, err := Search(testCache(), edgeSpace(), smallWorkload(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Schedule == nil {
		t.Fatal("BestOnly Best has no schedule")
	}
	if err := res.Best.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepRaceHammer exercises the memo/bound paths under maximum
// worker parallelism — the cursor hands each partition slot to one
// worker per phase, and that must stay so (run under `make race`).
func TestSweepRaceHammer(t *testing.T) {
	cache := testCache()
	for _, bestOnly := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Workers = 8
		opts.Prune = true
		opts.BestOnly = bestOnly
		sw, err := NewSweeper(cache, edgeSpace(), opts)
		if err != nil {
			t.Fatal(err)
		}
		var ref atomic.Pointer[Point]
		for round := 0; round < 3; round++ {
			res, err := sw.Sweep(smallWorkload())
			if err != nil {
				t.Fatal(err)
			}
			if prev := ref.Load(); prev != nil {
				samePoint(t, "race-hammer", res.Best, *prev)
			}
			best := res.Best
			ref.Store(&best)
		}
	}
}

// TestSearchWorkersClamped: more workers than partitions must not
// break anything (the pool idles, results unchanged).
func TestSearchWorkersClamped(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 64
	res, err := Search(testCache(), edgeSpace(), smallWorkload(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 21 || res.Explored != 21 {
		t.Errorf("explored %d points (cloud %d), want 21", res.Explored, len(res.Points))
	}
}
