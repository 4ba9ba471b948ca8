package serve

// Tests of bounded scheduler memory: the committed schedule retires
// the finished prefix behind the admission floor, which must neither
// move a placement nor let the engine's heap grow with traffic.

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/accel"
	"repro/internal/dataflow"
	"repro/internal/dnn"
)

// placementStreamHash is the FNV-64a digest of
// TestPlacementStreamFingerprint's record stream, captured before
// retirement existed. Retirement must reproduce it unchanged.
const placementStreamHash uint64 = 0x8f67c779bb70aa79

// hashRecord folds one record's placement into h.
func hashRecord(h hash.Hash64, r Record) {
	var b [8]byte
	for _, v := range []int64{r.ID, int64(r.Instance), r.StartCycle, r.FinishCycle, r.BusyCycles,
		int64(math.Float64bits(r.EnergyPJ))} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	h.Write([]byte(r.Status))
}

// TestPlacementStreamFingerprint pushes 5k requests through a manual
// elastic engine — light models on two priorities, mobilenetv2 segment
// chains split across admission rounds by a small MaxBatch (so
// Admission.After crosses Extends), periodic preemptions with their
// resumptions, and slice reassignments — and pins the FNV digest of
// every record the engine publishes. The digest was captured before the
// scheduler retired anything, so a match means retirement moved no
// placement.
func TestPlacementStreamFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("5k-request placement stream")
	}
	cache := newTestCache()
	segs := chainSegments(t, cache, "mobilenetv2")
	h := fnv.New64a()
	opts := DefaultOptions()
	opts.Manual = true
	opts.Elastic = true
	opts.MaxBatch = 3
	opts.MaxRecords = 16
	opts.OnRequestDone = func(r Record) { hashRecord(h, r) }
	e, err := New(cache, testHDA(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	slices := [2][]accel.Partition{
		{{Style: dataflow.NVDLA, PEs: 768, BWGBps: 8}, {Style: dataflow.ShiDiannao, PEs: 256, BWGBps: 8}},
		{{Style: dataflow.NVDLA, PEs: 512, BWGBps: 8}, {Style: dataflow.ShiDiannao, PEs: 512, BWGBps: 8}},
	}
	light := []string{"mobilenetv1", "brq-handpose", "mobilenetv2"}
	rng := rand.New(rand.NewSource(19))
	// recent holds the ids of the latest tracked requests: after every
	// round their current records (resumptions included, which fire no
	// hook) are folded into the digest too.
	var recent []int64
	const n = 5000
	var cycle int64
	admitted := 0 // schedule instances: one per request or segment
	for i := 0; i < n; i++ {
		cycle += 1_500_000 + rng.Int63n(1_500_000)
		if i%6 == 2 {
			if _, err := e.SubmitChain(Request{Tenant: "fused", ArrivalCycle: cycle}, segs, nil); err != nil {
				t.Fatal(err)
			}
			admitted += len(segs)
		} else {
			admitted++
			tk, err := e.Submit(Request{Tenant: light[i%3], Model: light[rng.Intn(len(light))],
				Priority: i % 2, ArrivalCycle: cycle})
			if err != nil {
				t.Fatal(err)
			}
			if recent = append(recent, tk.ID); len(recent) > 24 {
				recent = recent[1:]
			}
		}
		if i%5 != 4 {
			continue
		}
		e.Admit()
		for _, id := range recent {
			if r, ok := e.Lookup(id); ok {
				hashRecord(h, r)
			}
		}
		binary.Write(h, binary.LittleEndian, e.Load().BacklogCycles)
		if i%40 == 19 {
			binary.Write(h, binary.LittleEndian, int64(e.Preempt(1, 2)))
		}
		if i%700 == 349 {
			if err := e.Reassign(slices[(i/700)%2]); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Preemptions == 0 || st.Resumes != st.Preemptions || st.PEReassigns == 0 {
		t.Fatalf("stream did not exercise the elastic surface: %d preemptions, %d resumes, %d reassigns",
			st.Preemptions, st.Resumes, st.PEReassigns)
	}
	if st.Submitted != st.Completed+st.Failed || st.Failed != 0 {
		t.Fatalf("conservation: %d submitted, %d completed, %d failed", st.Submitted, st.Completed, st.Failed)
	}
	for _, v := range []int64{st.Submitted, st.Preemptions, st.Resumes, st.MakespanCycles} {
		binary.Write(h, binary.LittleEndian, v)
	}
	snap := e.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatalf("committed schedule invalid: %v", err)
	}
	if live, retired := snap.Workload.NumInstances(), snap.Retired.Instances; live+retired != admitted || live > 64 {
		t.Fatalf("schedule holds %d live + %d retired instances, want %d in total and a window of at most 64",
			live, retired, admitted)
	}
	if got := h.Sum64(); got != placementStreamHash {
		t.Fatalf("placement stream digest %#x, want %#x", got, placementStreamHash)
	}
}

// TestFlatHeap pushes 200k mobilenetv1 requests through a manual engine
// (one every 3M cycles, an Admit after every 8) and checks that the
// live heap after 200k requests is within a small constant of the heap
// after 20k, and that the committed schedule's window stays bounded:
// the scheduler retires finished work instead of keeping history.
func TestFlatHeap(t *testing.T) {
	// Under -race it passes too, but takes ~20x as long; the engine is
	// driven from one goroutine, so the detector has nothing to add.
	if testing.Short() || raceEnabled {
		t.Skip("200k-request heap probe")
	}
	opts := DefaultOptions()
	opts.Manual = true
	opts.MaxRecords = 16
	e, err := New(newTestCache(), testHDA(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const n, probe = 200_000, 20_000
	var atProbe uint64
	maxWindow := 0
	for i := 0; i < n; i++ {
		if _, err := e.Submit(Request{Tenant: "m", Model: "mobilenetv1", ArrivalCycle: int64(i) * 3_000_000}); err != nil {
			t.Fatal(err)
		}
		if i%8 != 7 {
			continue
		}
		e.Admit()
		if i%4096 == 4095 {
			maxWindow = max(maxWindow, len(e.Snapshot().Assignments))
		}
		if i+1 == probe {
			atProbe = liveHeap()
		}
	}
	final := liveHeap()
	st := e.Stats()
	if st.Completed != n || st.Failed != 0 {
		t.Fatalf("%d completed, %d failed, want all %d done", st.Completed, st.Failed, n)
	}
	snap := e.Snapshot()
	if got := snap.Workload.NumInstances() + snap.Retired.Instances; got != n {
		t.Fatalf("%d live + %d retired instances, want %d", snap.Workload.NumInstances(), snap.Retired.Instances, n)
	}
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	const slack = 1 << 20
	t.Logf("live heap %d KB after %d requests, %d KB after %d; widest window %d assignments",
		atProbe>>10, probe, final>>10, n, maxWindow)
	if final > atProbe+slack {
		t.Errorf("live heap grew from %d KB after %d requests to %d KB after %d (slack %d KB)",
			atProbe>>10, probe, final>>10, n, slack>>10)
	}
	m, err := dnn.ByName("mobilenetv1")
	if err != nil {
		t.Fatal(err)
	}
	if maxWindow > 64*m.NumLayers() {
		t.Errorf("committed window reached %d assignments, want at most 64 instances' worth", maxWindow)
	}
}

// TestChainOutlivesFloor splits a two-segment chain across admission
// rounds (MaxBatch 1) with a later tenant's request popped in between:
// that request lifts the admission floor past the first segment's
// completion before the second segment names it in After. The
// Continues mark SubmitChain sets keeps the first segment live, so the
// chain links instead of failing on a retired predecessor.
func TestChainOutlivesFloor(t *testing.T) {
	cache := newTestCache()
	segs := chainSegments(t, cache, "mobilenetv2")[:2]
	opts := DefaultOptions()
	opts.Manual = true
	opts.MaxBatch = 1
	e, err := New(cache, testHDA(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	var rec recorder
	if _, err := e.SubmitChain(Request{Tenant: "f", ArrivalCycle: 0}, segs, rec.done); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(Request{Tenant: "a", Model: "brq-handpose", ArrivalCycle: 500_000_000}); err != nil {
		t.Fatal(err)
	}
	e.Admit()
	if len(rec.recs) != 2 {
		t.Fatalf("%d segment records, want 2", len(rec.recs))
	}
	for k, r := range rec.recs {
		if r.Status != StatusDone {
			t.Fatalf("segment %d: %q err %q", k, r.Status, r.Err)
		}
	}
	if rec.recs[1].StartCycle < 500_000_000 {
		t.Errorf("second segment starts at %d, before the floor the later request set", rec.recs[1].StartCycle)
	}
	snap := e.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := snap.Workload.NumInstances() + snap.Retired.Instances; got != 3 {
		t.Errorf("%d live + retired instances, want 3", got)
	}
}
