package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/accel"
	"repro/internal/dnn"
	"repro/internal/workload"
)

// entry is a distinguishable log entry: its Layer carries the value.
func entry(v int) Assignment { return Assignment{Instance: v % 7, Layer: v, Start: int64(v)} }

// checkLog compares the log with a reference slice and checks the page
// invariants: every full page holds pageSize entries, everything past
// the tail's length is zero, and no dropped page stays reachable.
func checkLog(t *testing.T, l *assignLog, want []Assignment) {
	t.Helper()
	if got := l.clone(); !slices.Equal(got, want) {
		t.Fatalf("log holds %d entries, want %d (first difference at %d)", len(got), len(want), firstDiff(got, want))
	}
	if l.len() != len(want) {
		t.Fatalf("len() = %d, want %d", l.len(), len(want))
	}
	for i := range want {
		if *l.at(i) != want[i] {
			t.Fatalf("at(%d) = %+v, want %+v", i, *l.at(i), want[i])
		}
	}
	for p, pg := range l.pages {
		if len(pg) != pageSize || cap(pg) != pageSize {
			t.Fatalf("page %d has len %d cap %d, want %d", p, len(pg), cap(pg), pageSize)
		}
	}
	if len(l.pages) > 0 && cap(l.tail) != pageSize {
		t.Fatalf("tail behind %d full pages has cap %d, want %d", len(l.pages), cap(l.tail), pageSize)
	}
	for i, a := range l.tail[len(l.tail):cap(l.tail)] {
		if a != (Assignment{}) {
			t.Fatalf("tail slot %d past the end holds %+v, want zero", len(l.tail)+i, a)
		}
	}
	for i, pg := range l.pages[len(l.pages):cap(l.pages)] {
		if pg != nil {
			t.Fatalf("dropped page slot %d still holds a page", len(l.pages)+i)
		}
	}
}

func firstDiff(a, b []Assignment) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestAssignLogPushAndWalk pushes past three page boundaries and walks
// from marks before, on and after each boundary.
func TestAssignLogPushAndWalk(t *testing.T) {
	var l assignLog
	var want []Assignment
	for v := range 3*pageSize + 17 {
		l.push(entry(v))
		want = append(want, entry(v))
		if v == 20 && cap(l.tail) > 32 {
			t.Errorf("a 21-entry log reserves %d entries: the first page should grow like a slice", cap(l.tail))
		}
	}
	checkLog(t, &l, want)
	if len(l.pages) != 3 || len(l.tail) != 17 {
		t.Fatalf("%d full pages and a %d-entry tail, want 3 and 17", len(l.pages), len(l.tail))
	}
	for _, mark := range []int{0, 1, pageSize - 1, pageSize, pageSize + 1, 2 * pageSize, 3*pageSize - 1, 3 * pageSize, len(want) - 1, len(want)} {
		var got []Assignment
		for a := range l.from(mark) {
			got = append(got, *a)
		}
		if !slices.Equal(got, want[mark:]) {
			t.Errorf("from(%d) yields %d entries, want %d", mark, len(got), len(want)-mark)
		}
	}
	// An early break stops the walk.
	n := 0
	for range l.from(pageSize - 2) {
		if n++; n == 4 {
			break
		}
	}
	if n != 4 {
		t.Errorf("walk ran %d steps past a break at 4", n)
	}
}

// TestAssignLogTruncateZeroesTail truncates onto, inside and below
// page boundaries: the cut entries are zeroed, and the page holding the
// cut becomes the tail, refilled in place up to the next boundary.
func TestAssignLogTruncateZeroesTail(t *testing.T) {
	var l assignLog
	var want []Assignment
	for v := range 4*pageSize + 3 {
		l.push(entry(v))
		want = append(want, entry(v))
	}
	for _, n := range []int{4*pageSize + 1, 3 * pageSize, 2*pageSize + 5, 2 * pageSize, pageSize - 1} {
		kept := l.at(n / pageSize * pageSize)
		l.truncate(n)
		want = want[:n]
		checkLog(t, &l, want)
		if n%pageSize != 0 && &l.tail[0] != kept {
			t.Fatalf("truncate(%d) replaced the page holding the cut", n)
		}
	}
	first := &l.tail[0]
	// Refill across the next page boundary.
	for v := len(want); v < pageSize+2; v++ {
		l.push(entry(v))
		want = append(want, entry(v))
	}
	checkLog(t, &l, want)
	if &l.pages[0][0] != first {
		t.Error("refilling the truncated tail moved its entries")
	}
}

// TestAssignLogFilter compacts across page boundaries, rewriting the
// kept entries as the retirement fold does.
func TestAssignLogFilter(t *testing.T) {
	var l assignLog
	var want []Assignment
	for v := range 3*pageSize + 40 {
		l.push(entry(v))
		want = append(want, entry(v))
	}
	keep := func(a *Assignment) bool {
		if a.Layer%3 == 0 || (a.Layer >= pageSize-5 && a.Layer < 2*pageSize+5) {
			return false
		}
		a.Start = -a.Start
		return true
	}
	var ref []Assignment
	for _, a := range want {
		if keep(&a) {
			ref = append(ref, a)
		}
	}
	l.filter(keep)
	checkLog(t, &l, ref)
	l.filter(func(*Assignment) bool { return false })
	checkLog(t, &l, nil)
}

// TestAssignLogMatchesSlice drives the log and a plain slice through
// one seeded sequence of pushes, truncations and filters.
func TestAssignLogMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var l assignLog
	var want []Assignment
	v := 0
	for range 400 {
		switch op := rng.Intn(10); {
		case op < 7:
			for range rng.Intn(3 * pageSize / 2) {
				l.push(entry(v))
				want = append(want, entry(v))
				v++
			}
		case op < 9:
			n := rng.Intn(len(want) + 1)
			l.truncate(n)
			want = want[:n]
		default:
			m := 2 + rng.Intn(4)
			l.filter(func(a *Assignment) bool { return a.Layer%m != 0 })
			want = slices.DeleteFunc(want, func(a Assignment) bool { return a.Layer%m == 0 })
		}
		checkLog(t, &l, want)
	}
}

// TestAssignLogEpochs drives the log through one seeded sequence of
// pushes, seals, truncations and filters against a slice that tags
// each entry with the HDA it was sealed under: the epochs must stay
// non-empty and in order, and attribute every entry to its tag.
func TestAssignLogEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var l assignLog
	var want []Assignment
	var tags []*accel.HDA // nil: the current HDA
	v := 0
	for step := range 400 {
		switch op := rng.Intn(10); {
		case op < 5:
			for range rng.Intn(pageSize) {
				l.push(entry(v))
				want = append(want, entry(v))
				tags = append(tags, nil)
				v++
			}
		case op < 7:
			h := &accel.HDA{Name: fmt.Sprint("hda-", step)}
			l.seal(h)
			for i := range tags {
				if tags[i] == nil {
					tags[i] = h
				}
			}
		case op < 9:
			n := rng.Intn(len(want) + 1)
			l.truncate(n)
			want, tags = want[:n], tags[:n]
		default:
			m := 2 + rng.Intn(4)
			l.filter(func(a *Assignment) bool { return a.Layer%m != 0 })
			var kt []*accel.HDA
			for i, a := range want {
				if a.Layer%m != 0 {
					kt = append(kt, tags[i])
				}
			}
			want = slices.DeleteFunc(want, func(a Assignment) bool { return a.Layer%m == 0 })
			tags = kt
		}
		checkLog(t, &l, want)
		prev, e := 0, 0
		for _, ep := range l.past {
			if ep.End <= prev || ep.End > len(want) {
				t.Fatalf("step %d: epoch end %d after %d in a %d-entry log", step, ep.End, prev, len(want))
			}
			prev = ep.End
		}
		for i, tag := range tags {
			for e < len(l.past) && i >= l.past[e].End {
				e++
			}
			var got *accel.HDA
			if e < len(l.past) {
				got = l.past[e].HDA
			}
			if got != tag {
				t.Fatalf("step %d: entry %d attributed to %v, want %v", step, i, got, tag)
			}
		}
	}
}

// overloadIncremental returns an incremental schedule fed n
// brq-handpose instances 100k cycles apart, about ten times faster
// than the two-sub test HDA serves them, so nothing ever finishes by
// the admission floor and nothing retires.
func overloadIncremental(tb testing.TB, n int) *Incremental {
	tb.Helper()
	inc, err := incTestScheduler(tb).Incremental(incTestHDA(tb), "overload")
	if err != nil {
		tb.Fatal(err)
	}
	m := mustModel(tb, "brq-handpose")
	for range n {
		overloadExtend(tb, inc, m)
	}
	return inc
}

// overloadExtend admits the next overload arrival of m.
func overloadExtend(tb testing.TB, inc *Incremental, m *dnn.Model) {
	tb.Helper()
	g := inc.NumInstances()
	if _, err := inc.Extend([]Admission{{Instance: workload.Instance{Model: m, Batch: g + 1, ArrivalCycle: int64(g) * 100_000}}}); err != nil {
		tb.Fatal(err)
	}
}

// TestExtendOverloadKeepsCommittedAssignments: on an engine admitting
// faster than it serves, the committed log only grows, and an Extend
// never moves what is already committed. A failed Extend whose
// rollback crosses a page boundary leaves placement exactly as if it
// never happened.
func TestExtendOverloadKeepsCommittedAssignments(t *testing.T) {
	inc := overloadIncremental(t, 100) // 1100 assignments: four full pages
	if n := inc.st.log.len(); n < 4*pageSize {
		t.Fatalf("log holds %d assignments, want at least 4 pages", n)
	}
	var first []*Assignment // each full page's first entry
	pinned := func() {
		for p := range inc.st.log.len() / pageSize {
			a := inc.st.log.at(p * pageSize)
			if p == len(first) {
				first = append(first, a)
			} else if first[p] != a {
				t.Fatalf("after %d instances page %d's first entry moved", inc.NumInstances(), p)
			}
		}
	}
	pinned()
	m := mustModel(t, "brq-handpose")
	for range 200 {
		overloadExtend(t, inc, m)
		pinned()
	}
	snap := inc.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if snap.Retired.Instances != 0 {
		t.Errorf("%d instances retired, want none under overload", snap.Retired.Instances)
	}
	if got := snap.Workload.NumInstances() + snap.Retired.Instances; got != 300 {
		t.Errorf("live + retired = %d instances, want 300 admitted", got)
	}

	// Two identical tiny-buffer schedules, 10 entries short of a page
	// boundary; one sees a failed Extend that commits 20 tiny layers
	// across the boundary before the giant layer dead-ends.
	s, tiny := incTestScheduler(t), tinyModel()
	build := func() *Incremental {
		inc, err := s.Incremental(tinyBufHDA("overload-rollback"), "overload-rollback")
		if err != nil {
			t.Fatal(err)
		}
		for base := 0; base < 4*pageSize-10; base += 50 {
			adms := make([]Admission, min(50, 4*pageSize-10-base))
			for i := range adms {
				adms[i] = Admission{Instance: workload.Instance{Model: tiny, Batch: base + i + 1}}
			}
			if _, err := inc.Extend(adms); err != nil {
				t.Fatal(err)
			}
		}
		return inc
	}
	failed, clean := build(), build()
	adms := make([]Admission, 21)
	for i := range 20 {
		adms[i] = Admission{Instance: workload.Instance{Model: tiny, Batch: i + 1}}
	}
	adms[20] = Admission{Instance: workload.Instance{Model: giantModel(), Batch: 1}}
	if _, err := failed.Extend(adms); err == nil {
		t.Fatal("un-schedulable model admitted")
	}
	if n := failed.st.log.len(); n != 4*pageSize-10 {
		t.Fatalf("failed Extend left %d assignments, want %d", n, 4*pageSize-10)
	}
	next := []Admission{{Instance: workload.Instance{Model: tiny, Batch: 1, ArrivalCycle: 5}}}
	a, err := failed.Extend(next)
	if err != nil {
		t.Fatal(err)
	}
	b, err := clean.Extend(next)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Errorf("placement after a failed Extend %+v, without it %+v", a, b)
	}
	sa, sb := failed.Snapshot(), clean.Snapshot()
	if !slices.Equal(sa.Assignments, sb.Assignments) {
		t.Errorf("committed log differs after a failed Extend (first difference at %d)", firstDiff(sa.Assignments, sb.Assignments))
	}
	if err := sa.Validate(); err != nil {
		t.Fatal(err)
	}
}
