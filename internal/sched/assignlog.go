package sched

import (
	"iter"

	"repro/internal/accel"
)

// pageSize is the number of entries per page of an assignment log:
// 256 assignments, 12 KB.
const pageSize = 256

// assignLog holds a run state's committed assignments in commit order
// as full pages followed by a tail page, so a long-lived incremental
// schedule whose window never retires (an engine running over
// capacity) appends without ever regrowing or copying what it
// committed earlier: a full page is never copied again.
//
// Every page in pages holds exactly pageSize entries. The tail of a
// log with no full pages grows like a slice up to pageSize, so a small
// window costs no more than a slice would. A batch run's log is only a
// tail: the exact-size buffer that becomes Schedule.Assignments with
// no copy.
//
// A truncation clears the vacated part of the page that becomes the
// tail, so it pins no *maestro.Footprint, and lets every page after it
// go: a retirement fold hands the memory of the window it folded back
// to the collector, where a slice would have kept its high-water
// capacity.
//
// past records which entries were costed on an HDA before a Reassign
// (see Epoch): its Ends are log indices, which filter remaps and
// truncate clamps, dropping epochs left empty.
type assignLog struct {
	pages [][]Assignment
	tail  []Assignment
	past  []Epoch
}

// seal closes the current epoch: every entry so far was costed on h.
// An empty epoch is not recorded.
func (l *assignLog) seal(h *accel.HDA) {
	if n := l.len(); n > 0 && (len(l.past) == 0 || l.past[len(l.past)-1].End < n) {
		l.past = append(l.past, Epoch{End: n, HDA: h})
	}
}

// len returns the number of entries in the log.
func (l *assignLog) len() int { return len(l.pages)*pageSize + len(l.tail) }

// push appends one entry. Making room is split out into grow so this
// fast path inlines into the assignment loop.
func (l *assignLog) push(a Assignment) {
	if len(l.tail) == cap(l.tail) {
		l.grow()
	}
	l.tail = append(l.tail, a)
}

// grow makes room for one more entry: a full tail page joins pages
// and a new page replaces it; a tail below pageSize doubles (copying
// at most half a page).
func (l *assignLog) grow() {
	if t := l.tail; cap(t) == pageSize {
		l.pages = append(l.pages, t)
		l.tail = make([]Assignment, 0, pageSize)
	} else {
		l.tail = append(make([]Assignment, 0, min(max(2*cap(t), 8), pageSize)), t...)
	}
}

// at returns entry i.
func (l *assignLog) at(i int) *Assignment {
	if full := len(l.pages) * pageSize; i >= full {
		return &l.tail[i-full]
	}
	return &l.pages[i/pageSize][i%pageSize]
}

// from yields the entries from index mark on, in commit order.
func (l *assignLog) from(mark int) iter.Seq[*Assignment] {
	return func(yield func(*Assignment) bool) {
		for p := min(mark/pageSize, len(l.pages)); p <= len(l.pages); p++ {
			pg := l.tail
			if p < len(l.pages) {
				pg = l.pages[p]
			}
			for i := max(mark-p*pageSize, 0); i < len(pg); i++ {
				if !yield(&pg[i]) {
					return
				}
			}
		}
	}
}

// truncate drops every entry from index n on, zeroing those left in
// the tail's backing page; the pages after it are dropped, and so are
// the epochs left empty.
func (l *assignLog) truncate(n int) {
	past, prev := l.past[:0], 0
	for _, e := range l.past {
		if e.End = min(e.End, n); e.End > prev {
			past = append(past, e)
			prev = e.End
		}
	}
	clear(l.past[len(past):])
	l.past = past
	if full := len(l.pages) * pageSize; n >= full {
		clear(l.tail[n-full:])
		l.tail = l.tail[:n-full]
		return
	}
	// The page holding entry n becomes the tail.
	k := n / pageSize
	l.tail = l.pages[k][:n%pageSize]
	clear(l.pages[k][n%pageSize:])
	clear(l.pages[k:])
	l.pages = l.pages[:k]
}

// filter compacts the log in place to the entries keep accepts, in
// order, and remaps each epoch's End to the kept entries before it.
// keep may rewrite the entry it is handed before accepting it.
func (l *assignLog) filter(keep func(*Assignment) bool) {
	r, w, e := 0, 0, 0
	for a := range l.from(0) {
		for ; e < len(l.past) && l.past[e].End == r; e++ {
			l.past[e].End = w
		}
		if keep(a) {
			*l.at(w) = *a
			w++
		}
		r++
	}
	for ; e < len(l.past); e++ {
		l.past[e].End = w
	}
	l.truncate(w)
}

// clone returns the entries as one exact-size slice (nil when empty).
func (l *assignLog) clone() []Assignment {
	n := l.len()
	if n == 0 {
		return nil
	}
	out := make([]Assignment, 0, n)
	for _, p := range l.pages {
		out = append(out, p...)
	}
	return append(out, l.tail...)
}
