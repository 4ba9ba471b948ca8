package sched

import "iter"

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
// tail, so it pins no *maestro.Cost, and lets every page after it go:
// a retirement fold hands the memory of the window it folded back to
// the collector, where a slice would have kept its high-water capacity.
type assignLog struct {
	pages [][]Assignment
	tail  []Assignment
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
// the tail's backing page; the pages after it are dropped.
func (l *assignLog) truncate(n int) {
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
// order. keep may rewrite the entry it is handed before accepting it.
func (l *assignLog) filter(keep func(*Assignment) bool) {
	w := 0
	for a := range l.from(0) {
		if keep(a) {
			*l.at(w) = *a
			w++
		}
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
