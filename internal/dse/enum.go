package dse

import (
	"fmt"
	"math/rand"
	"sort"
)

// Partition enumeration. Partitions are unit-count vectors: part[0:n]
// are PE units per sub-accelerator, part[n:2n] are BW units; each
// entry >= 1, sums equal the unit totals.
//
// The enumeration is streamed: spaceSize counts the partitions
// combinatorially up front (so result arrays can be sized), and
// streamPartitions yields them one by one in the same deterministic
// order the original eager enumerate produced — PE composition outer,
// BW composition inner, each composition in lexicographic prefix
// order. The sweep (sweeper.go) copies them into blocks of at most
// sched.MaxTables partitions, each with its HDA and bound memos that
// keep re-sweeps warm, so it never holds more of the space than one
// block.

// compCount returns the number of ordered compositions of `total`
// into n parts, each >= 1: C(total-1, n-1).
func compCount(total, n int) int {
	if n < 1 || total < n {
		return 0
	}
	c := 1
	for i := 1; i < n; i++ {
		c = c * (total - i) / i // exact: product of consecutive terms
	}
	return c
}

// pow2CompCount returns the number of ordered compositions of `total`
// into n parts that are all powers of two.
func pow2CompCount(total, n int) int {
	if n == 0 {
		if total == 0 {
			return 1
		}
		return 0
	}
	if total < n {
		return 0
	}
	count := 0
	for v := 1; v <= total-(n-1); v <<= 1 {
		count += pow2CompCount(total-v, n-1)
	}
	return count
}

// compIter streams the ordered compositions of `total` into n parts
// (each >= 1) in the recursive enumeration's lexicographic prefix
// order. The yielded slice is the iterator's own state: callers must
// copy it before advancing.
type compIter struct {
	total, n int
	cur      []int
	done     bool
}

func newCompIter(total, n int) *compIter {
	it := &compIter{total: total, n: n, cur: make([]int, n)}
	it.reset()
	return it
}

// reset rewinds the iterator to the first composition.
func (it *compIter) reset() {
	it.done = it.total < it.n || it.n < 1
	if it.done {
		return
	}
	for i := 0; i < it.n-1; i++ {
		it.cur[i] = 1
	}
	it.cur[it.n-1] = it.total - (it.n - 1)
}

// next advances to the following composition, reporting false when the
// enumeration is exhausted. The first composition is available
// immediately after reset; call next only after consuming cur.
func (it *compIter) next() bool {
	if it.done {
		return false
	}
	// Carry: find the rightmost prefix position whose increment leaves
	// at least 1 unit for every later part, bump it, and reset the
	// suffix to its minimal configuration.
	for p := it.n - 2; p >= 0; p-- {
		// Units consumed by cur[0..p] after the increment.
		used := 1
		for i := 0; i <= p; i++ {
			used += it.cur[i]
		}
		// The n-1-p parts after p each need >= 1 unit.
		if used+(it.n-1-p) <= it.total {
			it.cur[p]++
			for i := p + 1; i < it.n-1; i++ {
				it.cur[i] = 1
			}
			rest := it.total
			for i := 0; i < it.n-1; i++ {
				rest -= it.cur[i]
			}
			it.cur[it.n-1] = rest
			return true
		}
	}
	it.done = true
	return false
}

// allPow2 reports whether every entry of the composition is a power of
// two.
func allPow2(c []int) bool {
	for _, v := range c {
		if v&(v-1) != 0 {
			return false
		}
	}
	return true
}

// spaceSize returns the number of partitions the (space, options) pair
// enumerates, with the Binary strategy's named emptiness errors.
func spaceSize(sp Space, opts Options) (int, error) {
	n := len(sp.Styles)
	switch opts.Strategy {
	case Binary:
		pe := pow2CompCount(sp.PEUnits, n)
		if pe == 0 {
			return 0, binaryEmptyErr("PE", sp.PEUnits, n)
		}
		bw := pow2CompCount(sp.BWUnits, n)
		if bw == 0 {
			return 0, binaryEmptyErr("bandwidth", sp.BWUnits, n)
		}
		return pe * bw, nil
	case Random:
		k := opts.Samples
		if k <= 0 {
			k = 32
		}
		return k, nil
	default: // Exhaustive
		return compCount(sp.PEUnits, n) * compCount(sp.BWUnits, n), nil
	}
}

// streamPartitions yields every partition of the space in
// deterministic enumeration order: yield receives the running index
// and a vector that is reused between calls (copy before keeping).
// Returning false from yield stops the stream early.
func streamPartitions(sp Space, opts Options, yield func(idx int, part []int) bool) {
	n := len(sp.Styles)
	if opts.Strategy == Random {
		k := opts.Samples
		if k <= 0 {
			k = 32
		}
		for i, part := range randomPartitions(sp, k, opts.Seed) {
			if !yield(i, part) {
				return
			}
		}
		return
	}

	pow2Only := opts.Strategy == Binary
	part := make([]int, 2*n)
	idx := 0
	pe := newCompIter(sp.PEUnits, n)
	for ok := !pe.done; ok; ok = pe.next() {
		if pow2Only && !allPow2(pe.cur) {
			continue
		}
		copy(part, pe.cur)
		bw := newCompIter(sp.BWUnits, n)
		for bok := !bw.done; bok; bok = bw.next() {
			if pow2Only && !allPow2(bw.cur) {
				continue
			}
			copy(part[n:], bw.cur)
			if !yield(idx, part) {
				return
			}
			idx++
		}
	}
}

// enumerate materializes the whole partition stream. Only tests and
// reference checks use it — the search path streams through
// streamPartitions, holding one block at a time.
func enumerate(sp Space, opts Options) ([][]int, error) {
	if _, err := spaceSize(sp, opts); err != nil {
		return nil, err
	}
	var out [][]int
	streamPartitions(sp, opts, func(_ int, part []int) bool {
		out = append(out, append([]int(nil), part...))
		return true
	})
	return out, nil
}

// binaryEmptyErr names the Binary pow2 constraint when it filters a
// resource's composition space to nothing. The suggested granularity
// is the smallest power of two >= units: any power-of-two total >= n
// splits greedily into n power-of-two parts (Space.Validate already
// guarantees units >= n).
func binaryEmptyErr(resource string, units, n int) error {
	pow2 := 1
	for pow2 < units {
		pow2 <<= 1
	}
	return fmt.Errorf("dse: Binary strategy requires every sub-accelerator's share to be a power of two, "+
		"but %d %s units cannot be split into %d power-of-two parts; "+
		"use a pow2-friendly granularity (e.g. %d units) or the Exhaustive/Random strategy",
		units, resource, n, pow2)
}

// compositions enumerates all ways to write `total` as an ordered sum
// of n parts, each >= 1. It is the eager reference implementation the
// streaming compIter is tested against (and what randomPartitions'
// stars-and-bars sampling conceptually draws from); the search path
// itself never materializes composition sets.
func compositions(total, n int) [][]int {
	if n == 1 {
		return [][]int{{total}}
	}
	var out [][]int
	cur := make([]int, n)
	var rec func(pos, left int)
	rec = func(pos, left int) {
		if pos == n-1 {
			cur[pos] = left
			out = append(out, append([]int(nil), cur...))
			return
		}
		for v := 1; v <= left-(n-1-pos); v++ {
			cur[pos] = v
			rec(pos+1, left-v)
		}
	}
	rec(0, total)
	return out
}

// filterPow2 keeps compositions whose entries are all powers of two
// (reference counterpart of the streaming pow2 filter).
func filterPow2(comps [][]int) [][]int {
	var out [][]int
	for _, c := range comps {
		if allPow2(c) {
			out = append(out, c)
		}
	}
	return out
}

// randomPartitions samples k unit-count vectors uniformly from the
// composition space (with replacement; deterministic for a seed).
func randomPartitions(sp Space, k int, seed int64) [][]int {
	n := len(sp.Styles)
	r := rand.New(rand.NewSource(seed))
	sample := func(total int) []int {
		// Stars-and-bars: choose n-1 distinct cut points.
		cuts := r.Perm(total - 1)[: n-1 : n-1]
		sort.Ints(cuts)
		parts := make([]int, n)
		prev := 0
		for i, c := range cuts {
			parts[i] = c + 1 - prev
			prev = c + 1
		}
		parts[n-1] = total - prev
		return parts
	}
	out := make([][]int, k)
	for i := 0; i < k; i++ {
		part := make([]int, 2*n)
		copy(part, sample(sp.PEUnits))
		copy(part[n:], sample(sp.BWUnits))
		out[i] = part
	}
	return out
}
