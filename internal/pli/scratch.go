package pli

import "sync"

// Scratch is a reusable grouping arena for PLI construction and
// intersection. It replaces the per-call map[int32][]int32 grouping of the
// pre-flat implementation: counts and starts are dense arrays indexed by
// grouping key (a dictionary code), touched remembers which keys a cluster
// dirtied so resets cost O(cluster), not O(key range). In the
// steady state an intersection therefore performs zero map allocations and
// only the output PLI's own arrays are allocated.
//
// Ownership contract: a Scratch is NOT safe for concurrent use. There are
// two sanctioned ways to hold one:
//
//   - Worker-slot ownership: code fanning folds out across
//     internal/parallel owns one Scratch per worker slot and passes it in
//     (FromColumnScratch, Provider.Extend, Provider.ErrorSumWith).
//     parallel.ForWorker guarantees a slot is never run by two goroutines at
//     once, so slot-indexed scratches need no locks. The Provider's
//     single-column build and the level-wise FD algorithms use this path.
//   - Pool fallback: the Provider's checks and Get borrow a Scratch from a
//     package-level sync.Pool for the duration of the call. This is the
//     path for code that reaches folds through a shared Provider from
//     arbitrary goroutines.
//
// Invariant between calls: counts is all-zero (each call resets exactly the
// entries it dirtied), so a pooled Scratch never leaks state across users.
type Scratch struct {
	counts  []int32 // per-key occurrence counts within the current cluster
	starts  []int32 // per-key write cursors into the output row array
	touched []int32 // keys dirtied by the current cluster (bounds the reset)

	// Fold buffers of the non-materializing check kernels (see check.go):
	// two ping-pong row arrays plus matching group-offset arrays, sized to
	// the largest cluster of the base PLI. The kernels refine one cluster at
	// a time, so the buffers never need to hold more than one cluster.
	foldRows [2][]int32
	foldOffs [2][]int32

	// Column-slot buffers of the Provider fast paths: key columns and
	// cardinalities of the fold plan, candidate RHS columns and their
	// verdicts for CheckFDs, the compact active list of CheckRefinesMany,
	// and the fold-plan column indexes. They live on the Scratch so the
	// validation hot loops (TANE's per-level sweep, the DUCC walk) allocate
	// nothing per check; the usual Scratch ownership contract applies.
	keyCols  [][]int32
	keyCards []int
	rhsCols  [][]int32
	okBuf    []bool
	active   []int32
	foldCols []int
}

// NewScratch returns an empty Scratch; its arenas grow on demand.
func NewScratch() *Scratch { return &Scratch{} }

// ensure grows the arenas to cover keys in [0, keyRange). Newly allocated
// counts are zero, preserving the all-zero invariant.
func (s *Scratch) ensure(keyRange int) {
	if len(s.counts) < keyRange {
		s.counts = make([]int32, keyRange)
		s.starts = make([]int32, keyRange)
	}
}

// Ensure pre-sizes the arenas for keys in [0, keyRange), so a worker-slot
// Scratch sized once to the relation's maximum cardinality never regrows.
func (s *Scratch) Ensure(keyRange int) { s.ensure(keyRange) }

// ensureFold grows the ping-pong fold buffers to hold one cluster of up to
// maxCluster rows. A generation of groups over n rows has at most n/2
// surviving groups (every group has size >= 2), bounding the offset arrays.
func (s *Scratch) ensureFold(maxCluster int) {
	if len(s.foldRows[0]) >= maxCluster {
		return
	}
	for i := range s.foldRows {
		s.foldRows[i] = make([]int32, maxCluster)
		s.foldOffs[i] = make([]int32, 0, maxCluster/2+2)
	}
}

// keySlots returns n reusable (column, cardinality) slots for fold keys.
func (s *Scratch) keySlots(n int) ([][]int32, []int) {
	if cap(s.keyCols) < n {
		s.keyCols = make([][]int32, n)
		s.keyCards = make([]int, n)
	}
	return s.keyCols[:n], s.keyCards[:n]
}

// rhsSlots returns n reusable candidate-column slots plus a verdict buffer.
func (s *Scratch) rhsSlots(n int) ([][]int32, []bool) {
	if cap(s.rhsCols) < n {
		s.rhsCols = make([][]int32, n)
	}
	if cap(s.okBuf) < n {
		s.okBuf = make([]bool, n)
	}
	return s.rhsCols[:n], s.okBuf[:n]
}

// activeSlots returns an n-capacity buffer for CheckRefinesMany's compact
// active-candidate list.
func (s *Scratch) activeSlots(n int) []int32 {
	if cap(s.active) < n {
		s.active = make([]int32, n)
	}
	return s.active[:0]
}

// foldColSlots returns a zero-length buffer for fold-plan column indexes.
func (s *Scratch) foldColSlots(n int) []int {
	if cap(s.foldCols) < n {
		s.foldCols = make([]int, 0, n)
	}
	return s.foldCols[:0]
}

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

func getScratch() *Scratch  { return scratchPool.Get().(*Scratch) }
func putScratch(s *Scratch) { scratchPool.Put(s) }
