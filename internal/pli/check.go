package pli

// This file implements the non-materializing validation fast path: check
// kernels that answer the boolean/cardinality questions of the lattice walks
// (is X unique? does X → A hold? what is |X|_r?) by folding additional
// dictionary-encoded columns over the clusters of an already-built ancestor
// PLI, without ever allocating an output PLI.
//
// The fold is cluster-at-a-time: each cluster of the base PLI is refined
// through ALL key columns before the next cluster is touched. That ordering
// is what makes the early exits cheap — CheckRefines returns on the first
// group that is not constant in the RHS column, after folding only a prefix
// of the clusters. Grouping uses the same counts/starts/touched arenas as
// intersectKeyed plus two ping-pong row buffers sized to the largest cluster
// (Scratch.ensureFold); in the steady state a check performs zero
// allocations.
//
// The single-fold-column shape — the common case once the provider's
// promotions have grown a cached ancestor frontier to distance one — has
// dedicated kernels (checkRefines1, checkErrorSum1) that skip grouping
// entirely: one counting pass per cluster with immediate early exit, no
// scatter and no group offsets, making the check cheaper per element than a
// materializing intersection.
//
// Group enumeration order is identical to the cluster order of the PLI that
// chained single-column folds (intersectKeyed) would materialise: both
// orders are the lexicographic nesting (base cluster, first-occurrence at
// each fold step).
// The differential fuzz suite (FuzzCheckEquivalence) pins this down.

// checkRefines1 is the single-fold-column fast case of CheckRefines: the FD
// (base ∪ {key}) → rhs is violated iff two rows of one base cluster share a
// key code but differ in the rhs code. The counts arena doubles as a
// first-seen table (rhs code + 1 per key code, 0 = unseen), so one pass with
// early exit answers the check without building any groups.
func (p *PLI) checkRefines1(rhs, col []int32, card int, s *Scratch) bool {
	s.ensure(card)
	counts := s.counts
	touched := s.touched
	defer func() { s.touched = touched[:0] }() // keep grown capacity
	for ci, n := 0, p.NumClusters(); ci < n; ci++ {
		cluster := p.rows[p.offsets[ci]:p.offsets[ci+1]]
		if len(cluster) <= 3 {
			// Tiny clusters: check each same-key pair's rhs agreement directly.
			for i := 0; i < len(cluster); i++ {
				for j := i + 1; j < len(cluster); j++ {
					if col[cluster[i]] == col[cluster[j]] && rhs[cluster[i]] != rhs[cluster[j]] {
						return false
					}
				}
			}
			continue
		}
		violated := false
		for _, row := range cluster {
			k := col[row]
			v := rhs[row] + 1
			switch c := counts[k]; {
			case c == 0:
				counts[k] = v
				touched = append(touched, k)
			case c != v:
				violated = true
			}
			if violated {
				break
			}
		}
		for _, k := range touched {
			counts[k] = 0 // restore the all-zero invariant
		}
		touched = touched[:0]
		if violated {
			return false
		}
	}
	return true
}

// checkErrorSum1 returns the ErrorSum of p ∩ col without building it: each
// base cluster contributes len(cluster) - distinct(key codes), which equals
// the sum of (group size - 1) over its surviving groups. One counting pass
// per cluster, no grouping.
func (p *PLI) checkErrorSum1(col []int32, card int, s *Scratch) int {
	s.ensure(card)
	counts := s.counts
	touched := s.touched
	defer func() { s.touched = touched[:0] }() // keep grown capacity
	es := 0
	for ci, n := 0, p.NumClusters(); ci < n; ci++ {
		cluster := p.rows[p.offsets[ci]:p.offsets[ci+1]]
		if len(cluster) == 2 {
			if col[cluster[0]] == col[cluster[1]] {
				es++
			}
			continue
		}
		if len(cluster) == 3 {
			// 0, 1, or 3 equal pairs (transitivity excludes 2) map to
			// len - distinct of 0, 1, or 2 respectively.
			e := 0
			for i := 0; i < 3; i++ {
				for j := i + 1; j < 3; j++ {
					if col[cluster[i]] == col[cluster[j]] {
						e++
					}
				}
			}
			if e == 3 {
				e = 2
			}
			es += e
			continue
		}
		distinct := 0
		for _, row := range cluster {
			k := col[row]
			if counts[k] == 0 {
				distinct++
				touched = append(touched, k)
			}
			counts[k]++
		}
		for _, k := range touched {
			counts[k] = 0 // restore the all-zero invariant
		}
		touched = touched[:0]
		es += len(cluster) - distinct
	}
	return es
}

// fold enumerates the stripped groups of p ∩ keys[0] ∩ … ∩ keys[k-1],
// invoking each once per surviving group (size >= 2, row ids of the
// relation). each returning false aborts the enumeration; fold reports
// whether the enumeration ran to completion. cards[i] bounds the code range
// of keys[i]. The group slices are views into scratch memory (or, with no
// keys, into p's backing array) and are valid only during the callback.
func (p *PLI) fold(keys [][]int32, cards []int, s *Scratch, each func(group []int32) bool) bool {
	n := p.NumClusters()
	if n == 0 {
		return true
	}
	if len(keys) == 0 {
		for ci := 0; ci < n; ci++ {
			if !each(p.Cluster(ci)) {
				return false
			}
		}
		return true
	}
	maxCard := 0
	for _, c := range cards {
		if c > maxCard {
			maxCard = c
		}
	}
	s.ensure(maxCard)
	maxCluster := 0
	for ci := 0; ci < n; ci++ {
		if l := int(p.offsets[ci+1] - p.offsets[ci]); l > maxCluster {
			maxCluster = l
		}
	}
	s.ensureFold(maxCluster)
	counts, starts := s.counts, s.starts
	touched := s.touched
	defer func() { s.touched = touched[:0] }() // keep grown capacity

	for ci := 0; ci < n; ci++ {
		// Generation 0 is the whole cluster as a single group.
		srcRows := p.rows[p.offsets[ci]:p.offsets[ci+1]]
		if len(srcRows) <= 3 {
			// Tiny clusters — the common case when the base PLI sits near
			// the uniqueness boundary — are resolved by direct tuple
			// comparisons. At most one group of >= 2 rows can survive from
			// three rows, so emission order is trivially the generational
			// order.
			group := tinyFoldGroup(srcRows, keys, s)
			if group != nil && !each(group) {
				return false
			}
			continue
		}
		g0 := [2]int32{0, int32(len(srcRows))}
		srcOffs := g0[:]
		alive := true
		for t, col := range keys {
			w := t & 1
			dstRows := s.foldRows[w]
			dstOffs := append(s.foldOffs[w][:0], 0)
			cursor := int32(0)
			for gi := 0; gi+1 < len(srcOffs); gi++ {
				group := srcRows[srcOffs[gi]:srcOffs[gi+1]]
				touched = touched[:0]
				for _, row := range group {
					k := col[row]
					if counts[k] == 0 {
						touched = append(touched, k)
					}
					counts[k]++
				}
				for _, k := range touched {
					if counts[k] >= 2 {
						starts[k] = cursor
						cursor += counts[k]
						dstOffs = append(dstOffs, cursor)
					} else {
						starts[k] = -1 // stripped singleton
					}
				}
				for _, row := range group {
					if st := starts[col[row]]; st >= 0 {
						dstRows[st] = row
						starts[col[row]]++
					}
				}
				for _, k := range touched {
					counts[k] = 0 // restore the all-zero invariant
				}
			}
			s.foldOffs[w] = dstOffs[:0]
			if cursor == 0 {
				alive = false
				break
			}
			srcRows = dstRows[:cursor]
			srcOffs = dstOffs
		}
		if !alive {
			continue
		}
		for gi := 0; gi+1 < len(srcOffs); gi++ {
			if !each(srcRows[srcOffs[gi]:srcOffs[gi+1]]) {
				return false
			}
		}
	}
	return true
}

// rowsEqual reports whether rows a and b agree on every key column.
func rowsEqual(keys [][]int32, a, b int32) bool {
	for _, col := range keys {
		if col[a] != col[b] {
			return false
		}
	}
	return true
}

// tinyFoldGroup resolves a cluster of two or three rows by direct tuple
// comparisons, returning the single surviving group (or nil when the fold
// strips the cluster to singletons). Non-adjacent pairs are staged in the
// Scratch fold buffer, which the caller has already sized.
func tinyFoldGroup(rows []int32, keys [][]int32, s *Scratch) []int32 {
	if len(rows) == 2 {
		if rowsEqual(keys, rows[0], rows[1]) {
			return rows
		}
		return nil
	}
	switch {
	case rowsEqual(keys, rows[0], rows[1]):
		if rowsEqual(keys, rows[0], rows[2]) {
			return rows
		}
		return rows[:2]
	case rowsEqual(keys, rows[1], rows[2]):
		return rows[1:]
	case rowsEqual(keys, rows[0], rows[2]):
		pair := s.foldRows[0][:2]
		pair[0], pair[1] = rows[0], rows[2]
		return pair
	}
	return nil
}

// CheckRefines reports whether the FD (base ∪ keys) → rhs holds: every
// surviving group of the fold must be value-constant in the rhs column
// (Lemma 1). It exits on the first violating group without materialising
// the intersection. s may be nil.
func (p *PLI) CheckRefines(rhs []int32, keys [][]int32, cards []int, s *Scratch) bool {
	if len(keys) == 0 {
		return p.Refines(rhs)
	}
	if s == nil {
		s = getScratch()
		defer putScratch(s)
	}
	if len(keys) == 1 {
		return p.checkRefines1(rhs, keys[0], cards[0], s)
	}
	return p.fold(keys, cards, s, func(group []int32) bool {
		first := rhs[group[0]]
		for _, row := range group[1:] {
			if rhs[row] != first {
				return false
			}
		}
		return true
	})
}

// CheckRefinesMany is the batched flavour of CheckRefines for TANE's
// per-level RHS sweep: one fold of the keys answers (base ∪ keys) → rhs[i]
// for every candidate at once, and ok[i] is set to whether the refinement
// holds. Candidates are kept on a compact active list, so once a candidate
// fails it costs nothing on later groups, and the fold aborts as soon as
// every candidate has failed. s may be nil.
func (p *PLI) CheckRefinesMany(rhs [][]int32, keys [][]int32, cards []int, ok []bool, s *Scratch) {
	if s == nil {
		s = getScratch()
		defer putScratch(s)
	}
	active := s.activeSlots(len(rhs))
	for i := range rhs {
		ok[i] = true
		active = append(active, int32(i))
	}
	if len(active) == 0 {
		return
	}
	p.fold(keys, cards, s, func(group []int32) bool {
		for j := 0; j < len(active); {
			i := active[j]
			c := rhs[i]
			first := c[group[0]]
			violated := false
			for _, row := range group[1:] {
				if c[row] != first {
					violated = true
					break
				}
			}
			if violated {
				ok[i] = false
				active[j] = active[len(active)-1]
				active = active[:len(active)-1]
			} else {
				j++
			}
		}
		return len(active) > 0
	})
}

// foldPLI materialises the intersection p ∩ keys[0] ∩ … as a PLI in ONE
// combined cluster-at-a-time pass — no intermediate PLIs, one output
// allocation — instead of the len(keys) chained single-column folds the
// materializing path would make. Group order matches the chained
// materialisation exactly (see the fold contract), so the result is
// indistinguishable from Get's. It backs the provider's adaptive admission:
// when a refuted check proves a set worth caching, the stepping stone is
// built at roughly the cost of a single intersection regardless of fold
// depth.
func (p *PLI) foldPLI(keys [][]int32, cards []int, s *Scratch) *PLI {
	if len(keys) == 1 {
		return p.fold1PLI(keys[0], cards[0], s)
	}
	out := &PLI{nRows: p.nRows}
	// Near-boundary folds keep few survivors, so start small and let append
	// growth track the actual output instead of reserving the whole base.
	capHint := len(p.rows)/8 + 16
	rows := make([]int32, 0, capHint)
	offsets := make([]int32, 1, capHint/2+2)
	p.fold(keys, cards, s, func(g []int32) bool {
		rows = append(rows, g...)
		offsets = append(offsets, int32(len(rows)))
		return true
	})
	if len(rows) > 0 {
		out.rows = rows
		out.offsets = offsets
	}
	return out
}

// fold1PLI is the single-fold-column materialiser behind foldPLI — the hot
// shape when a distance-one refutation admits its stepping stone. It places
// surviving rows straight into the output arrays (count, reserve, scatter
// per cluster), skipping the generational ping-pong buffers and the extra
// group copy the generic fold would pay. Group order is the generational
// order: clusters outermost, key codes by first occurrence within a cluster.
func (p *PLI) fold1PLI(col []int32, card int, s *Scratch) *PLI {
	out := &PLI{nRows: p.nRows}
	s.ensure(card)
	counts, starts := s.counts, s.starts
	touched := s.touched
	defer func() { s.touched = touched[:0] }() // keep grown capacity
	capHint := len(p.rows)/8 + 16
	rows := make([]int32, 0, capHint)
	offsets := make([]int32, 1, capHint/2+2)
	for ci, n := 0, p.NumClusters(); ci < n; ci++ {
		cluster := p.rows[p.offsets[ci]:p.offsets[ci+1]]
		touched = touched[:0]
		for _, row := range cluster {
			k := col[row]
			if counts[k] == 0 {
				touched = append(touched, k)
			}
			counts[k]++
		}
		cursor := int32(len(rows))
		for _, k := range touched {
			if counts[k] >= 2 {
				starts[k] = cursor
				cursor += counts[k]
				offsets = append(offsets, cursor)
			} else {
				starts[k] = -1 // stripped singleton
			}
		}
		if int(cursor) > len(rows) {
			rows = append(rows, make([]int32, int(cursor)-len(rows))...)
			for _, row := range cluster {
				if st := starts[col[row]]; st >= 0 {
					rows[st] = row
					starts[col[row]]++
				}
			}
		}
		for _, k := range touched {
			counts[k] = 0 // restore the all-zero invariant
		}
	}
	if len(rows) > 0 {
		out.rows = rows
		out.offsets = offsets
	}
	return out
}

// ForEachFoldedGroup enumerates the stripped groups of p ∩ keys[0] ∩ …
// without materialising a PLI, in the same order as the materialised
// intersection's clusters. The group slice is scratch memory, valid only
// during the callback; returning false stops the enumeration. It backs
// order-insensitive aggregations such as the g3 approximate-FD error.
// s may be nil.
func (p *PLI) ForEachFoldedGroup(keys [][]int32, cards []int, s *Scratch, fn func(group []int32) bool) {
	if s == nil {
		s = getScratch()
		defer putScratch(s)
	}
	p.fold(keys, cards, s, fn)
}
