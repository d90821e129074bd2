// Package bitset implements fixed-width column sets and the attribute-lattice
// helpers shared by all profiling algorithms.
//
// A Set is a value type (plain comparable struct) so it can be used directly
// as a map key, which the PLI caches and candidate queues of the discovery
// algorithms rely on. The width is fixed at 256 columns; all
// datasets of the reproduced evaluation fit well below that bound.
package bitset

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// MaxColumns is the largest column index (exclusive) a Set can hold.
const MaxColumns = 256

const words = MaxColumns / 64

// Set is a set of column indexes in [0, MaxColumns). The zero value is the
// empty set. Sets are immutable values: all operations return new sets.
type Set struct {
	w [words]uint64
}

// New returns the set containing the given columns. It panics if a column is
// out of range, because a column index beyond MaxColumns is a programming
// error, not an input error (inputs are validated at relation-load time).
func New(cols ...int) Set {
	var s Set
	for _, c := range cols {
		s = s.With(c)
	}
	return s
}

// Single returns the singleton set {col}.
func Single(col int) Set {
	return New(col)
}

// Full returns the set {0, 1, ..., n-1}.
func Full(n int) Set {
	var s Set
	if n < 0 || n > MaxColumns {
		panic(fmt.Sprintf("bitset: column count %d out of range", n))
	}
	for i := 0; i < n/64; i++ {
		s.w[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		s.w[n/64] = (uint64(1) << r) - 1
	}
	return s
}

// With returns s ∪ {col}.
func (s Set) With(col int) Set {
	if uint(col) >= MaxColumns {
		panic(rangeError(col))
	}
	s.w[uint(col)/64] |= 1 << (uint(col) % 64)
	return s
}

// Without returns s \ {col}.
func (s Set) Without(col int) Set {
	if uint(col) >= MaxColumns {
		panic(rangeError(col))
	}
	s.w[uint(col)/64] &^= 1 << (uint(col) % 64)
	return s
}

// Has reports whether col ∈ s.
func (s Set) Has(col int) bool {
	if uint(col) >= MaxColumns {
		panic(rangeError(col))
	}
	return s.w[uint(col)/64]&(1<<(uint(col)%64)) != 0
}

// rangeError is the panic value for a column index beyond MaxColumns. A
// typed value keeps the range check of With, Without and Has cheap enough for
// the compiler to inline them.
type rangeError int

func (e rangeError) Error() string {
	return fmt.Sprintf("bitset: column %d out of range [0,%d)", int(e), MaxColumns)
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	for i := range s.w {
		s.w[i] |= t.w[i]
	}
	return s
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	for i := range s.w {
		s.w[i] &= t.w[i]
	}
	return s
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	for i := range s.w {
		s.w[i] &^= t.w[i]
	}
	return s
}

// IsEmpty reports whether s has no columns.
func (s Set) IsEmpty() bool {
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Hash returns a 64-bit hash of s: per word, a multiply by an odd constant
// and an xorshift that folds the high product bits back into the low ones,
// so that the low bits depend on every column. The sharded PLI cache picks
// a shard by the low bits; it is not a cryptographic hash.
func (s Set) Hash() uint64 {
	const mult = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
	var h uint64
	for _, w := range s.w {
		h = (h ^ w) * mult
		h ^= h >> 32
	}
	return h
}

// Len returns |s|.
func (s Set) Len() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsSubsetOf reports whether s ⊆ t.
func (s Set) IsSubsetOf(t Set) bool {
	for i := range s.w {
		if s.w[i]&^t.w[i] != 0 {
			return false
		}
	}
	return true
}

// IsProperSubsetOf reports whether s ⊂ t.
func (s Set) IsProperSubsetOf(t Set) bool {
	return s != t && s.IsSubsetOf(t)
}

// IsSupersetOf reports whether s ⊇ t.
func (s Set) IsSupersetOf(t Set) bool {
	return t.IsSubsetOf(s)
}

// First returns the smallest column in s, or -1 if s is empty.
func (s Set) First() int {
	for i, w := range s.w {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Last returns the largest column in s, or -1 if s is empty.
func (s Set) Last() int {
	for i := words - 1; i >= 0; i-- {
		if w := s.w[i]; w != 0 {
			return i*64 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// NextAfter returns the smallest column in s greater than col, or -1.
func (s Set) NextAfter(col int) int {
	start := uint(max(col+1, 0))
	if start >= MaxColumns {
		return -1
	}
	if w := s.w[start/64] >> (start % 64); w != 0 {
		return int(start) + bits.TrailingZeros64(w)
	}
	for i := start/64 + 1; i < words; i++ {
		if s.w[i] != 0 {
			return int(i)*64 + bits.TrailingZeros64(s.w[i])
		}
	}
	return -1
}

// Columns returns the columns of s in ascending order.
func (s Set) Columns() []int {
	cols := make([]int, 0, s.Len())
	for c := s.First(); c >= 0; c = s.NextAfter(c) {
		cols = append(cols, c)
	}
	return cols
}

// ForEach calls fn for every column of s in ascending order.
func (s Set) ForEach(fn func(col int)) {
	for c := s.First(); c >= 0; c = s.NextAfter(c) {
		fn(c)
	}
}

// DirectSubsets returns all sets s \ {c} for c ∈ s, i.e. the direct
// (one-smaller) subsets in the attribute lattice, in ascending column order.
func (s Set) DirectSubsets() []Set {
	subs := make([]Set, 0, s.Len())
	s.ForEach(func(c int) {
		subs = append(subs, s.Without(c))
	})
	return subs
}

// SubsetsOfSize enumerates all subsets of s with exactly k columns.
func (s Set) SubsetsOfSize(k int, fn func(sub Set) bool) {
	cols := s.Columns()
	n := len(cols)
	if k < 0 || k > n {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		var sub Set
		for _, i := range idx {
			sub = sub.With(cols[i])
		}
		if !fn(sub) {
			return
		}
		// next combination
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// String formats the set as column letters for up to 26 columns (matching the
// paper's examples, e.g. "AFG") and as {i,j,...} otherwise. The empty set is
// "∅".
func (s Set) String() string {
	if s.IsEmpty() {
		return "∅"
	}
	cols := s.Columns()
	if cols[len(cols)-1] < 26 {
		var b strings.Builder
		for _, c := range cols {
			b.WriteByte(byte('A' + c))
		}
		return b.String()
	}
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprint(c)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// FromLetters parses a paper-style letter combination such as "AFG" into a
// set (A=0, B=1, ...). It is the inverse of String for small sets and exists
// for tests and examples that mirror the paper's notation.
func FromLetters(letters string) Set {
	var s Set
	for _, r := range letters {
		switch {
		case r >= 'A' && r <= 'Z':
			s = s.With(int(r - 'A'))
		case r >= 'a' && r <= 'z':
			s = s.With(int(r - 'a'))
		default:
			panic(fmt.Sprintf("bitset: invalid column letter %q", r))
		}
	}
	return s
}

// Sort orders a slice of sets by cardinality first and lexicographic column
// order second. It gives deterministic output ordering across algorithms,
// which the result comparisons and golden tests rely on.
func Sort(sets []Set) {
	slices.SortFunc(sets, Compare)
}

// Less is the ordering used by Sort.
func Less(a, b Set) bool {
	return Compare(a, b) < 0
}

// Compare is the three-way form of Less, for slices.SortFunc and
// slices.BinarySearchFunc over sorted sets. It orders by cardinality, then
// lexicographically by ascending column sequence. For sets of equal size, the lowest column in exactly one of them
// decides: below it both sets agree, and the set holding it continues its
// sequence with that column while the other continues with a larger one.
func Compare(a, b Set) int {
	if c := cmp.Compare(a.Len(), b.Len()); c != 0 {
		return c
	}
	for i := range a.w {
		if d := a.w[i] ^ b.w[i]; d != 0 {
			if a.w[i]&(d&-d) != 0 {
				return -1
			}
			return 1
		}
	}
	return 0
}
