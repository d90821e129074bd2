// Package relation provides the shared input substrate for all profiling
// algorithms: a column-oriented, dictionary-encoded relation with duplicate
// rows removed.
//
// Reading the data once and sharing the encoded columns across SPIDER, DUCC
// and the FD algorithms is the "shared I/O" optimisation of the holistic
// approach (paper Sec. 3): the dictionaries double as SPIDER's duplicate-free
// value lists and the encoded columns feed PLI construction.
package relation

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"holistic/internal/bitset"
	"holistic/internal/parallel"
)

// NullValue is the string that represents SQL NULL in the input. Empty CSV
// fields are mapped to it. For UCC and FD discovery NULL compares equal to
// itself (the convention of TANE, FUN and DUCC); SPIDER may be configured to
// ignore NULLs for IND containment.
const NullValue = ""

// Relation is an immutable, dictionary-encoded relation instance.
//
// Values are stored column-wise as int32 dictionary codes; the dictionary of
// each column maps codes back to the original strings. Duplicate rows are
// removed at construction time, as required by the holistic pruning rules
// (paper Sec. 3: a relation with duplicate rows has no UCC at all).
type Relation struct {
	name    string
	colName []string
	cols    [][]int32  // cols[c][r] = dictionary code of row r in column c
	dicts   [][]string // dicts[c][code] = original value
	nullID  []int32    // dictionary code of NullValue per column, -1 if absent
	opts    Options

	dupRemoved int // number of duplicate rows dropped during construction

	sortOnce   sync.Once  // guards the one-shot parallel sortedVals build
	sortedVals [][]string // sorted distinct values per column (see sortOnce)

	// Append state, built lazily on the first Append or Lookup call: the
	// per-column value→code maps discarded after construction and the
	// encoded-row duplicate filter. Both are maintained incrementally by
	// Append afterwards. Guarded by the Append exclusivity contract, not by
	// locks.
	lookup []map[string]int32
	rowSet map[string]struct{}
}

// AppendDelta describes the effect of one Append call: the number of
// non-duplicate rows actually added, and the per-column dictionary sizes
// before the append. A column c grew new distinct values iff
// Cardinality(c) > OldCard[c]; its new codes are exactly
// [OldCard[c], Cardinality(c)).
type AppendDelta struct {
	Appended int
	OldCard  []int
}

// Options configures relation construction.
type Options struct {
	// DistinctNulls makes every NULL compare unequal to every other NULL
	// (SQL semantics): each empty field receives a fresh dictionary code, so
	// the dependency algorithms treat NULL-bearing rows as pairwise
	// distinct. The default (NULL = NULL) matches the convention of TANE,
	// FUN and DUCC that the paper's evaluation uses.
	DistinctNulls bool
	// Workers bounds the goroutines used for per-column dictionary encoding
	// and sorted-value-list construction (<= 0 selects GOMAXPROCS). The
	// encoded relation is identical for every worker count: each column is
	// one indexed task, and duplicate-row removal stays sequential.
	Workers int
}

// New builds a Relation from row-major string data. columnNames supplies the
// schema; every row must have exactly len(columnNames) fields. Duplicate rows
// are removed (first occurrence kept).
func New(name string, columnNames []string, rows [][]string) (*Relation, error) {
	return NewWithOptions(name, columnNames, rows, Options{})
}

// NewWithOptions builds a Relation with explicit NULL semantics.
//
// Construction is parallel across columns: dictionary encoding of each column
// is an independent indexed task (codes are assigned in row order per column,
// so the dictionaries are identical to a sequential build), duplicate-row
// detection runs sequentially on the encoded rows, and the surviving rows are
// compacted per column in parallel again. Options.Workers bounds the pool.
func NewWithOptions(name string, columnNames []string, rows [][]string, opts Options) (*Relation, error) {
	n := len(columnNames)
	if n == 0 {
		return nil, fmt.Errorf("relation %q: no columns", name)
	}
	if n > bitset.MaxColumns {
		return nil, fmt.Errorf("relation %q: %d columns exceeds the supported maximum of %d", name, n, bitset.MaxColumns)
	}
	r := &Relation{
		name:    name,
		colName: append([]string(nil), columnNames...),
		cols:    make([][]int32, n),
		dicts:   make([][]string, n),
		nullID:  make([]int32, n),
		opts:    opts,
	}
	for c := range r.nullID {
		r.nullID[c] = -1
	}
	for i, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("relation %q: row %d has %d fields, want %d", name, i, len(row), n)
		}
	}

	// Dictionary-encode every column concurrently. Duplicate rows are still
	// present here; they assign no extra codes (their values were seen
	// before), except under DistinctNulls where every NULL is fresh by
	// design — exactly as in a sequential row-major pass.
	workers := parallel.Workers(opts.Workers)
	encoded := make([][]int32, n)
	parallel.For(context.Background(), workers, n, func(c int) {
		codes := make(map[string]int32)
		col := make([]int32, len(rows))
		for i, row := range rows {
			v := row[c]
			if opts.DistinctNulls && v == NullValue {
				// SQL semantics: every NULL is its own value. The fresh
				// code never enters the lookup map, so no later NULL can
				// reuse it; all these codes decode to the empty string.
				code := int32(len(r.dicts[c]))
				r.dicts[c] = append(r.dicts[c], v)
				if r.nullID[c] < 0 {
					r.nullID[c] = code
				}
				col[i] = code
				continue
			}
			code, ok := codes[v]
			if !ok {
				code = int32(len(r.dicts[c]))
				codes[v] = code
				r.dicts[c] = append(r.dicts[c], v)
				if v == NullValue {
					r.nullID[c] = code
				}
			}
			col[i] = code
		}
		encoded[c] = col
	})

	// Sequential duplicate-row removal on the encoded rows (first occurrence
	// kept; order-dependent, so not parallelized).
	seen := make(map[string]struct{}, len(rows))
	keep := make([]bool, len(rows))
	kept := 0
	rowKey := make([]byte, 4*n)
	for i := range rows {
		for c := 0; c < n; c++ {
			binary.LittleEndian.PutUint32(rowKey[4*c:], uint32(encoded[c][i]))
		}
		key := string(rowKey)
		if _, dup := seen[key]; dup {
			r.dupRemoved++
			continue
		}
		seen[key] = struct{}{}
		keep[i] = true
		kept++
	}

	if r.dupRemoved == 0 {
		r.cols = encoded
		return r, nil
	}
	// Compact the surviving rows per column, in parallel again.
	parallel.For(context.Background(), workers, n, func(c int) {
		col := make([]int32, 0, kept)
		for i, k := range keep {
			if k {
				col = append(col, encoded[c][i])
			}
		}
		r.cols[c] = col
	})
	return r, nil
}

// DistinctNulls reports whether the relation was built with SQL-style
// NULL ≠ NULL semantics (Options.DistinctNulls). Incremental consumers need
// it to pick NULL-compatible maintenance paths.
func (r *Relation) DistinctNulls() bool { return r.opts.DistinctNulls }

// HasNulls reports whether any column contains at least one NULL value.
func (r *Relation) HasNulls() bool {
	for _, id := range r.nullID {
		if id >= 0 {
			return true
		}
	}
	return false
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// NumColumns returns the number of columns.
func (r *Relation) NumColumns() int { return len(r.cols) }

// NumRows returns the number of rows after duplicate removal.
func (r *Relation) NumRows() int {
	if len(r.cols) == 0 {
		return 0
	}
	return len(r.cols[0])
}

// DuplicatesRemoved returns how many duplicate input rows were dropped.
func (r *Relation) DuplicatesRemoved() int { return r.dupRemoved }

// ColumnNames returns the schema (not a copy; callers must not modify it).
func (r *Relation) ColumnNames() []string { return r.colName }

// ColumnName returns the name of column c.
func (r *Relation) ColumnName(c int) string { return r.colName[c] }

// AllColumns returns the set {0..NumColumns-1}.
func (r *Relation) AllColumns() bitset.Set { return bitset.Full(r.NumColumns()) }

// Column returns the dictionary codes of column c (not a copy).
func (r *Relation) Column(c int) []int32 { return r.cols[c] }

// Cardinality returns the number of distinct values in column c.
func (r *Relation) Cardinality(c int) int { return len(r.dicts[c]) }

// MaxCardinality returns the largest per-column cardinality, i.e. the widest
// dictionary. PLI construction sizes its grouping arenas with it: a scratch
// arena covering [0, MaxCardinality) fits the code range of every column, so
// the flat column→PLI build allocates its arena once per worker instead of
// regrowing per column.
func (r *Relation) MaxCardinality() int {
	max := 0
	for c := range r.cols {
		if card := r.Cardinality(c); card > max {
			max = card
		}
	}
	return max
}

// Value returns the original string value at (row, col).
func (r *Relation) Value(row, col int) string {
	return r.dicts[col][r.cols[col][row]]
}

// DistinctValues returns the distinct values of column c in dictionary
// (first-occurrence) order. The slice is shared; callers must not modify it.
func (r *Relation) DistinctValues(c int) []string { return r.dicts[c] }

// SortedDistinctValues returns the distinct values of column c in ascending
// string order. This is SPIDER's duplicate-free sorted value list (paper
// Sec. 2.1). The first call builds the lists of every column — each column
// sorted by its own worker (SPIDER's "sorting phase", Options.Workers wide)
// — and caches them; the build is guarded by a sync.Once, so concurrent
// callers are safe and later calls are lookups.
func (r *Relation) SortedDistinctValues(c int) []string {
	r.EnsureSortedValues()
	return r.sortedVals[c]
}

// EnsureSortedValues builds the sorted duplicate-free value lists of all
// columns in parallel (idempotent; safe for concurrent use). SPIDER calls it
// up front so its sorting phase is parallel instead of lazily per column.
func (r *Relation) EnsureSortedValues() {
	r.sortOnce.Do(func() {
		sorted := make([][]string, len(r.cols))
		parallel.For(context.Background(), parallel.Workers(r.opts.Workers), len(r.cols), func(c int) {
			vals := append([]string(nil), r.dicts[c]...)
			sort.Strings(vals)
			sorted[c] = vals
		})
		r.sortedVals = sorted
	})
}

// Row materialises row i as strings (a fresh slice).
func (r *Relation) Row(i int) []string {
	row := make([]string, len(r.cols))
	for c := range r.cols {
		row[c] = r.dicts[c][r.cols[c][i]]
	}
	return row
}

// Rows materialises the whole relation row-major (for writers and tests).
func (r *Relation) Rows() [][]string {
	rows := make([][]string, r.NumRows())
	for i := range rows {
		rows[i] = r.Row(i)
	}
	return rows
}

// ensureAppendState rebuilds the per-column value→code maps and the
// encoded-row duplicate filter that construction discards. It runs once (the
// first Append or Lookup pays O(rows × cols)); Append maintains both
// incrementally afterwards. Callers hold the Append exclusivity contract.
func (r *Relation) ensureAppendState() {
	if r.lookup != nil {
		return
	}
	n := r.NumColumns()
	lookup := make([]map[string]int32, n)
	for c := range lookup {
		m := make(map[string]int32, len(r.dicts[c]))
		for code, v := range r.dicts[c] {
			if r.opts.DistinctNulls && v == NullValue {
				// Fresh-per-occurrence NULL codes never enter the map, so no
				// appended NULL can reuse them (mirrors construction).
				continue
			}
			m[v] = int32(code)
		}
		lookup[c] = m
	}
	rowSet := make(map[string]struct{}, r.NumRows())
	rowKey := make([]byte, 4*n)
	for i, rows := 0, r.NumRows(); i < rows; i++ {
		for c := 0; c < n; c++ {
			binary.LittleEndian.PutUint32(rowKey[4*c:], uint32(r.cols[c][i]))
		}
		rowSet[string(rowKey)] = struct{}{}
	}
	r.lookup = lookup
	r.rowSet = rowSet
}

// Lookup returns the dictionary code of value v in column c, if present.
// Under DistinctNulls the NULL value is never found here: every NULL field
// has a code of its own.
// Lookup shares the Append exclusivity contract: it must not race with
// Append (it may lazily build the append state).
func (r *Relation) Lookup(c int, v string) (int32, bool) {
	r.ensureAppendState()
	code, ok := r.lookup[c][v]
	return code, ok
}

// Append extends the relation with the given rows in place: per-column
// dictionaries grow for unseen values, code vectors are extended, and rows
// that duplicate an existing or earlier-appended row are dropped — the
// resulting relation is identical to one constructed from the concatenated
// row data. If the sorted distinct-value lists have already been built, the
// lists of grown columns are merged in place (ungrowing columns keep their
// lists untouched), so SPIDER-style consumers stay consistent.
//
// Append is an exclusive operation: it must not run concurrently with any
// other method of the relation or of structures derived from it (PLIs,
// providers). The returned delta describes the append for downstream
// incremental maintenance.
func (r *Relation) Append(rows [][]string) (AppendDelta, error) {
	n := r.NumColumns()
	for i, row := range rows {
		if len(row) != n {
			return AppendDelta{}, fmt.Errorf("relation %q: appended row %d has %d fields, want %d", r.name, i, len(row), n)
		}
	}
	r.ensureAppendState()
	delta := AppendDelta{OldCard: make([]int, n)}
	for c := 0; c < n; c++ {
		delta.OldCard[c] = len(r.dicts[c])
	}
	codes := make([]int32, n)
	rowKey := make([]byte, 4*n)
	for _, row := range rows {
		// Encode first, dedup second: a duplicate row assigns no new codes
		// (all its values were seen before), so encoding it mutates nothing.
		// Under DistinctNulls every NULL gets a fresh code, which makes any
		// NULL-bearing row non-duplicate by construction — exactly the
		// semantics of a from-scratch build on the concatenated data.
		for c := 0; c < n; c++ {
			v := row[c]
			if r.opts.DistinctNulls && v == NullValue {
				code := int32(len(r.dicts[c]))
				r.dicts[c] = append(r.dicts[c], v)
				if r.nullID[c] < 0 {
					r.nullID[c] = code
				}
				codes[c] = code
				continue
			}
			code, ok := r.lookup[c][v]
			if !ok {
				code = int32(len(r.dicts[c]))
				r.lookup[c][v] = code
				r.dicts[c] = append(r.dicts[c], v)
				if v == NullValue {
					r.nullID[c] = code
				}
			}
			codes[c] = code
		}
		for c := 0; c < n; c++ {
			binary.LittleEndian.PutUint32(rowKey[4*c:], uint32(codes[c]))
		}
		key := string(rowKey)
		if _, dup := r.rowSet[key]; dup {
			r.dupRemoved++
			continue
		}
		r.rowSet[key] = struct{}{}
		for c := 0; c < n; c++ {
			r.cols[c] = append(r.cols[c], codes[c])
		}
		delta.Appended++
	}
	if r.sortedVals != nil {
		for c := 0; c < n; c++ {
			if len(r.dicts[c]) > delta.OldCard[c] {
				r.sortedVals[c] = mergeSorted(r.sortedVals[c], r.dicts[c][delta.OldCard[c]:])
			}
		}
	}
	return delta, nil
}

// mergeSorted merges the unsorted tail of newly appended distinct values into
// an already sorted list, returning a fresh sorted slice.
func mergeSorted(sorted, added []string) []string {
	tail := append([]string(nil), added...)
	sort.Strings(tail)
	out := make([]string, 0, len(sorted)+len(tail))
	i, j := 0, 0
	for i < len(sorted) && j < len(tail) {
		if sorted[i] <= tail[j] {
			out = append(out, sorted[i])
			i++
		} else {
			out = append(out, tail[j])
			j++
		}
	}
	out = append(out, sorted[i:]...)
	out = append(out, tail[j:]...)
	return out
}
