// Package incremental maintains a profiling result under appended row
// batches: instead of re-running discovery from scratch after every append,
// it folds the batch into the relation's dictionaries and code vectors,
// builds the batch's single-column PLIs, re-validates the previously
// discovered metadata with the cheap check kernels, and restarts the lattice
// walks only inside the region the batch invalidated.
//
// The repair strategy rests on how each metadata kind behaves under appends:
//
//   - UCCs/FDs are only ever *violated* by new rows, never created (a
//     non-unique combination stays non-unique, two rows violating X → A keep
//     violating it). Prior negative certificates therefore remain sound, and
//     when no prior minimal dependency is violated, the prior family is
//     provably still complete — the walk is skipped entirely.
//   - Unary INDs are not monotone (new referenced-side values can repair a
//     previously invalid IND), so they are maintained exactly via a
//     missing-value count matrix (see ind.MissingMatrix) whose per-batch
//     update cost is proportional to the batch's novelty.
package incremental

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"holistic/internal/bitset"
	"holistic/internal/core"
	"holistic/internal/durable"
	"holistic/internal/fd"
	"holistic/internal/ind"
	"holistic/internal/relation"
)

// SnapshotFD is the serialized form of one minimal FD.
type SnapshotFD struct {
	LHS []int `json:"lhs"`
	RHS int   `json:"rhs"`
}

// SnapshotIND is the serialized form of one unary IND.
type SnapshotIND struct {
	Dependent  int `json:"dependent"`
	Referenced int `json:"referenced"`
}

// Snapshot is the persistent state of an incremental profiling session: the
// complete metadata of the profiled prefix plus enough fingerprint to verify
// that a later session resumes against the same relation. It is the unit the
// CLI's -snapshot flag reads and writes and the profiling service keeps per
// dataset.
type Snapshot struct {
	// Version counts the applied batches: 0 right after the initial full
	// profile, +1 per appended batch.
	Version int `json:"version"`
	// Algorithm is the registry name of the strategy that produced (and whose
	// output contract the snapshot maintains — e.g. "tane" has no INDs/UCCs).
	Algorithm string `json:"algorithm"`
	// Relation fingerprint: name, schema, de-duplicated row count and NULL
	// semantics of the profiled prefix.
	Relation      string   `json:"relation"`
	Columns       []string `json:"columns"`
	Rows          int      `json:"rows"`
	DistinctNulls bool     `json:"distinct_nulls,omitempty"`
	IgnoreNulls   bool     `json:"ignore_nulls,omitempty"`
	// Metadata family presence. A strategy that does not discover a family
	// (TANE: FDs only) leaves its flag false; the maintained result then
	// omits that family too, keeping incremental and from-scratch runs
	// comparable.
	HasINDs bool `json:"has_inds"`
	HasUCCs bool `json:"has_uccs"`
	HasFDs  bool `json:"has_fds"`
	// The metadata itself.
	INDs []SnapshotIND `json:"inds,omitempty"`
	UCCs [][]int       `json:"uccs,omitempty"`
	FDs  []SnapshotFD  `json:"fds,omitempty"`
	// Missing is the IND maintenance matrix. It is nil when INDs are not
	// maintained or when the relation's NULL semantics force the SPIDER
	// fallback (DistinctNulls with NULLs present).
	Missing *ind.MissingMatrix `json:"missing,omitempty"`
	// Checksum is the CRC32C (hex) of the snapshot's compact JSON encoding
	// with this field empty. Write computes it; Resume verifies it, so a
	// half-written or bit-rotted snapshot file is rejected as corrupt
	// instead of resuming from damaged metadata. Empty means unchecked
	// (snapshots written before the field existed).
	Checksum string `json:"checksum,omitempty"`
}

// ErrCorruptSnapshot reports a snapshot whose stored checksum does not match
// its content — file damage, distinct from a fingerprint mismatch (which
// means the snapshot is intact but belongs to different data).
var ErrCorruptSnapshot = errors.New("incremental: corrupt snapshot (checksum mismatch)")

// checksum computes the snapshot's content checksum: CRC32C over the compact
// JSON encoding with the Checksum field cleared. encoding/json emits struct
// fields in declaration order and sorts map keys, so the encoding — and the
// checksum — is deterministic across processes.
func (s *Snapshot) checksum() (string, error) {
	c := *s
	c.Checksum = ""
	data, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("snapshot: encode for checksum: %w", err)
	}
	return fmt.Sprintf("%08x", crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))), nil
}

// VerifyChecksum checks the stored checksum against the content. Snapshots
// without one (pre-checksum files) pass; a mismatch returns an error
// wrapping ErrCorruptSnapshot.
func (s *Snapshot) VerifyChecksum() error {
	if s.Checksum == "" {
		return nil
	}
	want, err := s.checksum()
	if err != nil {
		return err
	}
	if s.Checksum != want {
		return fmt.Errorf("%w: stored %s, computed %s", ErrCorruptSnapshot, s.Checksum, want)
	}
	return nil
}

// Validate checks the snapshot against a loaded relation: same schema, same
// de-duplicated row count, same NULL semantics. It guards the CLI resume path
// against profiling state from a different (or since-modified) input.
func (s *Snapshot) Validate(rel *relation.Relation) error {
	if got, want := rel.ColumnNames(), s.Columns; len(got) != len(want) {
		return fmt.Errorf("snapshot: relation has %d columns, snapshot has %d", len(got), len(want))
	}
	for i, name := range rel.ColumnNames() {
		if name != s.Columns[i] {
			return fmt.Errorf("snapshot: column %d is %q, snapshot has %q", i, name, s.Columns[i])
		}
	}
	if rel.NumRows() != s.Rows {
		return fmt.Errorf("snapshot: relation has %d distinct rows, snapshot has %d", rel.NumRows(), s.Rows)
	}
	if rel.DistinctNulls() != s.DistinctNulls {
		return fmt.Errorf("snapshot: distinct-nulls semantics differ (relation %v, snapshot %v)", rel.DistinctNulls(), s.DistinctNulls)
	}
	return nil
}

// ReadSnapshot decodes a snapshot from r.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	return &s, nil
}

// ReadSnapshotFile decodes a snapshot from a file.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// Write encodes the snapshot to w as indented JSON, sealing it with its
// content checksum first.
func (s *Snapshot) Write(w io.Writer) error {
	sum, err := s.checksum()
	if err != nil {
		return err
	}
	s.Checksum = sum
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile encodes the snapshot to a file atomically: a temp file in the
// same directory, fsync, then rename, so a crash (or an encoding failure)
// mid-write can never leave a truncated snapshot behind — the previous file,
// if any, survives intact and the temp file is cleaned up on error.
func (s *Snapshot) WriteFile(path string) error {
	return durable.AtomicWriteFile(path, func(f *os.File) error {
		return s.Write(f)
	})
}

// encode/decode helpers between the engine's in-memory types and the
// serialized forms.

func encodeSets(sets []bitset.Set) [][]int {
	out := make([][]int, len(sets))
	for i, s := range sets {
		cols := s.Columns()
		if cols == nil {
			cols = []int{}
		}
		out[i] = cols
	}
	return out
}

func decodeSets(lists [][]int) []bitset.Set {
	out := make([]bitset.Set, len(lists))
	for i, cols := range lists {
		out[i] = bitset.New(cols...)
	}
	return out
}

func encodeFDs(fds []fd.FD) []SnapshotFD {
	out := make([]SnapshotFD, len(fds))
	for i, f := range fds {
		cols := f.LHS.Columns()
		if cols == nil {
			cols = []int{}
		}
		out[i] = SnapshotFD{LHS: cols, RHS: f.RHS}
	}
	return out
}

func decodeFDs(fds []SnapshotFD) []fd.FD {
	out := make([]fd.FD, len(fds))
	for i, f := range fds {
		out[i] = fd.FD{LHS: bitset.New(f.LHS...), RHS: f.RHS}
	}
	return out
}

func encodeINDs(inds []ind.IND) []SnapshotIND {
	out := make([]SnapshotIND, len(inds))
	for i, d := range inds {
		out[i] = SnapshotIND{Dependent: d.Dependent, Referenced: d.Referenced}
	}
	return out
}

func decodeINDs(inds []SnapshotIND) []ind.IND {
	out := make([]ind.IND, len(inds))
	for i, d := range inds {
		out[i] = ind.IND{Dependent: d.Dependent, Referenced: d.Referenced}
	}
	return out
}

// families reports which metadata families a strategy discovers (and the
// incremental layer therefore maintains). TANE is the only FD-only strategy;
// every other registered strategy emits all three families.
func families(algorithm string) (hasINDs, hasUCCs, hasFDs bool) {
	if algorithm == core.StrategyTane {
		return false, false, true
	}
	return true, true, true
}
