package core

import (
	"holistic/internal/relation"
)

// Source supplies the input relation of a profiling run. Load is called once
// per algorithm that needs the data, so the sequential baseline — which runs
// three independent algorithms — pays the input cost three times, exactly
// the I/O duplication the holistic algorithms eliminate (paper Sec. 3).
type Source interface {
	// Name identifies the dataset.
	Name() string
	// Load parses/encodes the input and returns a fresh relation.
	Load() (*relation.Relation, error)
}

// RelationSource wraps an already-loaded relation; Load re-encodes it from
// its rows to simulate an input pass, so baseline-vs-holistic comparisons on
// in-memory data still reflect shared-I/O savings.
type RelationSource struct {
	Rel *relation.Relation
}

// Name implements Source.
func (s RelationSource) Name() string { return s.Rel.Name() }

// Load implements Source by re-encoding the relation.
func (s RelationSource) Load() (*relation.Relation, error) {
	return relation.New(s.Rel.Name(), s.Rel.ColumnNames(), s.Rel.Rows())
}

// MemoSource caches the first Load of an inner Source so that callers who
// need the relation again after a run (result reporting, statistics) do not
// pay a second parse/encode pass. It deliberately breaks the "fresh relation
// per Load" contract the sequential baseline relies on — the engine hands
// strategies the already-loaded relation and the baseline re-encodes via
// RelationSource internally, so memoisation is safe at the engine boundary.
// Not safe for concurrent use.
type MemoSource struct {
	Src Source
	rel *relation.Relation
}

// Name implements Source.
func (m *MemoSource) Name() string { return m.Src.Name() }

// Load implements Source, delegating once and replaying the outcome. Only a
// successful load is memoised: a failed one (an I/O or parse error) is not
// kept, and the next call loads again.
func (m *MemoSource) Load() (*relation.Relation, error) {
	if m.rel != nil {
		return m.rel, nil
	}
	rel, err := m.Src.Load()
	if err != nil {
		return nil, err
	}
	m.rel = rel
	return m.rel, nil
}

// Relation returns the memoised relation (nil before the first successful
// Load).
func (m *MemoSource) Relation() *relation.Relation { return m.rel }

// CSVSource loads a relation from a CSV file on every call.
type CSVSource struct {
	Path    string
	Options relation.CSVOptions
}

// Name implements Source.
func (s CSVSource) Name() string { return s.Path }

// Load implements Source.
func (s CSVSource) Load() (*relation.Relation, error) {
	return relation.ReadCSVFile(s.Path, s.Options)
}
