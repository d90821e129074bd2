package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"holistic/internal/core"
	"holistic/internal/ind"
	"holistic/internal/relation"
)

// jobRequest is the JSON body of POST /v1/jobs. Exactly one of CSV or Path
// supplies the dataset; all other fields are optional.
type jobRequest struct {
	// CSV is the dataset inlined as CSV text.
	CSV string `json:"csv,omitempty"`
	// Path names a CSV file under the server's data directory (rejected
	// when the server runs without one).
	Path string `json:"path,omitempty"`
	// Dataset overrides the display name (defaults to the path, or
	// "inline" for inline CSV).
	Dataset string `json:"dataset,omitempty"`
	// Algorithm is a strategy name from the engine registry (default muds).
	Algorithm string `json:"algorithm,omitempty"`
	// IdempotencyKey deduplicates retried submissions: two submissions
	// carrying the same key map onto one job — same ID, same event stream —
	// so a client retrying after a 503 or a dropped connection cannot
	// double-submit work. Also settable via the Idempotency-Key header
	// (the header wins when both are present). Journaled with the
	// admission, so dedup survives a crash.
	IdempotencyKey string `json:"idempotency_key,omitempty"`

	// CSV parsing options.
	HasHeader     *bool  `json:"has_header,omitempty"` // default true
	Separator     string `json:"separator,omitempty"`  // default ","
	MaxRows       int    `json:"max_rows,omitempty"`
	DistinctNulls bool   `json:"distinct_nulls,omitempty"`

	// Profiling options. Seed, Workers, CacheEntries and MaxCacheBytes do
	// not change the discovered dependencies (the engine guarantees seed-,
	// worker- and budget-independence), so they are excluded from the
	// result-cache key.
	Seed         int64 `json:"seed,omitempty"`
	Workers      int   `json:"workers,omitempty"`
	CacheEntries int   `json:"cache_entries,omitempty"`
	// MaxCacheBytes budgets the job's PLI cache (0 = server default,
	// -1 = unbudgeted); see core.Options.MaxCacheBytes.
	MaxCacheBytes  int64   `json:"max_cache_bytes,omitempty"`
	WithStats      bool    `json:"with_stats,omitempty"`
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// cacheKey identifies a profiling result in the content-addressed cache: the
// dataset bytes (by SHA-256) plus every result-affecting option. Seed,
// workers and cache sizing are deliberately absent — they affect wall time,
// not output.
type cacheKey struct {
	DatasetSHA256 string
	Algorithm     string
	HasHeader     bool
	Separator     string
	MaxRows       int
	DistinctNulls bool
	WithStats     bool
}

// requestError is a client-side validation failure (HTTP 400).
type requestError struct{ msg string }

func (e requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return requestError{msg: fmt.Sprintf(format, args...)}
}

// maxIdempotencyKeyLen bounds client-supplied idempotency keys: the keys
// are journaled with every admission, so an unbounded one is a WAL-bloat
// vector.
const maxIdempotencyKeyLen = 256

// normalize validates r, applies defaults, resolves the dataset bytes (from
// inline CSV or a file under dataDir), and returns the content-addressed
// cache key, a memoised engine source over the bytes, and the dataset size
// in bytes (the memory governor's large-submission gate keys off it).
func (r *jobRequest) normalize(dataDir string) (cacheKey, *core.MemoSource, int64, error) {
	var key cacheKey

	if r.Algorithm == "" {
		r.Algorithm = core.StrategyMuds
	}
	if _, ok := core.Lookup(r.Algorithm); !ok {
		return key, nil, 0, badRequest("unknown algorithm %q (want one of %s)",
			r.Algorithm, strings.Join(core.Strategies(), "|"))
	}
	if r.Separator == "" {
		r.Separator = ","
	}
	if len(r.Separator) != 1 {
		return key, nil, 0, badRequest("separator must be a single character")
	}
	if r.MaxRows < 0 {
		return key, nil, 0, badRequest("max_rows must be >= 0")
	}
	if r.TimeoutSeconds < 0 {
		return key, nil, 0, badRequest("timeout_seconds must be >= 0")
	}
	if r.MaxCacheBytes < -1 {
		return key, nil, 0, badRequest("max_cache_bytes must be >= -1 (-1 disables the budget)")
	}
	if len(r.IdempotencyKey) > maxIdempotencyKeyLen {
		return key, nil, 0, badRequest("idempotency_key must be at most %d bytes", maxIdempotencyKeyLen)
	}
	hasHeader := true
	if r.HasHeader != nil {
		hasHeader = *r.HasHeader
	}

	var data []byte
	switch {
	case r.CSV != "" && r.Path != "":
		return key, nil, 0, badRequest("csv and path are mutually exclusive")
	case r.CSV != "":
		data = []byte(r.CSV)
		if r.Dataset == "" {
			r.Dataset = "inline"
		}
	case r.Path != "":
		if dataDir == "" {
			return key, nil, 0, badRequest("path submissions are disabled (server has no data directory)")
		}
		resolved, err := resolveDataPath(dataDir, r.Path)
		if err != nil {
			return key, nil, 0, err
		}
		data, err = os.ReadFile(resolved)
		if err != nil {
			return key, nil, 0, badRequest("read dataset: %v", err)
		}
		if r.Dataset == "" {
			r.Dataset = r.Path
		}
	default:
		return key, nil, 0, badRequest("one of csv or path is required")
	}

	sum := sha256.Sum256(data)
	key = cacheKey{
		DatasetSHA256: hex.EncodeToString(sum[:]),
		Algorithm:     r.Algorithm,
		HasHeader:     hasHeader,
		Separator:     r.Separator,
		MaxRows:       r.MaxRows,
		DistinctNulls: r.DistinctNulls,
		WithStats:     r.WithStats,
	}
	src := &core.MemoSource{Src: bytesSource{
		name: r.Dataset,
		data: data,
		opts: relation.CSVOptions{
			Comma:     rune(r.Separator[0]),
			HasHeader: hasHeader,
			MaxRows:   r.MaxRows,
			Relation:  relation.Options{DistinctNulls: r.DistinctNulls, Workers: r.Workers},
		},
	}}
	return key, src, int64(len(data)), nil
}

// options builds the engine options of the request.
func (r *jobRequest) options() core.Options {
	return core.Options{
		Seed:          r.Seed,
		Workers:       r.Workers,
		CacheEntries:  r.CacheEntries,
		MaxCacheBytes: r.MaxCacheBytes,
		IND:           ind.Options{},
	}
}

// resolveDataPath joins rel onto dataDir and rejects escapes ("../", absolute
// paths, symlink-free lexical containment).
func resolveDataPath(dataDir, rel string) (string, error) {
	if filepath.IsAbs(rel) {
		return "", badRequest("path must be relative to the data directory")
	}
	joined := filepath.Join(dataDir, rel)
	clean := filepath.Clean(joined)
	base := filepath.Clean(dataDir)
	if clean != base && !strings.HasPrefix(clean, base+string(filepath.Separator)) {
		return "", badRequest("path escapes the data directory")
	}
	return clean, nil
}

// bytesSource adapts raw CSV bytes to the engine's Source interface; each
// Load parses the bytes afresh (MemoSource on top makes it once).
type bytesSource struct {
	name string
	data []byte
	opts relation.CSVOptions
}

func (s bytesSource) Name() string { return s.name }

func (s bytesSource) Load() (*relation.Relation, error) {
	return relation.ReadCSV(s.name, bytes.NewReader(s.data), s.opts)
}
