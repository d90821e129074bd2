package pli

import (
	"sync"

	"holistic/internal/bitset"
)

// DefaultCacheEntries bounds the number of cached multi-column PLIs. The
// single-column PLIs are always retained.
const DefaultCacheEntries = 4096

// DefaultCacheBytes is the default byte budget of a budgeted cache: enough
// for the paper's workloads, small enough that a hostile wide relation
// degrades to recomputation instead of OOM-killing the process.
const DefaultCacheBytes = 256 << 20

// CacheStats is a point-in-time snapshot of a Provider's cache behaviour,
// combining the cache's own probe counters with the Provider's intersection
// count. It is the payload of the engine's Observer cache hook and of the
// benchmark harness' cache metrics. It marshals cleanly with encoding/json,
// so per-job cache statistics can ride along in serialized profiling
// results and progress-event streams.
type CacheStats struct {
	// Hits and Misses count cache probes (see Cache).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped by the eviction policy (entry-count
	// pressure and byte-budget shedding both land here).
	Evictions int64 `json:"evictions"`
	// Entries is the current number of cached multi-column PLIs.
	Entries int `json:"entries"`
	// Bytes is the approximate heap held by the cached PLIs.
	Bytes int64 `json:"bytes"`
	// Intersections counts the column intersections the Provider performed —
	// the work the cache exists to avoid.
	Intersections int64 `json:"intersections"`
	// FastChecks counts validation questions (IsUnique, CheckFD, CheckFDs
	// per candidate, ForEachCluster, and ErrorSumWith, the level-wise
	// count of FUN and TANE) answered by the non-materializing check
	// kernels — no intersection PLI was built or cached for them.
	FastChecks int64 `json:"fast_checks"`
	// Materializations counts the PLIs the fast path chose to build and
	// admit to the cache: refuted IsUnique probes (whose survivors fall out
	// of the verdict fold and serve as stepping stones for later probes)
	// plus doorkeeper-gated intermediate promotions on deep plans. It is
	// the admission-controlled complement of FastChecks:
	// FastChecks / (FastChecks + Materializations) is the fast-check hit
	// rate of a validation-dominated run.
	Materializations int64 `json:"materializations"`
}

// Cache is the store behind a Provider's multi-column PLIs. The
// single-column PLIs and the empty-set PLI live in the Provider and are never
// evicted; the cache only sees sets with two or more columns. It is always
// safe for concurrent use.
//
// Entries are spread over a power-of-two number of independently locked
// shards, chosen by bitset.Set.Hash, so workers probing disjoint column
// combinations rarely contend on one mutex and repeated probes of one
// combination always land on the same shard. The entry bound and the byte
// budget are split equally across the shards, so eviction pressure stays
// local to hot shards. Each shard uses a cheap random-replacement policy:
// when its entry bound is reached, roughly half its entries are dropped (map
// iteration order is the random choice); a store that takes it over its byte
// budget sheds other entries first; and a PLI larger than the shard's whole
// budget is never cached at all — the Provider recomputes it on demand,
// trading time for bounded memory.
//
// Hits and misses count probes, one per get: the Provider probes subsets
// while assembling a PLI, so misses exceed the number of distinct sets
// callers requested.
type Cache struct {
	shards []shard
	mask   uint64
}

type shard struct {
	mu         sync.Mutex
	entries    map[bitset.Set]*PLI
	maxEntries int
	maxBytes   int64 // 0 = no byte budget
	bytes      int64

	hits, misses, evictions int64

	// Pad shards apart so two cores probing neighbouring shards do not
	// false-share the mutex and counters.
	_ [64]byte
}

// NewCache builds a Cache with at least shards shards, rounded up to a power
// of two (<= 1 selects one shard). maxEntries bounds the total cached PLIs
// (<= 0 selects DefaultCacheEntries) and maxBytes their approximate heap
// (0 = no byte budget; < 0 selects DefaultCacheBytes).
func NewCache(shards, maxEntries int, maxBytes int64) *Cache {
	n := 1
	for n < shards {
		n <<= 1
	}
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	if maxBytes < 0 {
		maxBytes = DefaultCacheBytes
	}
	perShard := max(maxEntries/n, 1)
	perShardBytes := maxBytes / int64(n)
	if maxBytes > 0 {
		perShardBytes = max(perShardBytes, 1)
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.entries = make(map[bitset.Set]*PLI)
		sh.maxEntries = perShard
		sh.maxBytes = perShardBytes
	}
	return c
}

// shardFor routes s to its shard. A one-shard cache skips the hash.
func (c *Cache) shardFor(s bitset.Set) *shard {
	if c.mask == 0 {
		return &c.shards[0]
	}
	return &c.shards[s.Hash()&c.mask]
}

// get returns the cached PLI of s, if present.
func (c *Cache) get(s bitset.Set) (*PLI, bool) {
	sh := c.shardFor(s)
	sh.mu.Lock()
	pli, ok := sh.entries[s]
	if ok {
		sh.hits++
	} else {
		sh.misses++
	}
	sh.mu.Unlock()
	return pli, ok
}

// put stores the PLI of s, evicting roughly half the shard's entries when
// its entry bound is hit and shedding entries when its byte budget is
// exceeded. The shard's byte ledger adds the PLI's ApproxBytes here and
// subtracts the same value when the entry leaves: cached PLIs are
// immutable, so their size cannot drift in between. (The PLIs a Walk or a
// prefix path overwrites in place are never cached.)
func (c *Cache) put(s bitset.Set, pli *PLI) {
	sz := pli.ApproxBytes()
	sh := c.shardFor(s)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old, replacing := sh.entries[s]
	if sh.maxBytes > 0 && sz > sh.maxBytes {
		// This single PLI would blow the whole budget: never cache it, and
		// drop the entry it would replace. The Provider recomputes it when
		// needed — slower, never OOM.
		if replacing {
			sh.bytes -= old.ApproxBytes()
			delete(sh.entries, s)
		}
		sh.evictions++
		return
	}
	if replacing {
		sh.bytes += sz - old.ApproxBytes()
		sh.entries[s] = pli
		sh.shedOver(s)
		return
	}
	if len(sh.entries) >= sh.maxEntries {
		drop := len(sh.entries) / 2
		for k, v := range sh.entries {
			if drop == 0 {
				break
			}
			sh.bytes -= v.ApproxBytes()
			delete(sh.entries, k)
			sh.evictions++
			drop--
		}
	}
	sh.entries[s] = pli
	sh.bytes += sz
	sh.shedOver(s)
}

// shedOver drops entries (never keep itself) until the byte budget holds
// again. Map iteration order serves as the random replacement choice, as in
// the entry-bound eviction. The shard's mutex must be held.
func (sh *shard) shedOver(keep bitset.Set) {
	if sh.maxBytes <= 0 {
		return
	}
	for k, v := range sh.entries {
		if sh.bytes <= sh.maxBytes {
			return
		}
		if k == keep {
			continue
		}
		sh.bytes -= v.ApproxBytes()
		delete(sh.entries, k)
		sh.evictions++
	}
}

// stats sums the probe counters, entry counts and byte ledgers of all
// shards into the cache fields of a CacheStats.
func (c *Cache) stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.Entries += len(sh.entries)
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	return st
}
