package pli

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"holistic/internal/bitset"
	"holistic/internal/relation"
)

func cacheTestRelation(t *testing.T) *relation.Relation {
	t.Helper()
	rows := [][]string{
		{"a", "1", "x", "p"},
		{"a", "2", "y", "p"},
		{"b", "1", "x", "q"},
		{"b", "2", "y", "q"},
		{"c", "3", "x", "p"},
	}
	r, err := relation.New("cache", []string{"A", "B", "C", "D"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCache runs every cache property over shard counts × byte budgets. The
// entry bound is small in every cell so random replacement always fires; the
// tiny budget (2 KiB, 256 B per shard at 8 shards) makes byte shedding fire
// as well.
func TestCache(t *testing.T) {
	const entries = 16
	budgets := []struct {
		name     string
		maxBytes int64
	}{
		{"unbudgeted", 0},
		{"tiny", 2 << 10},
		{"default", -1},
	}
	for _, shards := range []int{1, 2, 8} {
		for _, b := range budgets {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, b.name), func(t *testing.T) {
				newCache := func() *Cache { return NewCache(shards, entries, b.maxBytes) }
				t.Run("bounds", func(t *testing.T) { checkBounds(t, shards, b.maxBytes) })
				t.Run("evicts", func(t *testing.T) { checkEviction(t, newCache(), entries) })
				t.Run("oversize", func(t *testing.T) { checkOversize(t, newCache()) })
				t.Run("concurrent", func(t *testing.T) { checkConcurrent(t, newCache) })
			})
		}
	}
}

// checkBounds pins how NewCache resolves its arguments: the shard count
// rounds up to a power of two, and the default entry bound and the byte
// budget (< 0 = DefaultCacheBytes, 0 = none) split equally across shards.
func checkBounds(t *testing.T, shards int, maxBytes int64) {
	wantBytes := maxBytes
	if wantBytes < 0 {
		wantBytes = DefaultCacheBytes
	}
	for _, req := range []int{shards, shards + 1} {
		c := NewCache(req, 0, maxBytes)
		n := len(c.shards)
		if n < req || n >= 2*req || n&(n-1) != 0 {
			t.Fatalf("NewCache(%d, …): %d shards, want the next power of two", req, n)
		}
		for i := range c.shards {
			sh := &c.shards[i]
			if sh.maxEntries != DefaultCacheEntries/n || sh.maxBytes != wantBytes/int64(n) {
				t.Fatalf("NewCache(%d, 0, %d) shard %d: %d entries / %d bytes, want %d / %d",
					req, maxBytes, i, sh.maxEntries, sh.maxBytes, DefaultCacheEntries/n, wantBytes/int64(n))
			}
		}
	}
}

// budgetOf returns the total byte budget of c (0 = none) as the sum of its
// per-shard budgets.
func budgetOf(c *Cache) int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].maxBytes
	}
	return total
}

// checkLedger requires every shard's byte ledger to equal the sum of its
// entries' ApproxBytes: put adds a PLI's size and eviction, shedding and
// replacement subtract the size of the PLI that leaves, so an immutable PLI
// leaves the ledger exact.
func checkLedger(t *testing.T, c *Cache) {
	t.Helper()
	for i := range c.shards {
		sh := &c.shards[i]
		var want int64
		for _, q := range sh.entries {
			want += q.ApproxBytes()
		}
		if sh.bytes != want {
			t.Fatalf("shard %d: byte ledger %d, sum of entry ApproxBytes %d", i, sh.bytes, want)
		}
	}
}

// checkEviction fills c with 64 fresh keys: the entry bound must hold, every
// insert must be either resident or counted as evicted, the byte budget must
// hold after every store without shedding the store itself, and the ledger
// must survive replacements with differently sized PLIs.
func checkEviction(t *testing.T, c *Cache, entries int) {
	budget := budgetOf(c)
	const inserts = 64
	for i := 0; i < inserts; i++ {
		key := bitset.New(i%32, 32+i)
		c.put(key, FromAllRows(10+i%5))
		if budget > 0 && c.stats().Bytes > budget {
			t.Fatalf("after put %d: %d bytes cached, budget %d", i, c.stats().Bytes, budget)
		}
		if _, ok := c.get(key); !ok {
			t.Fatalf("put %d was shed by its own store", i)
		}
	}
	st := c.stats()
	if st.Entries > entries || st.Evictions == 0 {
		t.Fatalf("%d entries and %d evictions after %d inserts, want <= %d entries and some evictions",
			st.Entries, st.Evictions, inserts, entries)
	}
	if st.Entries+int(st.Evictions) != inserts {
		t.Fatalf("entries+evictions = %d+%d, want %d inserts", st.Entries, st.Evictions, inserts)
	}
	checkLedger(t, c)
	var resident []bitset.Set
	for i := range c.shards {
		for s := range c.shards[i].entries {
			resident = append(resident, s)
		}
	}
	for i, s := range resident {
		c.put(s, FromAllRows(11+i%3))
	}
	checkLedger(t, c)
	if got := c.stats().Entries; got > len(resident) {
		t.Fatalf("replacing %d resident keys grew the cache to %d entries", len(resident), got)
	}
}

// checkOversize requires a PLI above the byte budget to be refused without
// evicting resident entries, both as a fresh key and as a replacement; an
// unbudgeted cache must keep it. Overflowing a default-budget shard
// (32–256 MiB) would take that much heap, so there checkBounds pins the
// budget instead.
func checkOversize(t *testing.T, c *Cache) {
	small := bitset.New(0, 1)
	c.put(small, FromAllRows(10))
	big := FromAllRows(1000) // ~4 KiB, above the tiny budget
	switch budgetOf(c) {
	case DefaultCacheBytes:
		return
	case 0:
		c.put(bitset.New(2, 3), big)
		if _, ok := c.get(bitset.New(2, 3)); !ok {
			t.Fatal("unbudgeted cache refused a large PLI")
		}
	default:
		before := c.stats()
		c.put(bitset.New(2, 3), big)
		if _, ok := c.get(bitset.New(2, 3)); ok {
			t.Fatal("oversize PLI was cached")
		}
		if _, ok := c.get(small); !ok {
			t.Fatal("refusing the oversize PLI evicted a resident entry")
		}
		if after := c.stats(); after.Entries != before.Entries || after.Evictions != before.Evictions+1 {
			t.Fatalf("refusal: entries %d→%d, evictions %d→%d; want unchanged and +1",
				before.Entries, after.Entries, before.Evictions, after.Evictions)
		}
		c.put(small, big)
		if _, ok := c.get(small); ok {
			t.Fatal("oversize replacement stayed cached")
		}
	}
	checkLedger(t, c)
}

// checkConcurrent shares one cache, and then one Provider over a fresh
// cache, across goroutines while a reader snapshots the stats (as the
// server's per-job stats path does). Under -race this covers the locking of
// every shard count, one shard included. Probe counters must balance
// exactly: every get is a hit or a miss, and every insert is resident or
// evicted.
func checkConcurrent(t *testing.T, newCache func() *Cache) {
	const (
		goroutines = 8
		keysPerG   = 32
		getsPerKey = 3
	)
	c := newCache()
	seed := FromAllRows(3)
	var hits, misses atomic.Int64
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.stats()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keysPerG; i++ {
				key := bitset.New(g, goroutines+i)
				for k := 0; k < getsPerKey; k++ {
					if _, ok := c.get(key); ok {
						hits.Add(1)
					} else {
						misses.Add(1)
					}
				}
				c.put(key, seed)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	st := c.stats()
	if st.Hits != hits.Load() || st.Misses != misses.Load() {
		t.Fatalf("counters %d hits / %d misses, observed %d / %d", st.Hits, st.Misses, hits.Load(), misses.Load())
	}
	if got := st.Entries + int(st.Evictions); got != goroutines*keysPerG {
		t.Fatalf("entries+evictions = %d, want %d inserts", got, goroutines*keysPerG)
	}

	rel := cacheTestRelation(t)
	p := NewProvider(rel, newCache())
	ref := NewProvider(rel, nil)
	var sets []bitset.Set
	for m := 1; m < 1<<rel.NumColumns(); m++ {
		var s bitset.Set
		for col := 0; col < rel.NumColumns(); col++ {
			if m&(1<<col) != 0 {
				s = s.With(col)
			}
		}
		sets = append(sets, s)
	}
	wantCount := make([]int, len(sets))
	for i, s := range sets {
		wantCount[i] = ref.Get(s).DistinctCount()
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*len(sets); i++ {
				k := (i + g) % len(sets)
				s := sets[k]
				if got := p.Get(s).DistinctCount(); got != wantCount[k] {
					t.Errorf("Get(%v).DistinctCount = %d, want %d", s, got, wantCount[k])
					return
				}
				if got := p.IsUnique(s); got != (wantCount[k] == rel.NumRows()) {
					t.Errorf("IsUnique(%v) = %v", s, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// The one-shard tests below pin exact counts of the replacement policy and
// the byte ledger, where TestCache checks invariants only.

func TestMapCacheCounters(t *testing.T) {
	c := NewCache(1, 4, 0)
	s := bitset.New(0, 1)
	if _, ok := c.get(s); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.put(s, FromAllRows(3))
	if _, ok := c.get(s); !ok {
		t.Fatal("expected hit after put")
	}
	if st := c.stats(); st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("counters = %d/%d/%d, want 1/1/0", st.Hits, st.Misses, st.Evictions)
	}
}

func TestMapCacheEviction(t *testing.T) {
	c := NewCache(1, 4, 0)
	for i := 0; i < 4; i++ {
		c.put(bitset.New(i, i+1), FromAllRows(2))
	}
	if got := c.stats().Entries; got != 4 {
		t.Fatalf("Entries = %d, want 4", got)
	}
	// The fifth put drops half the entries before inserting.
	c.put(bitset.New(10, 11), FromAllRows(2))
	if st := c.stats(); st.Entries != 3 || st.Evictions != 2 {
		t.Fatalf("after eviction: %d entries / %d evictions, want 3 / 2", st.Entries, st.Evictions)
	}
}

func TestMapCacheDefaultBound(t *testing.T) {
	if c := NewCache(1, 0, 0); c.shards[0].maxEntries != DefaultCacheEntries {
		t.Fatalf("maxEntries = %d, want %d", c.shards[0].maxEntries, DefaultCacheEntries)
	}
}

// TestMapCacheBudgetDefault checks the sentinel: a negative budget selects
// DefaultCacheBytes, zero disables budgeting.
func TestMapCacheBudgetDefault(t *testing.T) {
	if c := NewCache(1, 0, -1); c.shards[0].maxBytes != DefaultCacheBytes {
		t.Errorf("maxBytes = %d, want DefaultCacheBytes", c.shards[0].maxBytes)
	}
	if c := NewCache(1, 0, 0); c.shards[0].maxBytes != 0 {
		t.Errorf("maxBytes = %d, want 0 (no budget)", c.shards[0].maxBytes)
	}
}

// TestMapCacheBudgetSheds fills a byte-budgeted cache past its budget: the
// ledger never exceeds the budget after a put, shed entries are counted as
// evictions, and the most recent store is retained.
func TestMapCacheBudgetSheds(t *testing.T) {
	// Each FromAllRows(10) PLI costs pliStructBytes+48 bytes (104 on 64-bit
	// platforms); a 300-byte budget holds two.
	c := NewCache(1, 64, 300)
	for i := 0; i < 5; i++ {
		s := bitset.New(i, i+1)
		c.put(s, FromAllRows(10))
		if got := c.stats().Bytes; got > 300 {
			t.Fatalf("after put %d: Bytes = %d, budget is 300", i, got)
		}
		if _, ok := c.get(s); !ok {
			t.Fatalf("put %d was shed immediately despite fitting the budget", i)
		}
	}
	st := c.stats()
	if st.Entries > 2 {
		t.Errorf("Entries = %d, want <= 2 under a two-entry byte budget", st.Entries)
	}
	if st.Evictions < 3 {
		t.Errorf("evictions = %d, want >= 3 (five puts, two slots)", st.Evictions)
	}
}

// TestMapCacheOversizePLINeverCached checks the OOM guard: a single PLI
// larger than the whole budget is refused outright instead of evicting
// everything else to make room that still would not suffice.
func TestMapCacheOversizePLINeverCached(t *testing.T) {
	c := NewCache(1, 64, 200)
	small := bitset.New(0, 1)
	c.put(small, FromAllRows(10)) // pliStructBytes+48 bytes, fits
	c.put(bitset.New(2, 3), FromAllRows(1000))
	if got := c.stats().Entries; got != 1 {
		t.Fatalf("Entries = %d, want 1 (oversize PLI must be refused)", got)
	}
	if _, ok := c.get(small); !ok {
		t.Fatal("refusing the oversize PLI evicted an innocent resident entry")
	}
	if got := c.stats().Evictions; got != 1 {
		t.Errorf("evictions = %d, want 1 (the refused store)", got)
	}
}

// TestMapCacheBudgetReplaceAccounting replaces a key with a differently sized
// PLI and checks the byte ledger tracks the delta, not the sum.
func TestMapCacheBudgetReplaceAccounting(t *testing.T) {
	c := NewCache(1, 64, 1<<20)
	s := bitset.New(0, 1)
	c.put(s, FromAllRows(10))
	c.put(s, FromAllRows(20))
	st := c.stats()
	if want := pliStructBytes + 4*(20+2); st.Bytes != want {
		t.Errorf("Bytes after replace = %d, want %d", st.Bytes, want)
	}
	if st.Entries != 1 {
		t.Errorf("Entries = %d, want 1 after replacing the same key", st.Entries)
	}
}

// TestUnbudgetedMapCacheBytes checks byte accounting stays correct with no
// budget set (the governor reads the ledger for stats even when not
// enforcing).
func TestUnbudgetedMapCacheBytes(t *testing.T) {
	c := NewCache(1, 64, 0)
	var want int64
	for i := 0; i < 4; i++ {
		p := FromAllRows(10 + i)
		want += p.ApproxBytes()
		c.put(bitset.New(i, i+1), p)
	}
	if got := c.stats().Bytes; got != want {
		t.Errorf("Bytes = %d, want %d", got, want)
	}
}

// TestSyncCacheConcurrent hammers one shared one-shard cache from several
// goroutines; under -race this covers the single-mutex path that skips the
// shard hash.
func TestSyncCacheConcurrent(t *testing.T) {
	c := NewCache(1, 16, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := bitset.New(i%6, i%6+1+g%3)
				if _, ok := c.get(s); !ok {
					c.put(s, FromAllRows(2))
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.stats(); st.Hits+st.Misses != 8*200 {
		t.Fatalf("probes = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}

// TestProviderCacheStats checks the snapshot against what a Get on an empty
// cache does: it folds and caches both ascending prefixes of a three-column
// set, and a repeated Get turns into a hit.
func TestProviderCacheStats(t *testing.T) {
	p := NewProvider(cacheTestRelation(t), NewCache(1, 8, 0))
	s := bitset.New(0, 1, 2)
	p.Get(s)
	first := p.CacheStats()
	if first.Intersections != 2 || first.Entries != 2 {
		t.Errorf("first Get of %v: %d intersections, %d entries; want 2 and 2", s, first.Intersections, first.Entries)
	}
	if first.Hits != 0 || first.Misses == 0 {
		t.Errorf("first Get of %v must only miss, got %+v", s, first)
	}
	p.Get(s)
	second := p.CacheStats()
	if second.Hits != first.Hits+1 {
		t.Errorf("repeated Get: hits %d, want %d", second.Hits, first.Hits+1)
	}
	if second.Intersections != first.Intersections {
		t.Errorf("repeated Get recomputed: %d intersections, want %d", second.Intersections, first.Intersections)
	}
}

// TestProviderWithNilCache verifies the default-cache fallback.
func TestProviderWithNilCache(t *testing.T) {
	p := NewProvider(cacheTestRelation(t), nil)
	if !p.IsUnique(bitset.New(0, 1)) {
		t.Error("A,B must be unique")
	}
}

// TestConcurrentProviderSharedGets shares one sharded Provider across
// goroutines probing overlapping column combinations; under -race this
// exercises the Provider's documented concurrency contract end to end
// (sharded cache puts, atomic intersection counting).
func TestConcurrentProviderSharedGets(t *testing.T) {
	rel := cacheTestRelation(t)
	p := NewProvider(rel, NewCache(8, 0, 0))
	want := NewProvider(rel, nil)
	combos := []bitset.Set{
		bitset.New(0, 1), bitset.New(0, 2), bitset.New(1, 2),
		bitset.New(0, 1, 2), bitset.New(1, 2, 3), bitset.New(0, 1, 2, 3),
	}
	wantCounts := make([]int, len(combos))
	for i, s := range combos {
		wantCounts[i] = want.Get(s).DistinctCount()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := combos[i%len(combos)]
				if got := p.Get(s).DistinctCount(); got != wantCounts[i%len(combos)] {
					t.Errorf("Get(%v).DistinctCount = %d, want %d", s, got, wantCounts[i%len(combos)])
					return
				}
			}
		}()
	}
	wg.Wait()
	if p.CacheStats().Intersections == 0 {
		t.Error("no intersections recorded")
	}
}

// TestApproxBytesModel pins the byte-accounting model the memory governor
// budgets against: the PLI struct's own size plus four bytes per stored row
// id and per offset entry. For the flat layout this is exact up to the
// allocator's rounding of the struct.
func TestApproxBytesModel(t *testing.T) {
	// One cluster of 10 rows: struct + 4*(10 rows + 2 offsets).
	if got, want := FromAllRows(10).ApproxBytes(), pliStructBytes+48; got != want {
		t.Errorf("FromAllRows(10).ApproxBytes() = %d, want %d", got, want)
	}
	// Single-row relations strip to zero clusters: struct overhead only.
	if got, want := FromAllRows(1).ApproxBytes(), pliStructBytes; got != want {
		t.Errorf("FromAllRows(1).ApproxBytes() = %d, want %d", got, want)
	}
	// Two clusters of 3: struct + 4*(6 rows + 3 offsets).
	p := FromColumn([]int32{0, 1, 0, 1, 0, 1}, 2)
	if got, want := p.ApproxBytes(), pliStructBytes+36; got != want {
		t.Errorf("two-cluster ApproxBytes() = %d, want %d", got, want)
	}
}
