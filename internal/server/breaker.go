package server

import (
	"sync"
	"time"

	"holistic/internal/faults"
)

// Per-key circuit breakers: a single pathological dataset — one whose
// lattice walk blows every deadline, or one that keeps tripping a strategy
// panic — can otherwise be re-submitted in a tight loop forever, burning a
// worker slot on every round trip. The breaker keys on (dataset
// fingerprint, algorithm): after BreakerThreshold consecutive failures of
// the same pair it opens and fast-fails further submissions with 422
// carrying the prior error, half-opens after a cooldown to let exactly one
// trial probe through, and closes again on the first clean completion.

// breakerKey identifies the work a breaker guards: the exact dataset bytes
// (by SHA-256) profiled by one algorithm. A different algorithm on the same
// bytes — or one changed byte — is a different key.
type breakerKey struct {
	sha string
	alg string
}

// Breaker states. Transitions: closed → open (threshold consecutive
// failures), open → half-open (cooldown elapsed, lazily on the next probe),
// half-open → closed (trial succeeds) or → open (trial fails).
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerEntry is one key's breaker. Fields are guarded by breakerSet.mu.
type breakerEntry struct {
	state    int
	failures int       // consecutive failures while closed
	until    time.Time // open: when the cooldown ends
	lastErr  string    // the failure that tripped it, echoed on fast-fails
	trial    bool      // half-open: the single probe is in flight
	lastUsed time.Time // for eviction
}

// breakerSet is the server's breaker registry. It is bounded: beyond
// maxBreakerKeys the stalest closed entry is evicted first (an open breaker
// is live protection and only falls to eviction when nothing closed is
// left).
type breakerSet struct {
	threshold int
	cooldown  time.Duration

	mu      sync.Mutex
	entries map[breakerKey]*breakerEntry
	trips   int64 // cumulative open transitions, for metrics
}

const maxBreakerKeys = 1024

func newBreakerSet(threshold int, cooldown time.Duration) *breakerSet {
	return &breakerSet{threshold: threshold, cooldown: cooldown, entries: map[breakerKey]*breakerEntry{}}
}

// allow reports whether a submission for key may be admitted. A denial
// carries the error that tripped the breaker and how long the client should
// wait before retrying. An open breaker past its cooldown half-opens here
// and admits the caller as the single trial probe; concurrent submissions
// during the trial stay rejected until the probe settles.
func (b *breakerSet) allow(key breakerKey, now time.Time) (ok bool, lastErr string, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, found := b.entries[key]
	if !found {
		return true, "", 0
	}
	e.lastUsed = now
	switch e.state {
	case breakerClosed:
		return true, "", 0
	case breakerOpen:
		if now.Before(e.until) {
			return false, e.lastErr, e.until.Sub(now)
		}
		e.state = breakerHalfOpen
		e.trial = false
		fallthrough
	default: // breakerHalfOpen
		if e.trial {
			// The probe's outcome decides; until then the key stays closed
			// to everyone else.
			return false, e.lastErr, b.cooldown
		}
		e.trial = true
		return true, "", 0
	}
}

// recordSuccess notes a clean completion for key: a half-open trial (or any
// straggler that finishes cleanly) closes the breaker; a closed entry's
// failure streak resets and, with nothing left to remember, the entry is
// dropped.
func (b *breakerSet) recordSuccess(key breakerKey) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, found := b.entries[key]; found {
		delete(b.entries, key)
	}
}

// recordFailure notes a failed run (failure, contained panic, or deadline
// blowout) for key and reports whether this failure tripped the breaker
// open. The breaker.trip fault point, armed, trips on the first failure
// regardless of the threshold.
func (b *breakerSet) recordFailure(key breakerKey, errMsg string, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, found := b.entries[key]
	if !found {
		e = &breakerEntry{}
		b.entries[key] = e
		b.evictLocked(key)
	}
	e.lastUsed = now
	e.lastErr = errMsg
	if e.state == breakerHalfOpen {
		// The trial probe failed: straight back to open for another cooldown.
		e.state = breakerOpen
		e.trial = false
		e.until = now.Add(b.cooldown)
		b.trips++
		return true
	}
	e.failures++
	if e.failures >= b.threshold || faults.Degraded(faults.BreakerTrip) {
		e.state = breakerOpen
		e.until = now.Add(b.cooldown)
		b.trips++
		return true
	}
	return false
}

// recordNeutral clears a half-open trial whose probe ended without a
// verdict (canceled, doomed in the queue, lost): the next submission
// becomes the new trial instead of the key staying locked forever.
func (b *breakerSet) recordNeutral(key breakerKey) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, found := b.entries[key]; found {
		e.trial = false
	}
}

// counts reports how many breakers are open and half-open right now, with
// cooldown expiry applied lazily (an open breaker past its cooldown counts
// as half-open: it no longer hard-rejects, it is waiting for a probe).
func (b *breakerSet) counts(now time.Time) (open, halfOpen int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.entries {
		switch {
		case e.state == breakerOpen && now.Before(e.until):
			open++
		case e.state == breakerOpen || e.state == breakerHalfOpen:
			halfOpen++
		}
	}
	return open, halfOpen
}

// tripsTotal is the cumulative number of open transitions.
func (b *breakerSet) tripsTotal() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// evictLocked bounds the registry after an insert of keep: the stalest
// closed entry goes first; only when every other entry is open protection
// does the stalest of those go.
func (b *breakerSet) evictLocked(keep breakerKey) {
	if len(b.entries) <= maxBreakerKeys {
		return
	}
	var victim breakerKey
	var victimAt time.Time
	victimOpen := true
	found := false
	for k, e := range b.entries {
		if k == keep {
			continue
		}
		isOpen := e.state != breakerClosed
		better := !found ||
			(victimOpen && !isOpen) ||
			(victimOpen == isOpen && e.lastUsed.Before(victimAt))
		if better {
			victim, victimAt, victimOpen, found = k, e.lastUsed, isOpen, true
		}
	}
	if found {
		delete(b.entries, victim)
	}
}
