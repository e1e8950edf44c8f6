package serve

import (
	"sync"
	"time"
)

// breakerThreshold is how many consecutive scoring failures trip a
// lane's breaker.
const breakerThreshold = 3

// breakerCooldown is how long a tripped breaker stays open before a
// half-open probe tests the lane again.
const breakerCooldown = 2 * time.Second

// BreakerState is one breaker's position in the classic three-state
// machine: closed (healthy, traffic flows), open (tripped, traffic
// reroutes to a fallback), half-open (one probe in flight testing
// recovery).
type BreakerState int

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breakerKey identifies one breaker: a (model version, inference lane)
// pair. One bad f32 compile trips only (vN, f32); the same version's f64
// reference lane and every other version keep their own health.
type breakerKey struct {
	version string
	lane    Lane
}

// breaker is one key's state. All fields are guarded by the owning
// breakerSet's mutex.
type breaker struct {
	state       BreakerState
	consecutive int
	openedAt    time.Time
	probing     bool

	trips          uint64
	probes         uint64
	shortCircuits  uint64
	fallbackServed uint64
}

// breakerSet owns every breaker in the server, keyed per (version, lane).
// Breakers are created lazily on first routing decision; health queries
// for keys that never carried traffic report closed without creating
// state.
type breakerSet struct {
	mu       sync.Mutex
	cooldown time.Duration // breakerCooldown; tests shorten it

	m     map[breakerKey]*breaker
	order []breakerKey // first-seen order, for stable snapshots
}

func newBreakerSet() *breakerSet {
	return &breakerSet{cooldown: breakerCooldown, m: make(map[breakerKey]*breaker)}
}

// get returns the key's breaker, creating it closed. Callers hold b.mu.
func (b *breakerSet) get(k breakerKey) *breaker {
	br := b.m[k]
	if br == nil {
		br = &breaker{}
		b.m[k] = br
		b.order = append(b.order, k)
	}
	return br
}

// route decides whether traffic for k may ride its primary scoring path.
// allow=false means the caller must go straight to a fallback (the
// breaker is open, or half-open with the probe slot taken). probe=true
// marks the single half-open probe: its result closes or reopens the
// breaker.
func (b *breakerSet) route(k breakerKey) (allow, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.get(k)
	switch br.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if time.Since(br.openedAt) >= b.cooldown {
			br.state = BreakerHalfOpen
			br.probing = true
			br.probes++
			return true, true
		}
	case BreakerHalfOpen:
		if !br.probing {
			br.probing = true
			br.probes++
			return true, true
		}
	}
	br.shortCircuits++
	return false, false
}

// result records a primary-path scoring outcome for k. Only genuine
// scoring faults (panics, mis-shaped results) count as failures; the
// caller must not report deadline expiries here — a slow client is not a
// sick lane.
func (b *breakerSet) result(k breakerKey, probe, failed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.get(k)
	if failed {
		if probe || br.state == BreakerHalfOpen {
			// Probe failed: straight back to open, restart the cooldown.
			br.state = BreakerOpen
			br.openedAt = time.Now()
			br.probing = false
			br.trips++
			return
		}
		br.consecutive++
		if br.state == BreakerClosed && br.consecutive >= breakerThreshold {
			br.state = BreakerOpen
			br.openedAt = time.Now()
			br.trips++
		}
		return
	}
	if probe || br.state == BreakerHalfOpen {
		br.probing = false
	}
	br.state = BreakerClosed
	br.consecutive = 0
}

// healthy reports whether k's primary path is fully closed — the bar a
// version/lane must clear to serve as a fallback target. Keys with no
// recorded traffic are healthy; the query never creates state.
func (b *breakerSet) healthy(k breakerKey) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	br := b.m[k]
	return br == nil || br.state == BreakerClosed
}

// markFallback counts requests served degraded on k's behalf while its
// breaker rerouted them.
func (b *breakerSet) markFallback(k breakerKey, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.get(k).fallbackServed += uint64(n)
}

// BreakerSnapshot is one breaker's state on /statsz and /modelz.
type BreakerSnapshot struct {
	Version string `json:"version"`
	Lane    Lane   `json:"lane"`
	State   string `json:"state"`
	// ConsecutiveFailures is the current run of primary-path failures
	// (resets on success; frozen at the threshold while open).
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Trips counts closed/half-open -> open transitions.
	Trips uint64 `json:"trips"`
	// Probes counts half-open probe attempts.
	Probes uint64 `json:"probes"`
	// ShortCircuits counts routing decisions that bypassed the primary
	// path while the breaker was open.
	ShortCircuits uint64 `json:"short_circuits"`
	// FallbackServed counts requests answered by a fallback lane/version
	// while this breaker rerouted them.
	FallbackServed uint64 `json:"fallback_served"`
}

// snapshot lists every breaker that has carried traffic, in first-seen
// order.
func (b *breakerSet) snapshot() []BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BreakerSnapshot, 0, len(b.order))
	for _, k := range b.order {
		br := b.m[k]
		out = append(out, BreakerSnapshot{
			Version:             k.version,
			Lane:                k.lane,
			State:               br.state.String(),
			ConsecutiveFailures: br.consecutive,
			Trips:               br.trips,
			Probes:              br.probes,
			ShortCircuits:       br.shortCircuits,
			FallbackServed:      br.fallbackServed,
		})
	}
	return out
}
