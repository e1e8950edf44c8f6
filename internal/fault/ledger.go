package fault

import (
	"encoding/binary"
	"hash/fnv"
	"sync"
)

// ledger is the Injector's deterministic fault draw: a seed, the fault
// classes' rates in partition order, and per-site attempt and budget
// bookkeeping. Whether attempt k at a site faults, and with which
// class, is a pure function of (seed, site, k).
type ledger struct {
	seed   int64
	budget int
	rates  []float64

	mu    sync.Mutex
	sites map[uint64]*siteState
}

type siteState struct {
	attempt int // attempts observed so far
	faults  int // faults already injected at this site
}

func newLedger(seed int64, budget int, rates ...float64) *ledger {
	return &ledger{seed: seed, budget: budget, rates: rates, sites: make(map[uint64]*siteState)}
}

// begin records one attempt at the site and returns the attempt number
// and the fault class drawn for it: 0 for none, i+1 for rates[i]. A site
// whose fault budget is spent draws none.
func (l *ledger) begin(site uint64) (attempt, class int) {
	l.mu.Lock()
	st := l.sites[site]
	if st == nil {
		st = &siteState{}
		l.sites[site] = st
	}
	attempt = st.attempt
	st.attempt++
	budgetLeft := st.faults < l.budget
	l.mu.Unlock()
	if budgetLeft {
		class = l.decide(site, attempt)
	}
	return attempt, class
}

// spend consumes one unit of the site's fault budget.
func (l *ledger) spend(site uint64) {
	l.mu.Lock()
	l.sites[site].faults++
	l.mu.Unlock()
}

// seen reports how many distinct sites have been attempted.
func (l *ledger) seen() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.sites))
}

// decide maps (seed, site, attempt) to a fault class by hashing into a
// uniform draw on [0, 1) and partitioning by the rates in order.
func (l *ledger) decide(site uint64, attempt int) int {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(l.seed))
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], site)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(attempt))
	h.Write(b[:])
	// 53 mantissa bits of the hash give a uniform draw in [0, 1).
	u := float64(h.Sum64()>>11) / (1 << 53)

	for i, rate := range l.rates {
		if u < rate {
			return i + 1
		}
		u -= rate
	}
	return 0
}
