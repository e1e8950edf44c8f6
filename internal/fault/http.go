package fault

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// HTTPConfig sets the serving-tier chaos rates. The middleware faults are
// drawn per (seed, site, attempt) exactly like the sim injector — a site
// is the hash of one request's method, path, and body, so a client
// retrying the same request walks a deterministic attempt sequence — and
// a per-site budget guarantees bounded retries always reach a clean
// response. The scoring-path faults are a separate deterministic burst:
// per scoring site (a "lane/version" string), calls ScorePanicAfter
// through ScorePanicAfter+ScorePanicBurst-1 panic, which is exactly the
// shape that drills a consecutive-failure circuit breaker.
type HTTPConfig struct {
	// Seed drives every middleware injection decision.
	Seed int64 `json:"seed"`
	// LatencyRate is the probability an attempt is delayed by
	// LatencySpike before being served normally.
	LatencyRate float64 `json:"latency_rate"`
	// LatencySpike is the injected delay; <= 0 selects
	// DefaultLatencySpike.
	LatencySpike time.Duration `json:"latency_spike,omitempty"`
	// ResetRate is the probability the connection is reset before any
	// response bytes are written (the client sees a closed connection).
	ResetRate float64 `json:"reset_rate"`
	// TruncateRate is the probability the response body is cut off after
	// TruncateBytes and the connection aborted mid-stream.
	TruncateRate float64 `json:"truncate_rate"`
	// TruncateBytes is how much of the body a truncated response keeps;
	// <= 0 selects DefaultTruncateBytes.
	TruncateBytes int `json:"truncate_bytes,omitempty"`
	// MaxFaultsPerSite caps middleware faults per request site; <= 0
	// selects DefaultMaxHTTPFaultsPerSite.
	MaxFaultsPerSite int `json:"max_faults_per_site,omitempty"`
	// ScorePanicAfter and ScorePanicBurst shape the scoring-path drill:
	// per scoring site, the burst of ScorePanicBurst consecutive calls
	// starting at call number ScorePanicAfter (0-based) panics. A zero
	// burst disables scoring faults.
	ScorePanicAfter int `json:"score_panic_after,omitempty"`
	ScorePanicBurst int `json:"score_panic_burst,omitempty"`
	// ScorePanicSite, when non-empty, restricts the burst to one scoring
	// site ("lane/version"), so a drill tripping the f32 lane leaves its
	// f64 fallback path clean. Empty targets every site independently.
	ScorePanicSite string `json:"score_panic_site,omitempty"`
}

// DefaultLatencySpike is the injected latency delay.
const DefaultLatencySpike = 20 * time.Millisecond

// DefaultTruncateBytes keeps less than any /predict response body, so a
// truncated response is always detectable as invalid JSON or a read
// error.
const DefaultTruncateBytes = 20

// DefaultMaxHTTPFaultsPerSite keeps every request site recoverable
// within three attempts.
const DefaultMaxHTTPFaultsPerSite = 2

// DefaultHTTPConfig is the serve-chaos drill: ≥10% connection-level
// faults plus a scoring-panic burst sized to trip a default-threshold
// breaker (DefaultBreakerThreshold consecutive failures) and then let a
// half-open probe observe recovery.
func DefaultHTTPConfig(seed int64) HTTPConfig {
	return HTTPConfig{
		Seed:            seed,
		LatencyRate:     0.05,
		ResetRate:       0.04,
		TruncateRate:    0.04,
		ScorePanicAfter: 4,
		ScorePanicBurst: 3,
		// Target the f32 lane of the first published version: the
		// standard chaos drill serves one checkpoint with -lane f32, so
		// the sick lane has the same version's f64 path as a clean
		// fallback.
		ScorePanicSite: "f32/v1",
	}
}

func (c HTTPConfig) latencySpike() time.Duration {
	if c.LatencySpike > 0 {
		return c.LatencySpike
	}
	return DefaultLatencySpike
}

func (c HTTPConfig) truncateBytes() int {
	if c.TruncateBytes > 0 {
		return c.TruncateBytes
	}
	return DefaultTruncateBytes
}

func (c HTTPConfig) budget() int {
	if c.MaxFaultsPerSite > 0 {
		return c.MaxFaultsPerSite
	}
	return DefaultMaxHTTPFaultsPerSite
}

// Validate checks the rates form a proper sub-distribution and the burst
// shape is sane.
func (c HTTPConfig) Validate() error {
	total := 0.0
	for _, r := range []float64{c.LatencyRate, c.ResetRate, c.TruncateRate} {
		if r < 0 || r >= 1 || math.IsNaN(r) {
			return fmt.Errorf("fault: http rate %v outside [0, 1)", r)
		}
		total += r
	}
	if total >= 1 {
		return fmt.Errorf("fault: http rates sum to %v >= 1", total)
	}
	if c.ScorePanicAfter < 0 || c.ScorePanicBurst < 0 {
		return fmt.Errorf("fault: negative score-panic shape (%d, %d)", c.ScorePanicAfter, c.ScorePanicBurst)
	}
	return nil
}

// HTTPStats counts injected serving faults, read with HTTPInjector.Stats.
type HTTPStats struct {
	Requests    uint64 `json:"requests"`
	Sites       uint64 `json:"sites"`
	Latencies   uint64 `json:"latencies"`
	Resets      uint64 `json:"resets"`
	Truncates   uint64 `json:"truncates"`
	ScorePanics uint64 `json:"score_panics"`
}

// Total returns the number of injected faults of every class.
func (s HTTPStats) Total() uint64 {
	return s.Latencies + s.Resets + s.Truncates + s.ScorePanics
}

// HTTPInjector is the serving tier's chaos source: an HTTP middleware
// injecting connection-level faults, plus the scoring-path panic hook the
// serve package consults (serve.ScorePanicker). Safe for concurrent use;
// determinism holds per site because a client retries one request
// sequentially.
type HTTPInjector struct {
	cfg HTTPConfig
	led *ledger

	mu         sync.Mutex
	scoreSites map[string]int

	requests, latencies, resets, truncates, scorePanics atomic.Uint64
}

// NewHTTPInjector builds an injector, panicking on an invalid config —
// like the sim injector, it only exists in tests and chaos drills where a
// bad configuration is a programming error.
func NewHTTPInjector(cfg HTTPConfig) *HTTPInjector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &HTTPInjector{
		cfg:        cfg,
		led:        newLedger(cfg.Seed, cfg.budget(), cfg.LatencyRate, cfg.ResetRate, cfg.TruncateRate),
		scoreSites: make(map[string]int),
	}
}

// Stats snapshots the injection counters.
func (in *HTTPInjector) Stats() HTTPStats {
	return HTTPStats{
		Requests:    in.requests.Load(),
		Sites:       in.led.seen(),
		Latencies:   in.latencies.Load(),
		Resets:      in.resets.Load(),
		Truncates:   in.truncates.Load(),
		ScorePanics: in.scorePanics.Load(),
	}
}

// httpOutcome is one request attempt's injected fault class: the ledger's
// classes in the order NewHTTPInjector lists the rates; 0 is a clean
// attempt.
type httpOutcome int

const (
	injectLatency httpOutcome = iota + 1
	injectReset
	injectTruncate
)

// siteOf canonicalizes a request's identity — method, path, and the first
// MiB of the body — into a site ID. What it read of the body is put back
// in front of the rest, so the wrapped handler reads the whole body
// untouched (and a body past the handler's size limit is still refused
// as too large, not cut to fit).
func (in *HTTPInjector) siteOf(r *http.Request) uint64 {
	h := fnv.New64a()
	io.WriteString(h, r.Method)
	h.Write([]byte{0})
	io.WriteString(h, r.URL.Path)
	h.Write([]byte{0})
	if r.Body != nil && r.Body != http.NoBody {
		head, _ := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		h.Write(head)
		r.Body = struct {
			io.Reader
			io.Closer
		}{io.MultiReader(bytes.NewReader(head), r.Body), r.Body}
	}
	return h.Sum64()
}

// decideHTTP maps (seed, site, attempt) to a fault class, drawing and
// partitioning exactly like the sim injector.
func (in *HTTPInjector) decideHTTP(site uint64, attempt int) httpOutcome {
	return httpOutcome(in.led.decide(site, attempt))
}

// Middleware wraps next with connection-level chaos. It must sit outside
// any panic-recovery layer: resets and truncations abort the connection
// by panicking with http.ErrAbortHandler, which net/http treats as a
// deliberate quiet abort — converting it to a 500 would turn "connection
// died" into "server answered", which is not the failure being drilled.
func (in *HTTPInjector) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in.requests.Add(1)
		site := in.siteOf(r)
		_, class := in.led.begin(site)
		switch httpOutcome(class) {
		case injectLatency:
			in.led.spend(site)
			in.latencies.Add(1)
			time.Sleep(in.cfg.latencySpike())
			next.ServeHTTP(w, r)
		case injectReset:
			in.led.spend(site)
			in.resets.Add(1)
			panic(http.ErrAbortHandler)
		case injectTruncate:
			in.led.spend(site)
			in.truncates.Add(1)
			tw := &truncatingWriter{ResponseWriter: w, keep: in.cfg.truncateBytes()}
			next.ServeHTTP(tw, r)
			tw.flush()
			panic(http.ErrAbortHandler)
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// ScorePanic implements the serve package's scoring-fault hook: per
// site, the configured burst of consecutive calls answers true (panic),
// everything else false. The call ordinal — not the wall clock — indexes
// the burst, so breaker trips and recoveries replay identically across
// runs and GOMAXPROCS settings.
func (in *HTTPInjector) ScorePanic(site string) bool {
	if in.cfg.ScorePanicBurst <= 0 {
		return false
	}
	if in.cfg.ScorePanicSite != "" && site != in.cfg.ScorePanicSite {
		return false
	}
	in.mu.Lock()
	n := in.scoreSites[site]
	in.scoreSites[site] = n + 1
	in.mu.Unlock()
	if n >= in.cfg.ScorePanicAfter && n < in.cfg.ScorePanicAfter+in.cfg.ScorePanicBurst {
		in.scorePanics.Add(1)
		return true
	}
	return false
}

// truncatingWriter forwards the status and headers but only the first
// keep bytes of the body; the rest is swallowed. The middleware aborts
// the connection after the handler returns, so the client observes a
// well-formed response head with a body that dies mid-stream.
type truncatingWriter struct {
	http.ResponseWriter
	keep    int
	written int
}

func (t *truncatingWriter) Write(p []byte) (int, error) {
	n := len(p)
	if room := t.keep - t.written; room < n {
		if room > 0 {
			t.ResponseWriter.Write(p[:room])
			t.written = t.keep
		}
		// Report full writes so the wrapped handler never sees an error.
		return n, nil
	}
	t.written += n
	return t.ResponseWriter.Write(p)
}

// flush pushes the truncated prefix onto the wire before the abort, so
// the client reliably observes the cut body rather than an empty reply.
func (t *truncatingWriter) flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
