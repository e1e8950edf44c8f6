// Package registry holds the serving tier's versioned model set: every
// published framework gets a version name (v1, v2, ...), one is
// "current", and requests lease refcounted handles. Rollout is
// load-new/drain-old: publish a version (current at once for unpinned
// traffic), then retire the old one, which blocks until every handle on
// it is released. A version pinned with ?model=vN resolves until retired.
package registry

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"stencilmart/internal/core"
)

// ErrUnknownVersion is returned by Acquire and Retire for a version that
// was never published or has already been retired.
var ErrUnknownVersion = errors.New("registry: unknown model version")

// ErrRetiring is returned by Acquire for a version that is draining: no
// new requests may pin it.
var ErrRetiring = errors.New("registry: model version is retiring")

// ErrNoModel is returned by Acquire("") before anything is published.
var ErrNoModel = errors.New("registry: no model published")

// ErrUntrained rejects publishing a framework without trained models.
var ErrUntrained = errors.New("registry: framework has no trained models")

type entry struct {
	version  string
	fw       *core.Framework
	refs     int
	retiring bool
	// compileMillis is how long the f32 models took to compile at
	// publish time.
	compileMillis float64
}

// Registry is safe for concurrent use; Acquire and Release hold its
// lock for a few pointer operations.
type Registry struct {
	mu       sync.Mutex
	drained  *sync.Cond // signalled when any entry's refcount hits zero
	versions map[string]*entry
	order    []string // publish order, for stable listings
	current  *entry
	nextID   int
}

// New returns an empty registry.
func New() *Registry {
	r := &Registry{versions: make(map[string]*entry)}
	r.drained = sync.NewCond(&r.mu)
	return r
}

// Publish adds a trained framework as the next version and makes it
// current. The f32 models every request scores on compile here, off the
// serving path; a model set with no f32 form is refused and the current
// version stays.
func (r *Registry) Publish(fw *core.Framework) (string, error) {
	if fw == nil || fw.Trained == nil {
		return "", ErrUntrained
	}
	// Compile before taking the lock: serving traffic on other versions
	// must not stall behind a model build.
	start := time.Now()
	if _, err := fw.CompiledF32(); err != nil {
		return "", err
	}
	compileMillis := float64(time.Since(start).Nanoseconds()) / 1e6
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	v := fmt.Sprintf("v%d", r.nextID)
	e := &entry{version: v, fw: fw, compileMillis: compileMillis}
	r.versions[v] = e
	r.order = append(r.order, v)
	r.current = e
	return v, nil
}

// PublishFile loads a checkpoint from disk and publishes it. A load or
// validation failure leaves the registry untouched — the previous
// current version keeps serving.
func (r *Registry) PublishFile(path string) (string, error) {
	fw, err := core.LoadFrameworkFile(path)
	if err != nil {
		return "", err
	}
	return r.Publish(fw)
}

// Handle is one request's lease on a model version. Release exactly once
// when scoring is done; Release is idempotent.
type Handle struct {
	r    *Registry
	e    *entry
	once sync.Once
}

// Framework returns the leased model set.
func (h *Handle) Framework() *core.Framework { return h.e.fw }

// Version returns the leased version name.
func (h *Handle) Version() string { return h.e.version }

// Release returns the lease. The last release of a retiring version
// unblocks its Retire.
func (h *Handle) Release() {
	h.once.Do(func() {
		h.r.mu.Lock()
		h.e.refs--
		if h.e.refs == 0 {
			h.r.drained.Broadcast()
		}
		h.r.mu.Unlock()
	})
}

// Acquire leases a version: "" means current. Unknown or retiring
// versions fail; the caller maps those to 404.
func (r *Registry) Acquire(version string) (*Handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var e *entry
	if version == "" {
		e = r.current
		if e == nil {
			return nil, ErrNoModel
		}
	} else {
		e = r.versions[version]
		if e == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownVersion, version)
		}
		if e.retiring {
			return nil, fmt.Errorf("%w: %q", ErrRetiring, version)
		}
	}
	e.refs++
	return &Handle{r: r, e: e}, nil
}

// Retire drains and removes a non-current version: new acquires fail
// immediately, and the call blocks until every outstanding handle is
// released. The current version cannot be retired — publish a successor
// first.
func (r *Registry) Retire(version string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.versions[version]
	if e == nil {
		return fmt.Errorf("%w: %q", ErrUnknownVersion, version)
	}
	if e == r.current {
		return fmt.Errorf("registry: cannot retire current version %q (publish a successor first)", version)
	}
	e.retiring = true
	for e.refs > 0 {
		r.drained.Wait()
	}
	delete(r.versions, version)
	for i, v := range r.order {
		if v == version {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return nil
}

// CurrentVersion returns the current version name ("" when empty).
func (r *Registry) CurrentVersion() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.current == nil {
		return ""
	}
	return r.current.version
}

// VersionInfo is one version's row in a listing.
type VersionInfo struct {
	Version string `json:"version"`
	Current bool   `json:"current"`
	// Refs is the number of outstanding handles (in-flight requests or
	// batches leasing the version).
	Refs int `json:"refs"`
	// Retiring marks a version draining toward removal.
	Retiring bool `json:"retiring,omitempty"`
	// CompileMillis is the publish-time f32 model build duration in
	// milliseconds.
	CompileMillis float64 `json:"compile_millis"`
}

// Versions lists every live version in publish order.
func (r *Registry) Versions() []VersionInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]VersionInfo, 0, len(r.order))
	for _, v := range r.order {
		e := r.versions[v]
		out = append(out, VersionInfo{
			Version:       e.version,
			Current:       e == r.current,
			Refs:          e.refs,
			Retiring:      e.retiring,
			CompileMillis: e.compileMillis,
		})
	}
	return out
}
