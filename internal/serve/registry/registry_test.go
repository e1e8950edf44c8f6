package registry

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stencilmart/internal/core"
)

// trainedStub returns a framework that passes the registry's trained
// check without the cost of real training; registry mechanics never look
// inside the models.
func trainedStub() *core.Framework {
	return &core.Framework{Trained: &core.Trained{}}
}

func TestPublishAssignsSequentialVersions(t *testing.T) {
	r := New()
	for i, want := range []string{"v1", "v2", "v3"} {
		v, err := r.Publish(trainedStub())
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("publish %d gave %q, want %q", i, v, want)
		}
		if cur := r.CurrentVersion(); cur != want {
			t.Fatalf("current %q after publishing %q", cur, want)
		}
	}
	if got := len(r.Versions()); got != 3 {
		t.Fatalf("%d versions listed, want 3", got)
	}
}

func TestPublishRejectsUntrained(t *testing.T) {
	r := New()
	if _, err := r.Publish(&core.Framework{}); !errors.Is(err, ErrUntrained) {
		t.Fatalf("untrained publish gave %v", err)
	}
	if _, err := r.Publish(nil); !errors.Is(err, ErrUntrained) {
		t.Fatalf("nil publish gave %v", err)
	}
	if _, err := r.Acquire(""); !errors.Is(err, ErrNoModel) {
		t.Fatalf("acquire on empty registry gave %v", err)
	}
}

// TestAcquirePinning: "" follows the current pointer across swaps, while
// explicit pins keep resolving their version; unknown pins fail.
func TestAcquirePinning(t *testing.T) {
	r := New()
	fw1, fw2 := trainedStub(), trainedStub()
	if _, err := r.Publish(fw1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(fw2); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, pin string
		want      *core.Framework
		wantErr   error
	}{
		{"unpinned follows current", "", fw2, nil},
		{"pin old version", "v1", fw1, nil},
		{"pin current version", "v2", fw2, nil},
		{"unknown version", "v9", nil, ErrUnknownVersion},
		{"malformed version", "latest", nil, ErrUnknownVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := r.Acquire(tc.pin)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Acquire(%q) = %v, want %v", tc.pin, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer h.Release()
			if h.Framework() != tc.want {
				t.Fatalf("Acquire(%q) leased %s, wrong framework", tc.pin, h.Version())
			}
		})
	}
}

// TestRetireDrainsOutstandingHandles: retire must not return while a
// handle (an in-flight batch) still leases the version, and must return
// promptly once the last lease is released.
func TestRetireDrainsOutstandingHandles(t *testing.T) {
	r := New()
	if _, err := r.Publish(trainedStub()); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("v1") // the in-flight batch
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(trainedStub()); err != nil { // v2 takes over
		t.Fatal(err)
	}

	retired := make(chan error, 1)
	go func() { retired <- r.Retire("v1") }()

	// Retire must block while the handle is outstanding.
	select {
	case err := <-retired:
		t.Fatalf("retire returned (%v) with a handle still leased", err)
	case <-time.After(50 * time.Millisecond):
	}
	// A retiring version refuses new leases.
	if _, err := r.Acquire("v1"); !errors.Is(err, ErrRetiring) {
		t.Fatalf("acquire of retiring version gave %v", err)
	}
	// The leased framework is still fully usable until released.
	if h.Framework() == nil {
		t.Fatal("leased framework vanished during retire")
	}

	h.Release()
	select {
	case err := <-retired:
		if err != nil {
			t.Fatalf("retire failed after drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retire never returned after the last release")
	}
	if _, err := r.Acquire("v1"); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("acquire of retired version gave %v, want unknown", err)
	}
	if got := len(r.Versions()); got != 1 {
		t.Fatalf("%d versions after retire, want 1", got)
	}
}

func TestReleaseIsIdempotent(t *testing.T) {
	r := New()
	if _, err := r.Publish(trainedStub()); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	h.Release() // must not drive the refcount negative
	h2, err := r.Acquire("")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if refs := r.Versions()[0].Refs; refs != 1 {
		t.Fatalf("refs %d after double release + one acquire, want 1", refs)
	}
}

func TestRetireCurrentRefused(t *testing.T) {
	r := New()
	if _, err := r.Publish(trainedStub()); err != nil {
		t.Fatal(err)
	}
	if err := r.Retire("v1"); err == nil {
		t.Fatal("retiring the current version succeeded")
	}
	if err := r.Retire("v9"); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("retiring unknown version gave %v", err)
	}
}

// TestPublishFileFailureLeavesPreviousServing: a corrupt checkpoint must
// not disturb the registry — the old version stays current and
// acquirable.
func TestPublishFileFailureLeavesPreviousServing(t *testing.T) {
	r := New()
	fw1 := trainedStub()
	if _, err := r.Publish(fw1); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "corrupt.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PublishFile(bad); err == nil {
		t.Fatal("corrupt checkpoint published")
	}
	if _, err := r.PublishFile(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("missing checkpoint published")
	}
	if cur := r.CurrentVersion(); cur != "v1" {
		t.Fatalf("current %q after failed publishes, want v1", cur)
	}
	h, err := r.Acquire("")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Framework() != fw1 {
		t.Fatal("previous framework no longer serving after failed publish")
	}
}

// TestSwapUnderLoadStress: readers continuously acquire/release the
// current version while a publisher rolls v2..v6 and retires each
// predecessor. No acquire of "" may ever fail or observe a nil
// framework, and every retire must complete. Run under -race this is the
// registry's interleaving probe.
func TestSwapUnderLoadStress(t *testing.T) {
	r := New()
	if _, err := r.Publish(trainedStub()); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var failures atomic.Uint64
	var wg sync.WaitGroup
	readers := 8
	if testing.Short() {
		readers = 2
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := r.Acquire("")
				if err != nil || h.Framework() == nil {
					failures.Add(1)
					continue
				}
				h.Release()
			}
		}()
	}

	prev := "v1"
	for i := 0; i < 5; i++ {
		v, err := r.Publish(trainedStub())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Retire(prev); err != nil {
			t.Fatalf("retire %s during load: %v", prev, err)
		}
		prev = v
	}
	close(stop)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d unpinned acquires failed during rollout", failures.Load())
	}
	vs := r.Versions()
	if len(vs) != 1 || vs[0].Version != "v6" || !vs[0].Current {
		t.Fatalf("versions after rollout: %+v, want only v6 current", vs)
	}
	if vs[0].Refs != 0 {
		t.Fatalf("leaked %d refs after rollout", vs[0].Refs)
	}
}

// TestRetireRacesPinnedAcquire: the breaker fallback walk pins explicit
// versions while rollouts retire them. Hammering Acquire("v1") against a
// concurrent Retire("v1") must never hand out a retired framework: every
// successful acquire strictly precedes Retire's return (the held ref
// blocks the drain), and once Retire returns the version is gone for
// good.
func TestRetireRacesPinnedAcquire(t *testing.T) {
	r := New()
	if _, err := r.Publish(trainedStub()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(trainedStub()); err != nil { // v2 stays current
		t.Fatal(err)
	}

	var retired atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := r.Acquire("v1")
				if err != nil {
					// ErrRetiring / ErrUnknownVersion are the only legal
					// refusals once the drain begins.
					if !errors.Is(err, ErrRetiring) && !errors.Is(err, ErrUnknownVersion) {
						t.Errorf("acquire v1 failed with %v", err)
					}
					continue
				}
				// Success means the lease pinned v1 before the drain: Retire
				// blocks on this ref, so it cannot have returned yet.
				if retired.Load() {
					t.Error("acquired v1 after Retire(v1) returned")
				}
				if h.Framework() == nil || h.Framework().Trained == nil {
					t.Error("acquired handle exposes a torn framework")
				}
				runtime.Gosched()
				h.Release()
			}
		}()
	}

	time.Sleep(2 * time.Millisecond) // let the acquirers reach steady state
	if err := r.Retire("v1"); err != nil {
		t.Fatalf("retire v1 under pinned load: %v", err)
	}
	retired.Store(true)
	close(stop)
	wg.Wait()

	if _, err := r.Acquire("v1"); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("acquire after retire gave %v, want ErrUnknownVersion", err)
	}
	vs := r.Versions()
	if len(vs) != 1 || vs[0].Version != "v2" || vs[0].Refs != 0 {
		t.Fatalf("versions after drain: %+v, want only v2 with zero refs", vs)
	}
}
