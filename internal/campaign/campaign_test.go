package campaign_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stencilmart/internal/campaign"
	"stencilmart/internal/gpu"
	"stencilmart/internal/profile"
	"stencilmart/internal/testutil"
)

// campaignSpec is the shared small collection: 4 stencils x 2
// architectures = 8 cells, the same shape the journal resume tests use.
func campaignSpec(t *testing.T) campaign.Spec {
	t.Helper()
	return campaign.Spec{
		Stencils:     testutil.SmallCorpus(t)[:4],
		Archs:        gpu.Catalog()[:2],
		SamplesPerOC: 2,
		Seed:         11,
	}
}

// serialBytes is the serial CollectJournal-equivalent reference every
// campaign merge must match bitwise: a plain Collect under the spec's
// identity.
func serialBytes(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	ds, err := spec.NewProfiler(1).Collect(context.Background(), spec.Stencils, spec.Archs)
	if err != nil {
		t.Fatalf("serial reference Collect: %v", err)
	}
	return testutil.DatasetBytes(t, ds)
}

// newCampaign builds a coordinator over dir and serves its API from an
// httptest server.
func newCampaign(t *testing.T, spec campaign.Spec, dir string, shards int, lease time.Duration) (*campaign.Coordinator, *httptest.Server) {
	t.Helper()
	c, err := campaign.NewCoordinator(spec, campaign.Options{Shards: shards, Lease: lease, Dir: dir})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

// runWorkers joins n workers to the campaign and waits for all of them.
func runWorkers(t *testing.T, url, prefix string, n int) []campaign.WorkStats {
	t.Helper()
	stats := make([]campaign.WorkStats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = campaign.Work(context.Background(), url, campaign.WorkerOptions{
				ID: fmt.Sprintf("%s%d", prefix, i), Workers: 2, Poll: 5 * time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %s%d: %v", prefix, i, err)
		}
	}
	return stats
}

// TestCampaignMergedIdenticalToSerial: three workers splitting the cell
// space over leased shards assemble, after the merge, the exact bytes a
// serial run produces — at GOMAXPROCS 1 and 4.
func TestCampaignMergedIdenticalToSerial(t *testing.T) {
	spec := campaignSpec(t)
	want := serialBytes(t, spec)
	for _, procs := range []int{1, 4} {
		testutil.WithGOMAXPROCS(t, procs, func() {
			c, srv := newCampaign(t, spec, t.TempDir(), 3, 0)
			workers := runWorkers(t, srv.URL, "w", 3)
			if !c.Done() {
				t.Fatalf("GOMAXPROCS %d: campaign not done after all workers exited", procs)
			}
			var measured int
			for _, ws := range workers {
				measured += ws.Measured
			}
			if measured != spec.Cells() {
				t.Fatalf("GOMAXPROCS %d: workers measured %d cells, want %d", procs, measured, spec.Cells())
			}
			ds, ms, err := c.Merge()
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: merge: %v", procs, err)
			}
			if ms.Shards != 3 || ms.Cells != 8 || ms.Duplicates != 0 {
				t.Fatalf("GOMAXPROCS %d: merge stats %+v", procs, ms)
			}
			testutil.AssertSameBytes(t, "campaign dataset", want, testutil.DatasetBytes(t, ds))
		})
	}
}

// TestCampaignStatsz: /statsz exposes per-worker progress counters plus
// shard states.
func TestCampaignStatsz(t *testing.T) {
	spec := campaignSpec(t)
	_, srv := newCampaign(t, spec, t.TempDir(), 2, 0)
	runWorkers(t, srv.URL, "w", 2)

	resp, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatalf("GET /statsz: %v", err)
	}
	defer resp.Body.Close()
	var st campaign.StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /statsz: %v", err)
	}
	if !st.Done || st.Cells != 8 || len(st.Shards) != 2 {
		t.Fatalf("statsz %+v, want done with 8 cells in 2 shards", st)
	}
	for _, sh := range st.Shards {
		if sh.State != "done" || sh.Done != sh.Cells {
			t.Fatalf("shard snapshot %+v, want done with all cells reported", sh)
		}
	}
	var leases, cellsDone int
	for _, w := range st.Workers {
		leases += w.Leases
		cellsDone += w.CellsDone
	}
	if leases < 2 || cellsDone != 8 {
		t.Fatalf("worker counters: %d leases, %d cells done (want >= 2, 8): %+v", leases, cellsDone, st.Workers)
	}
}

// killAfter cancels a context once limit requests to path have completed
// — the harness that "kills" a worker mid-shard from the outside.
type killAfter struct {
	base  http.RoundTripper
	path  string
	limit int32
	seen  atomic.Int32
	kill  context.CancelFunc
}

func (k *killAfter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := k.base.RoundTrip(req)
	if err == nil && req.URL.Path == k.path && k.seen.Add(1) == k.limit {
		k.kill()
	}
	return resp, err
}

// TestCampaignKilledWorkerDifferential: a campaign with one worker
// killed mid-shard and its expired lease re-dispatched to rescuers
// still merges to the exact bytes of a serial run.
func TestCampaignKilledWorkerDifferential(t *testing.T) {
	spec := campaignSpec(t)
	want := serialBytes(t, spec)

	dir := t.TempDir()
	c, srv := newCampaign(t, spec, dir, 2, 150*time.Millisecond)

	// The victim dies right after its first heartbeat: one durable cell,
	// three left on its shard, no /complete.
	victimCtx, kill := context.WithCancel(context.Background())
	defer kill()
	client := &http.Client{Transport: &killAfter{
		base: http.DefaultTransport, path: "/heartbeat", limit: 1, kill: kill,
	}}
	_, err := campaign.Work(victimCtx, srv.URL, campaign.WorkerOptions{
		ID: "victim", Workers: 1, Poll: 5 * time.Millisecond, Client: client,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed worker returned %v, want context.Canceled", err)
	}
	if c.Done() {
		t.Fatal("campaign done with a killed worker's shard outstanding")
	}

	// Rescue workers take the pending shard, then the expired lease.
	runWorkers(t, srv.URL, "rescue", 2)
	if !c.Done() {
		t.Fatal("campaign not done after rescue workers exited")
	}
	if st := c.Stats(); st.Redispatches < 1 {
		t.Fatalf("stats %+v, want the victim's lease re-dispatched", st)
	}
	ds, ms, err := c.Merge()
	if err != nil {
		t.Fatalf("merge after kill: %v", err)
	}
	if ms.Duplicates < 1 {
		t.Fatalf("merge stats %+v, want the victim's durable cell deduped", ms)
	}
	testutil.AssertSameBytes(t, "killed-worker campaign dataset", want, testutil.DatasetBytes(t, ds))
}

// TestCampaignResume: a campaign abandoned half-merged — one shard
// complete, one partially durable — resumes under a fresh coordinator
// that dispatches only the uncovered cells, and still merges to the
// serial bytes.
func TestCampaignResume(t *testing.T) {
	spec := campaignSpec(t)
	want := serialBytes(t, spec)
	dir := t.TempDir()

	// Campaign #1: a lone worker killed after three durable cells —
	// shard 0 (2 cells) completed, shard 1 half done.
	_, srv1 := newCampaign(t, spec, dir, 4, time.Hour)
	ctx1, kill := context.WithCancel(context.Background())
	defer kill()
	client := &http.Client{Transport: &killAfter{
		base: http.DefaultTransport, path: "/heartbeat", limit: 3, kill: kill,
	}}
	_, err := campaign.Work(ctx1, srv1.URL, campaign.WorkerOptions{
		ID: "casualty", Workers: 1, Poll: 5 * time.Millisecond, Client: client,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign #1 worker returned %v, want context.Canceled", err)
	}
	srv1.Close()

	// Campaign #2 over the same directory resumes from coverage.
	c2, srv2 := newCampaign(t, spec, dir, 4, 0)
	st := c2.Stats()
	if st.Covered != 3 {
		t.Fatalf("resumed campaign covered %d cells at start, want 3: %+v", st.Covered, st)
	}
	var pending int
	for _, sh := range st.Shards {
		pending += sh.Cells
	}
	if pending != spec.Cells()-3 {
		t.Fatalf("resumed campaign dispatches %d cells, want %d", pending, spec.Cells()-3)
	}
	runWorkers(t, srv2.URL, "fresh", 2)
	if !c2.Done() {
		t.Fatal("resumed campaign not done")
	}
	ds, _, err := c2.Merge()
	if err != nil {
		t.Fatalf("merge of resumed campaign: %v", err)
	}
	testutil.AssertSameBytes(t, "resumed campaign dataset", want, testutil.DatasetBytes(t, ds))

	// Campaign #3 over the finished directory is born complete.
	c3, err := campaign.NewCoordinator(spec, campaign.Options{Dir: dir})
	if err != nil {
		t.Fatalf("coordinator over finished campaign: %v", err)
	}
	if !c3.Done() {
		t.Fatal("coordinator over a fully covered directory is not born complete")
	}
	ds3, _, err := c3.Merge()
	if err != nil {
		t.Fatalf("merge of finished campaign: %v", err)
	}
	testutil.AssertSameBytes(t, "born-complete campaign dataset", want, testutil.DatasetBytes(t, ds3))
}

// TestCampaignRejectsForeignDirectory: a coordinator must refuse a
// campaign directory holding shards of a different collection identity.
func TestCampaignRejectsForeignDirectory(t *testing.T) {
	spec := campaignSpec(t)
	dir := t.TempDir()
	_, srv := newCampaign(t, spec, dir, 2, 0)
	runWorkers(t, srv.URL, "w", 1)

	foreign := spec
	foreign.Seed = 999
	if _, err := campaign.NewCoordinator(foreign, campaign.Options{Dir: dir}); !errors.Is(err, profile.ErrJournalMismatch) {
		t.Fatalf("foreign coordinator returned %v, want ErrJournalMismatch", err)
	}
}

// TestCampaignAuthToken: with a coordinator token set, tokenless and
// wrong-token workers are refused with 401 on the mutating endpoints
// (counted on /statsz), while tokened workers run the campaign to the
// same bytes as ever.
func TestCampaignAuthToken(t *testing.T) {
	spec := campaignSpec(t)
	want := serialBytes(t, spec)
	dir := t.TempDir()
	const token = "swordfish"
	c, err := campaign.NewCoordinator(spec, campaign.Options{
		Shards: 4, Lease: time.Minute, Dir: dir, Token: token,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// A tokenless worker and a wrong-token worker both die on their first
	// lease call with a 401.
	for _, w := range []campaign.WorkerOptions{
		{ID: "gatecrasher", Workers: 1},
		{ID: "mistyped", Workers: 1, Token: "sw0rdfish"},
	} {
		_, err := campaign.Work(context.Background(), srv.URL, w)
		if err == nil || !strings.Contains(err.Error(), "401") {
			t.Fatalf("worker %s without valid token: err = %v, want 401", w.ID, err)
		}
	}
	// The read-only spec endpoint stays open: both rejects got past it,
	// so exactly two unauthorized requests were counted.
	if got := c.Stats().Unauthorized; got != 2 {
		t.Fatalf("unauthorized count %d, want 2", got)
	}

	// Tokened workers complete the campaign, and the merge still matches
	// the serial reference bitwise.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = campaign.Work(context.Background(), srv.URL, campaign.WorkerOptions{
				ID: fmt.Sprintf("authed%d", i), Workers: 2, Poll: 5 * time.Millisecond, Token: token,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("authed worker %d: %v", i, err)
		}
	}
	if !c.Done() {
		t.Fatal("campaign not done after authed workers finished")
	}
	ds, _, err := c.Merge()
	if err != nil {
		t.Fatal(err)
	}
	testutil.AssertSameBytes(t, "authed campaign merge", want, testutil.DatasetBytes(t, ds))
	if got := c.Stats().Unauthorized; got != 2 {
		t.Fatalf("unauthorized count drifted to %d during the authed run", got)
	}
}
