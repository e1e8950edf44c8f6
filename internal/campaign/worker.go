package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"stencilmart/internal/profile"
)

// WorkerOptions tunes one worker process.
type WorkerOptions struct {
	// ID names the worker in leases and /statsz; it must be unique in
	// the campaign (two workers sharing an id would share WAL files).
	ID string
	// Workers is the local measurement parallelism per shard; 0 uses
	// GOMAXPROCS.
	Workers int
	// Poll is how long to wait between lease attempts when every shard
	// is taken; <= 0 selects DefaultPoll.
	Poll time.Duration
	// Client is the HTTP client; nil uses a default with sane timeouts.
	Client *http.Client
	// Token is sent in the TokenHeader header on every request; it must
	// match the coordinator's token when one is set.
	Token string
}

// WorkStats summarizes one worker's campaign contribution.
type WorkStats struct {
	// Shards is how many shard leases the worker completed.
	Shards int
	// Measured and Resumed count cells measured versus replayed from a
	// prior attempt's shard journal.
	Measured, Resumed int
	// Abandoned counts leases the coordinator revoked mid-shard
	// (expiry re-dispatch won the race).
	Abandoned int
}

// Work joins the campaign at coordURL and measures leased shards until
// the coordinator reports the campaign done or ctx is cancelled. The
// worker heartbeats after every durable cell; when a heartbeat reports
// the lease revoked, the shard is abandoned mid-flight (its durable
// cells still merge) and the worker asks for new work.
func Work(ctx context.Context, coordURL string, opts WorkerOptions) (WorkStats, error) {
	var stats WorkStats
	if opts.ID == "" {
		return stats, fmt.Errorf("campaign: worker needs an id")
	}
	if opts.Poll <= 0 {
		opts.Poll = DefaultPoll
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	coordURL = strings.TrimSuffix(coordURL, "/")

	var spec Spec
	if err := getJSON(ctx, opts.Client, coordURL+"/spec", opts.Token, &spec); err != nil {
		return stats, fmt.Errorf("campaign: fetching spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return stats, err
	}
	prof := spec.NewProfiler(opts.Workers)

	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		var lease LeaseResponse
		err := postJSON(ctx, opts.Client, coordURL+"/lease", opts.Token, leaseRequest{Worker: opts.ID}, &lease)
		if err != nil {
			if stats.Shards > 0 && isConnectionError(err) {
				// The coordinator merged and exited while we polled; the
				// campaign is over and our shards are durable.
				return stats, nil
			}
			return stats, fmt.Errorf("campaign: lease: %w", err)
		}
		switch {
		case lease.Done:
			return stats, nil
		case lease.Wait:
			select {
			case <-ctx.Done():
				return stats, ctx.Err()
			case <-time.After(opts.Poll):
			}
			continue
		}

		revoked, st, err := workShard(ctx, opts, prof, spec, coordURL, lease)
		stats.Measured += st.Measured
		stats.Resumed += st.Resumed
		switch {
		case revoked:
			stats.Abandoned++
			continue
		case err != nil:
			return stats, err
		}
		stats.Shards++
	}
}

// workShard measures one leased shard, heartbeating per durable cell,
// and reports completion. revoked is true when the coordinator
// re-dispatched the lease out from under us.
func workShard(ctx context.Context, opts WorkerOptions, prof *profile.Profiler, spec Spec, coordURL string, lease LeaseResponse) (revoked bool, st shardWork, err error) {
	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var cellsDone atomic.Int64
	var cancelled atomic.Bool
	onCell := func(int) {
		n := int(cellsDone.Add(1))
		var hb heartbeatResponse
		hbErr := postJSON(ctx, opts.Client, coordURL+"/heartbeat", opts.Token, heartbeatRequest{
			Worker: opts.ID, Shard: lease.Shard, Attempt: lease.Attempt,
			CellsDone: n,
		}, &hb)
		// Treat an unreachable coordinator like a revocation: stop
		// spending effort on a lease nobody is tracking. The durable
		// cells keep their value either way.
		if hbErr != nil || hb.Cancelled {
			cancelled.Store(true)
			cancel()
		}
	}

	stats, err := prof.CollectShard(shardCtx, lease.Path, spec.Stencils, spec.Archs, lease.Cells, onCell)
	st = shardWork{Measured: int(cellsDone.Load()), Resumed: stats.Resumed}
	if err != nil {
		if cancelled.Load() && ctx.Err() == nil {
			return true, st, nil
		}
		return false, st, err
	}
	if err := postJSON(ctx, opts.Client, coordURL+"/complete", opts.Token, completeRequest{
		Worker: opts.ID, Shard: lease.Shard, Attempt: lease.Attempt,
	}, &struct{}{}); err != nil {
		return false, st, fmt.Errorf("campaign: reporting shard %d complete: %w", lease.Shard, err)
	}
	return false, st, nil
}

// shardWork counts one shard attempt's contribution.
type shardWork struct {
	Measured, Resumed int
}

// getJSON GETs url into out, attaching the campaign token when set.
func getJSON(ctx context.Context, client *http.Client, url, token string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if token != "" {
		req.Header.Set(TokenHeader, token)
	}
	return doJSON(client, req, out)
}

// postJSON POSTs body to url and decodes the response into out,
// attaching the campaign token when set.
func postJSON(ctx context.Context, client *http.Client, url, token string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set(TokenHeader, token)
	}
	return doJSON(client, req, out)
}

func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(snippet))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// isConnectionError reports a transport-level failure (refused, reset,
// closed) as opposed to an HTTP-level error response.
func isConnectionError(err error) bool {
	return err != nil && !errors.Is(err, context.Canceled) &&
		(strings.Contains(err.Error(), "connection refused") ||
			strings.Contains(err.Error(), "connection reset") ||
			strings.Contains(err.Error(), "EOF"))
}
