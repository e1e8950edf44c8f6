package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"stencilmart/internal/gpu"
	"stencilmart/internal/stencil"
)

// LoadgenResult is one load-generation run's record: what was driven and
// what came back.
type LoadgenResult struct {
	URL      string `json:"url"`
	Clients  int    `json:"clients"`
	Requests int    `json:"requests"`
	Errors   int    `json:"errors"`
	// P50/P99/P999Millis are exact quantiles over every request's
	// end-to-end latency (sorted, not interpolated from buckets).
	P50Millis  float64 `json:"p50_ms"`
	P99Millis  float64 `json:"p99_ms"`
	P999Millis float64 `json:"p999_ms"`
	// Throughput is completed requests per wall-clock second.
	Throughput float64 `json:"rps"`
	ElapsedSec float64 `json:"elapsed_s"`
}

// cmdLoadgen hammers a running prediction server with concurrent clients
// cycling through classic stencil shapes on every catalog GPU, then
// reports exact latency quantiles and throughput as one JSON line — a
// smoke-drill driver; measurements belong to `go run ./bench`. -distinct
// swaps the shape cycle for per-request unique stencils so server-side
// dedup and the sim memo cache cannot collapse the stream.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "base URL of a running 'stencilmart serve'")
	clients := fs.Int("clients", 8, "concurrent clients")
	n := fs.Int("n", 50, "requests per client")
	shapes := fs.String("shapes", "star2d1r,star2d2r,box2d1r,star3d1r,star3d2r,box3d1r",
		"comma-separated classic stencil names to cycle through")
	distinct := fs.Bool("distinct", false, "make every request a unique stencil (defeats server-side dedup and sim-cache reuse)")
	lane := fs.String("lane", "", "route requests down this inference lane (f32, f64); empty = server default")
	failOnError := fs.Bool("fail-on-error", false, "exit nonzero if any request fails")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request client timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients < 1 || *n < 1 {
		return fmt.Errorf("loadgen: -clients and -n must be positive")
	}
	if *lane != "" && *lane != "f32" && *lane != "f64" {
		return fmt.Errorf("loadgen: unknown lane %q (f32, f64)", *lane)
	}

	// Pre-build every request body: shapes x GPUs, validated up front so
	// a typo fails fast instead of as a thousand 400s.
	var bodies []string
	if *distinct {
		var err error
		if bodies, err = distinctBodies(*clients * *n); err != nil {
			return err
		}
	} else {
		for _, name := range strings.Split(*shapes, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, err := stencil.ByName(name); err != nil {
				return fmt.Errorf("loadgen: %w", err)
			}
			for _, arch := range gpu.Catalog() {
				bodies = append(bodies, fmt.Sprintf(`{"stencil":%q,"gpu":%q}`, name, arch.Name))
			}
		}
	}
	if len(bodies) == 0 {
		return fmt.Errorf("loadgen: no request shapes")
	}
	predictURL := *url + "/predict"
	if *lane != "" {
		predictURL += "?lane=" + *lane
	}

	client := &http.Client{Timeout: *timeout}
	total := *clients * *n
	latencies := make([]time.Duration, total)
	errs := make([]error, total)

	fmt.Printf("loadgen: %d clients x %d requests against %s (%d distinct shapes)\n",
		*clients, *n, *url, len(bodies))
	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < *n; i++ {
				k := c**n + i
				body := bodies[k%len(bodies)]
				t0 := time.Now()
				resp, err := client.Post(predictURL, "application/json", strings.NewReader(body))
				if err == nil {
					// Read the body in full and require parseable JSON: a
					// connection reset or truncated response mid-body (the
					// chaos drill injects both) must count as a failure, not
					// a silently discarded success.
					data, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					switch {
					case rerr != nil:
						err = fmt.Errorf("reading response for %s: %w", body, rerr)
					case resp.StatusCode != http.StatusOK:
						err = fmt.Errorf("status %d for %s", resp.StatusCode, body)
					case !json.Valid(data):
						err = fmt.Errorf("invalid JSON response for %s", body)
					}
				}
				latencies[k], errs[k] = time.Since(t0), err
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(begin)

	failed := 0
	var firstErr error
	for _, err := range errs {
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	quantile := func(q float64) float64 {
		idx := int(q*float64(total)+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= total {
			idx = total - 1
		}
		return float64(latencies[idx].Nanoseconds()) / 1e6
	}
	res := LoadgenResult{
		URL:        *url,
		Clients:    *clients,
		Requests:   total,
		Errors:     failed,
		P50Millis:  quantile(0.50),
		P99Millis:  quantile(0.99),
		P999Millis: quantile(0.999),
		Throughput: float64(total-failed) / elapsed.Seconds(),
		ElapsedSec: elapsed.Seconds(),
	}

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed > 0 {
		fmt.Printf("loadgen: %d/%d requests failed (first: %v)\n", failed, total, firstErr)
		if *failOnError {
			return fmt.Errorf("loadgen: %d requests failed", failed)
		}
	}
	return nil
}

// distinctBodies builds one unique raw-offset request per slot: the
// star2d1r base pattern plus the k-th lexicographic pair of extra
// offsets from the order<=4 grid (76 candidates, C(76,2) = 2850
// pairings), on a rotating catalog GPU. Every request carries a unique
// name, so even past the pairing wrap the server's per-batch dedup key
// (stencil identity x GPU) never matches two requests — the stream
// stays full-width model work.
func distinctBodies(total int) ([]string, error) {
	base := []stencil.Point{{Dx: 1}, {Dx: -1}, {Dy: 1}, {Dy: -1}}
	inBase := func(p stencil.Point) bool {
		for _, b := range base {
			if p == b {
				return true
			}
		}
		return false
	}
	var extras []stencil.Point
	for dy := -stencil.MaxOrder; dy <= stencil.MaxOrder; dy++ {
		for dx := -stencil.MaxOrder; dx <= stencil.MaxOrder; dx++ {
			p := stencil.Point{Dx: dx, Dy: dy}
			if p.IsCenter() || inBase(p) {
				continue
			}
			extras = append(extras, p)
		}
	}
	pairs := len(extras) * (len(extras) - 1) / 2
	catalog := gpu.Catalog()
	bodies := make([]string, total)
	for k := 0; k < total; k++ {
		// Decode the k-th (i, j) pair with i < j in lexicographic order.
		i, rem := 0, k%pairs
		for rem >= len(extras)-1-i {
			rem -= len(extras) - 1 - i
			i++
		}
		points := append(append([]stencil.Point{{}}, base...), extras[i], extras[i+1+rem])
		name := fmt.Sprintf("d%05d", k)
		if _, err := stencil.New(name, 2, points); err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		req := struct {
			Name   string   `json:"name"`
			Dims   int      `json:"dims"`
			Points [][3]int `json:"points"`
			GPU    string   `json:"gpu"`
		}{Name: name, Dims: 2, GPU: catalog[k%len(catalog)].Name}
		for _, p := range points {
			req.Points = append(req.Points, [3]int{p.Dx, p.Dy, p.Dz})
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		bodies[k] = string(body)
	}
	return bodies, nil
}
