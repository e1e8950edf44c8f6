package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"stencilmart/internal/gpu"
)

// loadgenShapes are the classic stencils loadgen cycles through, each on
// every catalog GPU.
var loadgenShapes = []string{"star2d1r", "star2d2r", "box2d1r", "star3d1r", "star3d2r", "box3d1r"}

// LoadgenResult is one load-generation run's record: what was driven and
// what came back.
type LoadgenResult struct {
	URL      string `json:"url"`
	Clients  int    `json:"clients"`
	Requests int    `json:"requests"`
	Errors   int    `json:"errors"`
}

// cmdLoadgen drives a running prediction server with concurrent clients
// cycling through classic stencil shapes on every catalog GPU, then
// reports how many requests failed as one JSON line — the serve smokes'
// traffic source; latency and throughput are measured by `go run ./bench`.
func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "base URL of a running 'stencilmart serve'")
	clients := fs.Int("clients", 8, "concurrent clients")
	n := fs.Int("n", 50, "requests per client")
	failOnError := fs.Bool("fail-on-error", false, "exit nonzero if any request fails")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients < 1 || *n < 1 {
		return fmt.Errorf("loadgen: -clients and -n must be positive")
	}

	var bodies []string
	for _, name := range loadgenShapes {
		for _, arch := range gpu.Catalog() {
			bodies = append(bodies, fmt.Sprintf(`{"stencil":%q,"gpu":%q}`, name, arch.Name))
		}
	}
	predictURL := *url + "/predict"
	client := &http.Client{Timeout: time.Minute}
	total := *clients * *n
	errs := make([]error, total)

	fmt.Printf("loadgen: %d clients x %d requests against %s (%d distinct shapes)\n",
		*clients, *n, *url, len(bodies))
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < *n; i++ {
				k := c**n + i
				body := bodies[k%len(bodies)]
				resp, err := client.Post(predictURL, "application/json", strings.NewReader(body))
				if err == nil {
					// Read the body in full and require parseable JSON: a
					// connection reset or truncated response mid-body must
					// count as a failure, not a silently discarded success.
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
				errs[k] = err
			}
		}(c)
	}
	wg.Wait()

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
	line, err := json.Marshal(LoadgenResult{URL: *url, Clients: *clients, Requests: total, Errors: failed})
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
