// Package loadtest drives a registry server handler with a realistic
// concurrent request mix — paginated listings, filtered queries,
// metadata lookups, content-addressed downloads, and conditional
// revalidations — and grades the run against the latency histograms
// the server itself records. The harness is fully in-process: requests
// go straight into the http.Handler, so it measures the handler stack
// (routing, storage snapshots, JSON encoding, ETag handling) without
// socket noise, and the asserted p99 comes from the same
// mntbench_http_request_duration_seconds family that production
// scrapes, proving the observability path and the hot path at once.
package loadtest

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Options tunes a load-test run.
type Options struct {
	// Concurrency is the number of worker goroutines issuing requests
	// (default 32).
	Concurrency int
	// Requests is the total number of requests across all workers
	// (default 1000).
	Requests int
	// MaxP99 fails the run when the merged /v1 latency p99 exceeds it;
	// zero skips the assertion.
	MaxP99 time.Duration
}

// Report summarizes a completed run.
type Report struct {
	Requests    int           // requests issued
	Errors      int           // responses outside the expected status set
	NotModified int           // 304 revalidation hits
	Elapsed     time.Duration // wall clock for the whole run
	P99         time.Duration // merged /v1 latency p99 from the registry
	Mean        time.Duration // merged /v1 latency mean
	Throughput  float64       // requests per wall-clock second
	// Sample holds the first few unexpected responses for diagnosis.
	Sample []string
}

// String renders the report for logs and CLI output.
func (r Report) String() string {
	return fmt.Sprintf("%d requests in %v (%.0f req/s), %d errors, %d not-modified, p99 %v, mean %v",
		r.Requests, r.Elapsed.Round(time.Millisecond), r.Throughput,
		r.Errors, r.NotModified, r.P99.Round(time.Microsecond), r.Mean.Round(time.Microsecond))
}

// planEntry is one templated request in the round-robin mix.
type planEntry struct {
	path string
	// ifNoneMatch, when set, makes the request conditional; 304 is the
	// expected answer.
	ifNoneMatch string
}

// listedLayout is the slice of the /v1 record the planner needs.
type listedLayout struct {
	ID      string `json:"id"`
	Hash    string `json:"sha256"`
	Library string `json:"library"`
}

// buildPlan discovers the handler's catalogue through its own API and
// lays out a deterministic request mix over it. No randomness: workers
// walk the plan round-robin, so runs are reproducible and the mix
// ratio is fixed by construction (per catalogue entry: one metadata
// lookup, one download, one conditional revalidation, plus recurring
// list, filter, and stats probes).
func buildPlan(handler http.Handler) ([]planEntry, error) {
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/layouts?limit=500", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("loadtest: listing the catalogue: HTTP %d", rec.Code)
	}
	var page struct {
		Layouts []listedLayout `json:"layouts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		return nil, fmt.Errorf("loadtest: parsing the catalogue: %w", err)
	}
	if len(page.Layouts) == 0 {
		return nil, fmt.Errorf("loadtest: the store serves no layouts to exercise")
	}
	var plan []planEntry
	for i, l := range page.Layouts {
		// Interleave shared endpoints so they recur throughout the plan
		// instead of clustering.
		switch i % 4 {
		case 0:
			plan = append(plan, planEntry{path: "/v1/layouts?limit=10"})
		case 1:
			plan = append(plan, planEntry{path: "/v1/layouts?library=" + url.QueryEscape(l.Library) + "&limit=10"})
		case 2:
			plan = append(plan, planEntry{path: "/v1/stats"})
		case 3:
			plan = append(plan, planEntry{path: "/v1/filters"})
		}
		plan = append(plan,
			planEntry{path: "/v1/layouts/" + l.ID},
			planEntry{path: "/v1/layouts/" + l.ID + "/layout.fgl"},
			planEntry{path: "/v1/layouts/" + l.ID + "/layout.fgl", ifNoneMatch: `"` + l.Hash + `"`},
			planEntry{path: "/v1/blobs/" + l.Hash},
		)
	}
	return plan, nil
}

// checkPages asserts that the human-facing pages answer 200 over the
// same store before the timed phase: the index, the preview of the
// first catalogued layout, and the unfiltered ZIP bundle. They are not
// part of the timed mix, whose ratio is fixed by buildPlan.
func checkPages(ctx context.Context, handler http.Handler, plan []planEntry) error {
	var preview string
	for _, e := range plan {
		// A layout's first plan entry is its metadata lookup.
		if id, ok := strings.CutPrefix(e.path, "/v1/layouts/"); ok {
			preview = "/preview/" + id + ".svg"
			break
		}
	}
	for _, path := range []string{"/", preview, "/download/bundle.zip"} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("loadtest: GET %s: HTTP %d", path, rec.Code)
		}
	}
	return nil
}

// Run executes the load test against handler and grades it using the
// latency histograms in reg — the registry the handler's middleware
// records into. The /v1 route families are merged bucket-by-bucket
// (every route shares obs.DefBuckets) so the asserted p99 covers the
// whole API surface, weighted by the actual request mix.
func Run(ctx context.Context, handler http.Handler, reg *obs.Registry, opts Options) (Report, error) {
	if ctx == nil {
		//lint:ignore ctxfirst documented fallback: a nil ctx means "no caller context"
		ctx = context.Background()
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 32
	}
	if opts.Requests <= 0 {
		opts.Requests = 1000
	}
	plan, err := buildPlan(handler)
	if err != nil {
		return Report{}, err
	}
	if err := checkPages(ctx, handler, plan); err != nil {
		return Report{}, err
	}

	var (
		issued      atomic.Int64
		errCount    atomic.Int64
		notModified atomic.Int64
		mu          sync.Mutex
		sample      []string
	)
	fail := func(e planEntry, code int) {
		errCount.Add(1)
		mu.Lock()
		if len(sample) < 8 {
			sample = append(sample, fmt.Sprintf("GET %s -> %d", e.path, code))
		}
		mu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Worker w issues requests w, w+C, w+2C, ... — the full plan
			// is covered with no coordination and no shared counters on
			// the hot path.
			for i := worker; i < opts.Requests; i += opts.Concurrency {
				if ctx.Err() != nil {
					return
				}
				e := plan[i%len(plan)]
				req := httptest.NewRequest(http.MethodGet, e.path, nil)
				if e.ifNoneMatch != "" {
					req.Header.Set("If-None-Match", e.ifNoneMatch)
				}
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req.WithContext(ctx))
				issued.Add(1)
				switch {
				case e.ifNoneMatch != "" && rec.Code == http.StatusNotModified:
					notModified.Add(1)
				case rec.Code == http.StatusOK:
				default:
					fail(e, rec.Code)
				}
			}
		}(w)
	}
	wg.Wait()

	rep := Report{
		Requests:    int(issued.Load()),
		Errors:      int(errCount.Load()),
		NotModified: int(notModified.Load()),
		Elapsed:     time.Since(start),
		Sample:      sample,
	}
	if rep.Elapsed > 0 {
		rep.Throughput = float64(rep.Requests) / rep.Elapsed.Seconds()
	}
	if cerr := ctx.Err(); cerr != nil {
		return rep, fmt.Errorf("loadtest: run canceled after %d requests: %w", rep.Requests, cerr)
	}

	merged := mergeV1Latency(reg)
	rep.P99 = time.Duration(merged.Quantile(0.99) * float64(time.Second))
	rep.Mean = time.Duration(merged.Mean() * float64(time.Second))
	if merged.Count == 0 {
		return rep, fmt.Errorf("loadtest: no /v1 observations in %s — is the handler instrumented?", obs.MetricHTTPDuration)
	}
	if rep.Errors > 0 {
		return rep, fmt.Errorf("loadtest: %d of %d requests failed (first: %v)", rep.Errors, rep.Requests, rep.Sample)
	}
	if opts.MaxP99 > 0 && rep.P99 > opts.MaxP99 {
		return rep, fmt.Errorf("loadtest: p99 %v exceeds the %v budget", rep.P99, opts.MaxP99)
	}
	return rep, nil
}

// mergeV1Latency folds the per-route latency histograms of the /v1
// routes into one distribution. All series in the family share the
// same bucket bounds, so cumulative counts add bucket-wise.
func mergeV1Latency(reg *obs.Registry) obs.HistogramSnapshot {
	var merged obs.HistogramSnapshot
	for _, fam := range reg.Snapshot() {
		if fam.Name != obs.MetricHTTPDuration {
			continue
		}
		for _, s := range fam.Series {
			if s.Histogram == nil || !isV1Route(s.Labels) {
				continue
			}
			h := *s.Histogram
			if merged.Buckets == nil {
				merged.Buckets = make([]obs.Bucket, len(h.Buckets))
				copy(merged.Buckets, h.Buckets)
				merged.Count, merged.Sum = h.Count, h.Sum
				continue
			}
			for i := range merged.Buckets {
				if i < len(h.Buckets) {
					merged.Buckets[i].Count += h.Buckets[i].Count
				}
			}
			merged.Count += h.Count
			merged.Sum += h.Sum
		}
	}
	return merged
}

func isV1Route(labels []obs.Label) bool {
	for _, l := range labels {
		if l.Key == "route" && len(l.Value) >= 3 && l.Value[:3] == "/v1" {
			return true
		}
	}
	return false
}
