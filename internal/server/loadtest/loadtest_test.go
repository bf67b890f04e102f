package loadtest

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/clocking"
	"repro/internal/core"
	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/server"
)

// registryServer builds a server over a small generated database with
// its own metrics registry, the setup every load test grades against.
func registryServer(t testing.TB) (*server.Server, *obs.Registry) {
	t.Helper()
	db := &core.Database{}
	flow := core.Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: core.AlgoOrtho}
	for _, name := range []string{"mux21", "xor2", "xnor2"} {
		b, err := bench.ByName("trindade16", name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.RunFlow(context.Background(), b, flow, core.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		db.Entries = append(db.Entries, e)
	}
	reg := obs.NewRegistry()
	return server.New(db, server.WithRegistry(reg)), reg
}

// TestSustainedConcurrentLoad is the acceptance gate: one thousand
// concurrent workers, thousands of requests, zero errors, and a p99
// asserted from the server's own latency histograms.
func TestSustainedConcurrentLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	srv, reg := registryServer(t)
	rep, err := Run(context.Background(), srv, reg, Options{
		Concurrency: 1000,
		Requests:    6000,
		MaxP99:      500 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("load test failed: %v\n%s", err, rep)
	}
	t.Logf("load test: %s", rep)
	if rep.Requests != 6000 {
		t.Errorf("issued %d requests, want 6000", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Errorf("%d errors: %v", rep.Errors, rep.Sample)
	}
	if rep.NotModified == 0 {
		t.Error("no 304 revalidation hits — the conditional mix did not run")
	}
	if rep.P99 <= 0 {
		t.Error("p99 not computed from the metrics registry")
	}
	if rep.Throughput <= 0 {
		t.Error("throughput not computed")
	}
}

// TestRunFailsOnErrorResponses pins that the harness does not bury
// failing responses in an averaged success metric.
func TestRunFailsOnErrorResponses(t *testing.T) {
	srv, reg := registryServer(t)
	// A wrapper that sabotages every blob request.
	broken := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if len(r.URL.Path) > 9 && r.URL.Path[:9] == "/v1/blobs" {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		srv.ServeHTTP(w, r)
	})
	rep, err := Run(context.Background(), broken, reg, Options{Concurrency: 8, Requests: 200})
	if err == nil {
		t.Fatalf("run over a broken handler passed: %s", rep)
	}
	if rep.Errors == 0 || len(rep.Sample) == 0 {
		t.Fatalf("failures not reported: %s", rep)
	}
}

// TestRunFailsOnBrokenPage pins that the human-facing pages are
// checked over the same store before the timed /v1 phase.
func TestRunFailsOnBrokenPage(t *testing.T) {
	srv, reg := registryServer(t)
	for _, page := range []string{"/", "/preview/", "/download/bundle.zip"} {
		broken := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, page) && (page != "/" || r.URL.Path == "/") {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			srv.ServeHTTP(w, r)
		})
		if _, err := Run(context.Background(), broken, reg, Options{Concurrency: 2, Requests: 10}); err == nil || !strings.Contains(err.Error(), page) {
			t.Errorf("run with a broken %s page: err = %v", page, err)
		}
	}
}

// TestRunFailsOnTightP99 pins that the p99 budget is a real assertion:
// an artificially slowed handler must fail a microsecond budget.
func TestRunFailsOnTightP99(t *testing.T) {
	srv, reg := registryServer(t)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		srv.ServeHTTP(w, r)
	})
	_, err := Run(context.Background(), slow, reg, Options{
		Concurrency: 4, Requests: 100, MaxP99: time.Microsecond,
	})
	if err == nil {
		t.Fatal("a 2ms-per-request handler passed a 1µs p99 budget")
	}
}

// TestRunRefusesEmptyStore pins the guard against vacuous green runs.
func TestRunRefusesEmptyStore(t *testing.T) {
	reg := obs.NewRegistry()
	srv := server.New(&core.Database{}, server.WithRegistry(reg))
	if _, err := Run(context.Background(), srv, reg, Options{Concurrency: 2, Requests: 10}); err == nil {
		t.Fatal("load test ran against an empty store")
	}
}

// TestRunCanceled pins prompt cancellation.
func TestRunCanceled(t *testing.T) {
	srv, reg := registryServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cancel() // first request cancels the run
		srv.ServeHTTP(w, r)
	})
	rep, err := Run(ctx, slow, reg, Options{Concurrency: 2, Requests: 100000})
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	if rep.Requests >= 100000 {
		t.Fatal("cancellation did not stop the workers")
	}
}

// TestBuildPlanMix pins the request-mix construction: every catalogue
// entry contributes its lookup, download, revalidation, and blob
// requests, and the shared endpoints recur.
func TestBuildPlanMix(t *testing.T) {
	srv, _ := registryServer(t)
	plan, err := buildPlan(srv)
	if err != nil {
		t.Fatal(err)
	}
	var lists, conds, blobs int
	for _, e := range plan {
		switch {
		case e.ifNoneMatch != "":
			conds++
		case e.path == "/v1/layouts?limit=10":
			lists++
		case len(e.path) > 9 && e.path[:9] == "/v1/blobs":
			blobs++
		}
	}
	if conds != 3 || blobs != 3 {
		t.Errorf("plan has %d conditional and %d blob requests, want 3 each", conds, blobs)
	}
	if lists == 0 {
		t.Error("plan has no paginated list requests")
	}
	// The recorder-based plan builder must not leak into the metrics
	// that a later Run grades (buildPlan runs against the bare handler
	// before Run's own probes) — just ensure it terminates repeatably.
	again, err := buildPlan(srv)
	if err != nil || len(again) != len(plan) {
		t.Errorf("plan not reproducible: %d vs %d entries, %v", len(again), len(plan), err)
	}
}
