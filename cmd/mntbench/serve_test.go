package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/clocking"
	"repro/internal/core"
	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/server"
	"repro/internal/server/registry"
)

// TestServeStoreLeavesStoreUnchanged pins that serve -store serves the
// store as it is: no startup campaign runs into it, whatever -set and
// -lib say.
func TestServeStoreLeavesStoreUnchanged(t *testing.T) {
	storeDir := t.TempDir()
	st, err := registry.OpenDiskStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.ByName("Trindade16", "mux21")
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.RunFlow(context.Background(), b, core.Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: core.AlgoOrtho}, core.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	item, err := registry.FromEntry(e, "imported")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply([]registry.Item{item}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	db, served, err := openCatalogue(context.Background(), serveSource{storeDir: storeDir, set: "Trindade16", lib: "qcaone"})
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	server.New(db, server.WithStorage(served), server.WithRegistry(obs.NewRegistry()))
	if got := served.Stats(); got.Layouts != 1 || len(got.Campaigns) != 1 || got.Campaigns[0] != "imported" {
		t.Errorf("store after a serve start: %d layouts in campaigns %v, want the 1 imported", got.Layouts, got.Campaigns)
	}
	if err := cmdServe([]string{"-store", storeDir, "-dir", t.TempDir()}); err == nil {
		t.Error("serve accepted -store together with -dir")
	}
}

// TestSidecarAndServerShareDebugRoutes pins that the metrics sidecar
// and the web server answer the same operational routes alike.
func TestSidecarAndServerShareDebugRoutes(t *testing.T) {
	perfDir := t.TempDir()
	snap := &perf.Snapshot{Schema: perf.SchemaVersion, Env: perf.Fingerprint(),
		Results: []perf.Result{{ID: "E1", Name: "TableIQCAOne", Iterations: 1, NsPerOp: 1}}}
	data, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(perfDir, "BENCH_1.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	traces := obs.NewTraceStore(obs.TracePolicy{})
	ready := obs.NewReadiness("")
	ready.Ready()
	sidecar := sidecarMux(reg, ready, nil, traces, perf.Handler(perfDir))
	srv := server.New(&core.Database{}, server.WithRegistry(reg), server.WithTraces(traces),
		server.WithPprof(), server.WithPerfDir(perfDir))
	for _, path := range []string{
		"/metrics", "/healthz", "/readyz", "/debug/events", "/debug/perf",
		"/debug/traces", "/debug/traces/chrome",
		"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol", "/debug/pprof/heap",
	} {
		codes := make([]int, 2)
		for i, h := range []http.Handler{sidecar, srv} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			codes[i] = rec.Code
		}
		if codes[0] == http.StatusNotFound || codes[0] != codes[1] {
			t.Errorf("%s: sidecar %d, server %d", path, codes[0], codes[1])
		}
	}
}
