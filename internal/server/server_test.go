package server

import (
	"archive/zip"
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"html"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/clocking"
	"repro/internal/core"
	"repro/internal/fgl"
	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/server/registry"
	"repro/internal/verilog"
)

// testDB builds a tiny two-entry database (one per library).
func testDB(t *testing.T) *core.Database {
	t.Helper()
	limits := core.Limits{ExactTimeout: time.Second, NanoTimeout: time.Second}
	b, err := bench.ByName("Trindade16", "mux21")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	e1, err := core.RunFlow(ctx, b, core.Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: core.AlgoOrtho}, limits)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := core.RunFlow(ctx, b, core.Flow{Library: gatelib.Bestagon, Scheme: clocking.Row, Algorithm: core.AlgoOrtho, Hexagonalize: true}, limits)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := core.RunFlow(ctx, b, core.Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: core.AlgoOrtho, InputOrder: true, PostLayout: true}, limits)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Database{Entries: []*core.Entry{e1, e2, e3}}
}

func get(t *testing.T, srv *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// pageLinks returns the href targets of an HTML page, unescaped.
func pageLinks(body string) []string {
	var out []string
	for _, m := range hrefRE.FindAllStringSubmatch(body, -1) {
		out = append(out, html.UnescapeString(m[1]))
	}
	return out
}

var hrefRE = regexp.MustCompile(`href="([^"]+)"`)

// indexIDs lists the layout IDs of the catalogue rows that GET path
// renders, in page order (one preview link per row).
func indexIDs(t *testing.T, srv *Server, path string) []string {
	t.Helper()
	rec := get(t, srv, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	var ids []string
	for _, l := range pageLinks(rec.Body.String()) {
		if id, ok := strings.CutPrefix(l, "/preview/"); ok {
			ids = append(ids, strings.TrimSuffix(id, ".svg"))
		}
	}
	return ids
}

func TestIndexPage(t *testing.T) {
	srv := New(testDB(t))
	rec := get(t, srv, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"MNT Bench", "Gate Library", "Clocking Scheme", "Physical Design Algorithm", "Optimization Algorithm", "mux21"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestIndexFilters(t *testing.T) {
	db := testDB(t)
	srv := New(db)
	for _, tc := range []struct {
		path string
		want []string
	}{
		{"/", []string{
			"trindade16__mux21__qcaone_2ddwave_ortho",
			"trindade16__mux21__qcaone_2ddwave_ortho+inord+plo",
			"trindade16__mux21__bestagon_row_ortho+hex",
		}},
		{"/?library=Bestagon", []string{"trindade16__mux21__bestagon_row_ortho+hex"}},
		{"/?plo=1", []string{"trindade16__mux21__qcaone_2ddwave_ortho+inord+plo"}},
		{"/?library=QCA+ONE&best=1", []string{core.EntryFileName(db.Best("Trindade16", "mux21", gatelib.QCAOne))}},
	} {
		sort.Strings(tc.want)
		if got := indexIDs(t, srv, tc.path); !sameIDs(got, tc.want) {
			t.Errorf("%s: rows %v, want %v", tc.path, got, tc.want)
		}
	}
	// A typo must not silently show the unfiltered catalogue.
	for _, path := range []string{"/?libary=typo", "/download/bundle.zip?libary=typo"} {
		rec := get(t, srv, path)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad filter") {
			t.Errorf("%s: status %d %q, want 400 bad filter", path, rec.Code, rec.Body)
		}
	}
}

func TestDownloadFGL(t *testing.T) {
	srv := New(testDB(t))
	rec := get(t, srv, "/?library=QCA+ONE")
	var fglURL, vURL string
	for _, l := range pageLinks(rec.Body.String()) {
		switch {
		case fglURL == "" && strings.HasSuffix(l, "/layout.fgl"):
			fglURL = l
		case vURL == "" && strings.HasSuffix(l, ".v"):
			vURL = l
		}
	}
	if fglURL == "" || vURL == "" {
		t.Fatalf("no download links on the index: %q / %q", fglURL, vURL)
	}
	rec = get(t, srv, fglURL)
	if rec.Code != http.StatusOK {
		t.Fatalf("fgl download status %d", rec.Code)
	}
	if _, err := fgl.ReadString(rec.Body.String()); err != nil {
		t.Fatalf("served .fgl does not parse: %v", err)
	}
	rec = get(t, srv, vURL)
	if rec.Code != http.StatusOK {
		t.Fatalf("verilog download status %d", rec.Code)
	}
	if _, err := verilog.ParseString(rec.Body.String()); err != nil {
		t.Fatalf("served .v does not parse: %v", err)
	}
}

func TestDownloadNotFound(t *testing.T) {
	st := registry.NewMemStore()
	srv := New(testDB(t), WithStorage(st))
	// A layout of a function outside the benchmark suites has no
	// network description to serve.
	body, err := st.Blob(st.Snapshot()[0].Hash)
	if err != nil {
		t.Fatal(err)
	}
	synth := registry.Record{ID: "synth__net1__qcaone_2ddwave_ortho", Set: "synth", Name: "net1", Library: "QCA ONE"}
	if _, err := st.Apply([]registry.Item{registry.NewItem(synth, body)}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/download/nope.v", "/download/nope.fgl", "/download/nope.xyz",
		"/download/" + synth.ID + ".v", "/preview/nope.svg",
	} {
		if rec := get(t, srv, path); rec.Code != http.StatusNotFound {
			t.Errorf("%s: status %d", path, rec.Code)
		}
	}
}

func TestBundleZip(t *testing.T) {
	srv := New(testDB(t))
	rec := get(t, srv, "/download/bundle.zip?library=QCA+ONE")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	zr, err := zip.NewReader(bytes.NewReader(rec.Body.Bytes()), int64(rec.Body.Len()))
	if err != nil {
		t.Fatal(err)
	}
	var fglCount, vCount int
	for _, f := range zr.File {
		switch {
		case strings.HasSuffix(f.Name, ".fgl"):
			fglCount++
			rc, err := f.Open()
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(rc)
			rc.Close()
			if _, err := fgl.ReadString(string(data)); err != nil {
				t.Errorf("bundled %s invalid: %v", f.Name, err)
			}
		case strings.HasSuffix(f.Name, ".v"):
			vCount++
		}
	}
	if fglCount != 2 || vCount != 1 {
		t.Errorf("bundle has %d fgl / %d v files, want 2/1", fglCount, vCount)
	}
}

func TestBundleEmptyFilter(t *testing.T) {
	srv := New(testDB(t))
	if rec := get(t, srv, "/download/bundle.zip?set=EPFL"); rec.Code != http.StatusNotFound {
		t.Errorf("status %d", rec.Code)
	}
}

func TestPreviewSVG(t *testing.T) {
	srv := New(testDB(t))
	ids := indexIDs(t, srv, "/?library=QCA+ONE")
	if len(ids) == 0 {
		t.Fatal("no preview links")
	}
	rec := get(t, srv, "/preview/"+ids[0]+".svg")
	if rec.Code != http.StatusOK {
		t.Fatalf("preview status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "<svg") {
		t.Error("not an SVG")
	}
}

func TestSubmitLayout(t *testing.T) {
	srv := New(testDB(t))
	// Build a better mux21 layout (exact-style small one via PLO).
	b, err := bench.ByName("Trindade16", "mux21")
	if err != nil {
		t.Fatal(err)
	}
	limits := core.Limits{ExactTimeout: time.Second, NanoTimeout: time.Second, PLOTimeout: 5 * time.Second}
	e, err := core.RunFlow(context.Background(), b, core.Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave,
		Algorithm: core.AlgoOrtho, InputOrder: true, PostLayout: true}, limits)
	if err != nil {
		t.Fatal(err)
	}
	text, err := fgl.WriteString(e.Layout)
	if err != nil {
		t.Fatal(err)
	}

	post := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	rec := post("/api/submit?set=Trindade16&name=mux21", text)
	if rec.Code != http.StatusOK {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		ID       string `json:"id"`
		Area     int    `json:"area"`
		NewBest  bool   `json:"new_best"`
		PrevBest int    `json:"previous_best_area"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Area != e.Area {
		t.Errorf("area %d, want %d", resp.Area, e.Area)
	}
	if resp.PrevBest == 0 {
		t.Error("previous best area missing")
	}
	if resp.NewBest != (resp.Area < resp.PrevBest) {
		t.Errorf("new_best=%v inconsistent with %d vs %d", resp.NewBest, resp.Area, resp.PrevBest)
	}
	// The submission must now be downloadable.
	if rec := get(t, srv, "/v1/layouts/"+resp.ID+"/layout.fgl"); rec.Code != http.StatusOK {
		t.Errorf("submitted layout not downloadable: %d", rec.Code)
	}

	// Wrong-function submission is rejected.
	if rec := post("/api/submit?set=Trindade16&name=xor2", text); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("wrong-function submission status %d", rec.Code)
	}
	// Unknown benchmark.
	if rec := post("/api/submit?set=Nope&name=x", text); rec.Code != http.StatusNotFound {
		t.Errorf("unknown benchmark status %d", rec.Code)
	}
	// Junk body.
	if rec := post("/api/submit?set=Trindade16&name=mux21", "garbage"); rec.Code != http.StatusBadRequest {
		t.Errorf("junk submission status %d", rec.Code)
	}
	// GET is not allowed.
	if rec := get(t, srv, "/api/submit?set=Trindade16&name=mux21"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d", rec.Code)
	}
}

func TestMetricsReflectRequests(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(testDB(t), WithRegistry(reg))

	if rec := get(t, srv, "/"); rec.Code != http.StatusOK {
		t.Fatalf("index status %d", rec.Code)
	}
	if rec := get(t, srv, "/download/nope.v"); rec.Code != http.StatusNotFound {
		t.Fatalf("download status %d", rec.Code)
	}

	rec := get(t, srv, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`mntbench_http_requests_total{code="200",route="/"} 1`,
		`mntbench_http_requests_total{code="404",route="/download"} 1`,
		`mntbench_http_request_duration_seconds_count{route="/"} 1`,
		`mntbench_http_requests_in_flight 1`, // the /metrics request itself
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	// JSON dump variant.
	rec = get(t, srv, "/metrics?format=json")
	var dump map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("json dump: %v", err)
	}
	if _, ok := dump[obs.MetricHTTPRequests]; !ok {
		t.Errorf("json dump missing %s: %v", obs.MetricHTTPRequests, dump)
	}
}

func TestHealthz(t *testing.T) {
	srv := New(testDB(t), WithRegistry(obs.NewRegistry()))
	rec := get(t, srv, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := strings.TrimSpace(rec.Body.String()); !strings.Contains(got, "ok") {
		t.Errorf("body %q", got)
	}
}

func TestPprofOptIn(t *testing.T) {
	db := testDB(t)
	plain := New(db, WithRegistry(obs.NewRegistry()))
	if rec := get(t, plain, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status %d", rec.Code)
	}
	prof := New(db, WithRegistry(obs.NewRegistry()), WithPprof())
	if rec := get(t, prof, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Errorf("pprof with opt-in: status %d", rec.Code)
	}
}

func TestTracesOptIn(t *testing.T) {
	db := testDB(t)
	plain := New(db, WithRegistry(obs.NewRegistry()))
	if rec := get(t, plain, "/debug/traces"); rec.Code != http.StatusNotFound {
		t.Errorf("traces without opt-in: status %d", rec.Code)
	}

	ts := obs.NewTraceStore(obs.TracePolicy{})
	srv := New(db, WithRegistry(obs.NewRegistry()), WithTraces(ts))
	if rec := get(t, srv, "/"); rec.Code != http.StatusOK {
		t.Fatalf("index status %d", rec.Code)
	}
	if rec := get(t, srv, "/download/nope.v"); rec.Code != http.StatusNotFound {
		t.Fatalf("download status %d", rec.Code)
	}

	// Both requests were traced; the index lists them with their route
	// label and status code annotations.
	rec := get(t, srv, "/debug/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", rec.Code)
	}
	var index struct {
		Enabled bool `json:"enabled"`
		Traces  []struct {
			ID    string            `json:"id"`
			Root  string            `json:"root"`
			Attrs map[string]string `json:"attrs"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &index); err != nil {
		t.Fatalf("index: %v\n%s", err, rec.Body.String())
	}
	if !index.Enabled || len(index.Traces) < 2 {
		t.Fatalf("index = %+v", index)
	}
	paths := map[string]bool{}
	for _, tr := range index.Traces {
		if tr.Root != "http" {
			t.Errorf("trace root = %q", tr.Root)
		}
		paths[tr.Attrs["path"]] = true
	}
	if !paths["/"] || !paths["/download/nope.v"] {
		t.Errorf("request paths not annotated: %v", paths)
	}

	// Detail view round-trips one trace.
	rec = get(t, srv, "/debug/traces/"+index.Traces[0].ID)
	var tr obs.Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("detail: %v", err)
	}
	if tr.ID != index.Traces[0].ID || len(tr.Events) == 0 {
		t.Errorf("detail = %+v", tr)
	}

	// Chrome export of the retained request traces decodes.
	rec = get(t, srv, "/debug/traces/chrome")
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans < 2 {
		t.Errorf("chrome export has %d span events, want >= 2", spans)
	}
}

func TestBuildInfoOnMetrics(t *testing.T) {
	srv := New(testDB(t), WithRegistry(obs.NewRegistry()))
	rec := get(t, srv, "/metrics")
	if !strings.Contains(rec.Body.String(), "mntbench_build_info{") {
		t.Error("/metrics missing mntbench_build_info")
	}
}

func TestRuntimeGaugesOnMetrics(t *testing.T) {
	srv := New(testDB(t), WithRegistry(obs.NewRegistry()))
	rec := get(t, srv, "/metrics")
	body := rec.Body.String()
	for _, want := range []string{
		obs.MetricGoGoroutines, obs.MetricGoHeapLive, obs.MetricGoGCCycles,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing runtime gauge %s", want)
		}
	}
}

func TestDebugPerfServesLatestSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv := New(testDB(t), WithRegistry(obs.NewRegistry()), WithPerfDir(dir))

	rec := get(t, srv, "/debug/perf")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/perf with no snapshots: status %d, want 404", rec.Code)
	}

	snap := &perf.Snapshot{
		Schema: perf.SchemaVersion,
		Env:    perf.Fingerprint(),
		Results: []perf.Result{{
			ID: "E1", Name: "TableIQCAOne", Iterations: 1, NsPerOp: 1e9,
		}},
	}
	data, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_1.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_2.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec = get(t, srv, "/debug/perf")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/perf status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Perf-Snapshot"); got != "2" {
		t.Errorf("served snapshot %q, want the latest (2)", got)
	}
	if _, err := perf.Unmarshal(rec.Body.Bytes()); err != nil {
		t.Errorf("served snapshot invalid: %v", err)
	}

	// The debug route is a bounded metric label.
	if got := routeLabel(httptest.NewRequest(http.MethodGet, "/debug/perf", nil)); got != "/debug/perf" {
		t.Errorf("routeLabel(/debug/perf) = %q", got)
	}
}

func TestReadyzLifecycle(t *testing.T) {
	srv := New(testDB(t), WithRegistry(obs.NewRegistry()))
	rec := get(t, srv, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz on a fresh server: status %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"ready"`) {
		t.Errorf("/readyz body %q", rec.Body.String())
	}
	srv.BeginShutdown()
	rec = get(t, srv, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after BeginShutdown: status %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "shutting down") {
		t.Errorf("/readyz drain body %q", rec.Body.String())
	}
	// Liveness is unaffected: the process still responds while draining.
	if rec := get(t, srv, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("/healthz during drain: status %d", rec.Code)
	}
	// The readiness route is a bounded metric label.
	if got := routeLabel(httptest.NewRequest(http.MethodGet, "/readyz", nil)); got != "/readyz" {
		t.Errorf("routeLabel(/readyz) = %q", got)
	}
}

func TestDebugEventsWithoutJournal(t *testing.T) {
	srv := New(testDB(t), WithRegistry(obs.NewRegistry()))
	if rec := get(t, srv, "/debug/events"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/debug/events without a journal: status %d, want 503", rec.Code)
	}
	if got := routeLabel(httptest.NewRequest(http.MethodGet, "/debug/events", nil)); got != "/debug/events" {
		t.Errorf("routeLabel(/debug/events) = %q", got)
	}
}

// TestDebugEventsStreams drives the SSE feed through the full server
// stack — obs middleware included, which must pass Flush through to the
// client — with a real HTTP connection.
func TestDebugEventsStreams(t *testing.T) {
	j := obs.NewJournal(nil, obs.NewRegistry())
	defer j.Close()
	srv := New(testDB(t), WithRegistry(obs.NewRegistry()), WithJournal(j))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	greeting, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(greeting, ":") {
		t.Fatalf("greeting %q is not an SSE comment", greeting)
	}

	j.Append(obs.Event{Type: obs.EventCampaignStart, Campaign: "c1", Schema: obs.JournalSchema})

	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		if strings.HasPrefix(line, "event: ") {
			if strings.TrimSpace(line) != "event: campaign_start" {
				t.Errorf("event line %q", line)
			}
			data, err := br.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(data, `"campaign":"c1"`) {
				t.Errorf("data line %q", data)
			}
			return
		}
	}
}

// TestPagesReadTheStore pins the single serving path: over a store
// holding records that New's database lacks, the index, the previews,
// the .v downloads and the ZIP bundle show exactly the records a
// /v1/layouts walk returns under the same filter, and a submission
// shows up on every one of them.
func TestPagesReadTheStore(t *testing.T) {
	db := testDB(t)
	st := registry.NewMemStore()
	for _, e := range db.Entries {
		item, err := registry.FromEntry(e, "imported")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Apply([]registry.Item{item}); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(&core.Database{Entries: db.Entries[:1]}, WithStorage(st))

	walk := func(query string) []string {
		var ids []string
		cursor := ""
		for {
			path := "/v1/layouts?limit=1&" + query
			if cursor != "" {
				path += "&cursor=" + url.QueryEscape(cursor)
			}
			var page v1ListResponse
			if err := json.Unmarshal(get(t, srv, path).Body.Bytes(), &page); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, r := range page.Layouts {
				ids = append(ids, r.ID)
			}
			if page.NextCursor == "" {
				sort.Strings(ids)
				return ids
			}
			cursor = page.NextCursor
		}
	}
	check := func(query string) []string {
		t.Helper()
		want := walk(query)
		if got := indexIDs(t, srv, "/?"+query); !sameIDs(got, want) {
			t.Errorf("index %q shows %v, /v1 walk %v", query, got, want)
		}
		for _, id := range want {
			for _, path := range []string{"/preview/" + id + ".svg", "/download/" + id + ".v"} {
				if rec := get(t, srv, path); rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", path, rec.Code)
				}
			}
		}
		rec := get(t, srv, "/download/bundle.zip?"+query)
		zr, err := zip.NewReader(bytes.NewReader(rec.Body.Bytes()), int64(rec.Body.Len()))
		if err != nil {
			t.Fatalf("bundle %q: status %d: %v", query, rec.Code, err)
		}
		var bundled []string
		for _, f := range zr.File {
			if id, ok := strings.CutSuffix(f.Name, ".fgl"); ok {
				bundled = append(bundled, id)
			}
		}
		if !sameIDs(bundled, want) {
			t.Errorf("bundle %q holds %v, /v1 walk %v", query, bundled, want)
		}
		return want
	}
	for _, query := range []string{"", "library=QCA+ONE", "plo=0"} {
		if ids := check(query); len(ids) == 0 {
			t.Errorf("%q: empty walk", query)
		}
	}
	if got := len(check("")); got != 3 {
		t.Fatalf("catalogue holds %d layouts, want the store's 3", got)
	}

	req := httptest.NewRequest(http.MethodPost, "/api/submit?set=Trindade16&name=mux21", strings.NewReader(submittableLayout(t)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"", "library=QCA+ONE", "plo=0"} {
		if ids := check(query); !slices.Contains(ids, resp.ID) {
			t.Errorf("%q: submission %s missing from %v", query, resp.ID, ids)
		}
	}
}

func sameIDs(got, want []string) bool {
	got = append([]string(nil), got...)
	sort.Strings(got)
	return reflect.DeepEqual(got, want)
}

// TestBestMatchesTableI pins that the "most optimal only" box picks the
// layout Table I does.
func TestBestMatchesTableI(t *testing.T) {
	db := goldenDB(t)
	srv := New(db)
	var want []string
	for _, lib := range gatelib.All() {
		if e := db.Best("Trindade16", "mux21", lib); e != nil {
			want = append(want, core.EntryFileName(e))
		}
	}
	sort.Strings(want)
	if got := indexIDs(t, srv, "/?best=1"); !sameIDs(got, want) {
		t.Errorf("best=1 shows %v, Database.Best picks %v", got, want)
	}
}

// failingStore is a store whose writes fail, like a full disk.
type failingStore struct{ *registry.MemStore }

func (failingStore) Apply([]registry.Item) (registry.Applied, error) {
	return registry.Applied{}, errors.New("disk full")
}

// TestSubmitStoreFailureIs500 pins that a submission the store could
// not record is not reported as accepted.
func TestSubmitStoreFailureIs500(t *testing.T) {
	srv := New(&core.Database{}, WithStorage(failingStore{registry.NewMemStore()}))
	req := httptest.NewRequest(http.MethodPost, "/api/submit?set=Trindade16&name=mux21", strings.NewReader(submittableLayout(t)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "disk full") {
		t.Fatalf("submit into a failing store: status %d %q, want 500", rec.Code, rec.Body)
	}
}
