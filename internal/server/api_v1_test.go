package server

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/clocking"
	"repro/internal/core"
	"repro/internal/fgl"
	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/server/registry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden API fixtures")

// goldenDB builds the deterministic database the contract fixtures pin:
// ortho flows are reproducible and runtimes are zeroed so the JSON is
// byte-stable across machines.
func goldenDB(t *testing.T) *core.Database {
	t.Helper()
	db := testDB(t)
	for _, e := range db.Entries {
		e.Runtime = 0
	}
	return db
}

// checkGolden compares got against testdata/golden/<name>; -update
// rewrites the fixture.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run go test ./internal/server -update): %v", path, err)
	}
	if string(want) != string(got) {
		t.Errorf("%s drifted from its golden fixture.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// indentJSON reformats a response body so fixtures diff readably.
func indentJSON(t *testing.T, data []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, data)
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func TestV1GoldenContract(t *testing.T) {
	srv := New(goldenDB(t))
	mux21 := "trindade16__mux21__qcaone_2ddwave_ortho"
	cases := []struct {
		fixture string
		path    string
	}{
		{"v1_index.json", "/v1"},
		{"v1_layouts.json", "/v1/layouts"},
		{"v1_layouts_filtered.json", "/v1/layouts?library=Bestagon"},
		{"v1_layout_mux21.json", "/v1/layouts/" + mux21},
		{"v1_filters.json", "/v1/filters"},
		{"v1_stats.json", "/v1/stats"},
		{"v1_error_bad_filter.json", "/v1/layouts?libary=typo"},
		{"v1_error_bad_cursor.json", "/v1/layouts?cursor=!!!"},
		{"v1_error_not_found.json", "/v1/layouts/no__such__layout"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			rec := get(t, srv, tc.path)
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			checkGolden(t, tc.fixture, indentJSON(t, rec.Body.Bytes()))
		})
	}
}

func TestV1ErrorStatusCodes(t *testing.T) {
	srv := New(goldenDB(t))
	cases := []struct {
		method string
		path   string
		status int
		code   string
	}{
		{http.MethodGet, "/v1/layouts?libary=typo", http.StatusBadRequest, "bad_filter"},
		{http.MethodGet, "/v1/layouts?limit=zap", http.StatusBadRequest, "bad_filter"},
		{http.MethodGet, "/v1/layouts?cursor=!!!", http.StatusBadRequest, "bad_cursor"},
		{http.MethodGet, "/v1/layouts/no__such__layout", http.StatusNotFound, "not_found"},
		{http.MethodGet, "/v1/layouts/no__such__layout/layout.fgl", http.StatusNotFound, "not_found"},
		{http.MethodGet, "/v1/blobs/feedfacefeedface", http.StatusNotFound, "not_found"},
		{http.MethodPost, "/v1/layouts", http.StatusMethodNotAllowed, "method_not_allowed"},
		{http.MethodDelete, "/v1/stats", http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			var body apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("error body is not the typed shape: %v\n%s", err, rec.Body)
			}
			if body.Error.Code != tc.code || body.Error.Message == "" {
				t.Errorf("error body = %+v, want code %q with a message", body, tc.code)
			}
		})
	}
}

// TestV1PaginationWalkExactlyOnce drives the public API end to end:
// walking /v1/layouts with a small limit must return the full catalogue
// exactly once, in ID order, and the final page must not mint a cursor.
func TestV1PaginationWalkExactlyOnce(t *testing.T) {
	db := goldenDB(t)
	srv := New(db)
	var all v1ListResponse
	if err := json.Unmarshal(get(t, srv, "/v1/layouts").Body.Bytes(), &all); err != nil {
		t.Fatal(err)
	}
	if all.Count != len(db.Entries) {
		t.Fatalf("unpaginated listing has %d layouts, want %d", all.Count, len(db.Entries))
	}

	seen := make(map[string]int)
	cursor := ""
	pages := 0
	for {
		url := "/v1/layouts?limit=1"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		rec := get(t, srv, url)
		if rec.Code != http.StatusOK {
			t.Fatalf("page %d: status %d: %s", pages, rec.Code, rec.Body)
		}
		var page v1ListResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		pages++
		for _, r := range page.Layouts {
			seen[r.ID]++
		}
		if page.NextCursor == "" {
			if len(page.Layouts) == 0 && pages > 1 {
				t.Error("final page was empty: a trailing cursor was minted at an exact boundary")
			}
			break
		}
		cursor = page.NextCursor
	}
	if len(seen) != len(db.Entries) {
		t.Fatalf("walk saw %d distinct layouts, want %d", len(seen), len(db.Entries))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("layout %s returned %d times", id, n)
		}
	}
}

// TestV1DownloadETagAndRoundTrip covers the content-addressed download
// path: bytes identical to the rendered layout, a strong ETag equal to
// the record hash, 304 on If-None-Match, and the immutable blob alias.
func TestV1DownloadETagAndRoundTrip(t *testing.T) {
	db := goldenDB(t)
	srv := New(db)
	id := "trindade16__mux21__qcaone_2ddwave_ortho"

	var single v1LayoutResponse
	if err := json.Unmarshal(get(t, srv, "/v1/layouts/"+id).Body.Bytes(), &single); err != nil {
		t.Fatal(err)
	}
	rec := get(t, srv, single.FGLURL)
	if rec.Code != http.StatusOK {
		t.Fatalf("download status %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	if etag != `"`+single.Layout.Hash+`"` {
		t.Fatalf("ETag %q does not quote the content hash %q", etag, single.Layout.Hash)
	}
	if cc := rec.Header().Get("Cache-Control"); !strings.Contains(cc, "must-revalidate") {
		t.Errorf("download Cache-Control = %q, want must-revalidate", cc)
	}
	if registry.NewItem(registry.Record{ID: id}, rec.Body.Bytes()).Record.Hash != single.Layout.Hash {
		t.Fatal("downloaded bytes do not hash to the advertised content address")
	}
	rendered, err := fgl.WriteString(db.Entries[0].Layout)
	if err != nil {
		t.Fatal(err)
	}
	if core.EntryFileName(db.Entries[0]) != id || rendered != rec.Body.String() {
		t.Fatal("/v1 download differs from the rendered layout")
	}

	// Conditional request → 304 with no body.
	req := httptest.NewRequest(http.MethodGet, single.FGLURL, nil)
	req.Header.Set("If-None-Match", etag)
	cond := httptest.NewRecorder()
	srv.ServeHTTP(cond, req)
	if cond.Code != http.StatusNotModified || cond.Body.Len() != 0 {
		t.Fatalf("conditional GET = %d with %d body bytes, want bare 304", cond.Code, cond.Body.Len())
	}

	// Blob alias: same bytes, immutable caching.
	blob := get(t, srv, single.BlobURL)
	if blob.Code != http.StatusOK || blob.Body.String() != rec.Body.String() {
		t.Fatalf("blob alias status %d, bytes match %v", blob.Code, blob.Body.String() == rec.Body.String())
	}
	if cc := blob.Header().Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Errorf("blob Cache-Control = %q, want immutable", cc)
	}
}

// TestV1ETagStableAcrossRestarts boots two independent servers over the
// same on-disk store (an import happened once, then the process
// restarted) and pins that listings, ETags, and bodies are identical —
// the property that makes registry responses long-term cacheable.
func TestV1ETagStableAcrossRestarts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "campaign")
	db := goldenDB(t)
	if _, err := core.SaveDatabase(db, dir); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteManifest(db, dir); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(t.TempDir(), "store")

	fetch := func(srv *Server, path string) (string, string) {
		rec := get(t, srv, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		return rec.Body.String(), rec.Header().Get("ETag")
	}

	var firstList, firstBody, firstETag string
	for restart := 0; restart < 2; restart++ {
		st, err := registry.OpenDiskStore(storeDir)
		if err != nil {
			t.Fatal(err)
		}
		if restart == 0 {
			if _, err := registry.ImportDir(context.Background(), st, dir, registry.ImportOptions{Campaign: "pinned"}); err != nil {
				t.Fatal(err)
			}
		}
		srv := New(&core.Database{}, WithStorage(st))
		list, _ := fetch(srv, "/v1/layouts?campaign=pinned")
		var page v1ListResponse
		if err := json.Unmarshal([]byte(list), &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Layouts) == 0 {
			t.Fatalf("restart %d: store is empty", restart)
		}
		body, etag := fetch(srv, "/v1/layouts/"+page.Layouts[0].ID+"/layout.fgl")
		if restart == 0 {
			firstList, firstBody, firstETag = list, body, etag
		} else {
			if list != firstList {
				t.Error("listing changed across restart")
			}
			if body != firstBody || etag != firstETag {
				t.Errorf("download changed across restart: etag %q vs %q", etag, firstETag)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestV1CorruptedBlobIsTypedError pins the registry's failure mode: a
// blob whose bytes no longer match their content address must yield the
// typed integrity error, never a 200 with wrong bytes.
func TestV1CorruptedBlobIsTypedError(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "store")
	st, err := registry.OpenDiskStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := New(goldenDB(t), WithStorage(st))

	var page v1ListResponse
	if err := json.Unmarshal(get(t, srv, "/v1/layouts").Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	r := page.Layouts[0]
	path := filepath.Join(storeDir, "blobs", r.Hash[:2], r.Hash+".fgl")
	if err := os.WriteFile(path, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := get(t, srv, "/v1/layouts/"+r.ID+"/layout.fgl")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("corrupted blob served with status %d: %s", rec.Code, rec.Body)
	}
	var body apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != "integrity" {
		t.Fatalf("error code %q, want integrity", body.Error.Code)
	}
	// The human pages that read the blob fail the same way.
	for _, path := range []string{"/preview/" + r.ID + ".svg", "/download/bundle.zip"} {
		if rec := get(t, srv, path); rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "integrity") {
			t.Errorf("%s over a corrupted blob: status %d %q, want a 500 integrity error", path, rec.Code, rec.Body)
		}
	}
}

// TestV1SubmitJoinsRegistry pins that a community submission becomes
// visible through /v1 with a servable blob.
func TestV1SubmitJoinsRegistry(t *testing.T) {
	srv := New(goldenDB(t))
	layout := submittableLayout(t)
	req := httptest.NewRequest(http.MethodPost, "/api/submit?set=Trindade16&name=mux21", strings.NewReader(layout))
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
	var single v1LayoutResponse
	if err := json.Unmarshal(get(t, srv, "/v1/layouts/"+resp.ID).Body.Bytes(), &single); err != nil {
		t.Fatalf("submitted layout not in /v1: %s", get(t, srv, "/v1/layouts/"+resp.ID).Body)
	}
	if single.Layout.Campaign != "submitted" {
		t.Errorf("campaign = %q, want submitted", single.Layout.Campaign)
	}
	if dl := get(t, srv, single.FGLURL); dl.Code != http.StatusOK {
		t.Errorf("submitted layout download status %d", dl.Code)
	}
}

// submittableLayout renders a valid mux21 layout to .fgl text.
func submittableLayout(t *testing.T) string {
	t.Helper()
	b, err := bench.ByName("Trindade16", "mux21")
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.RunFlow(context.Background(), b,
		core.Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: core.AlgoOrtho},
		core.Limits{ExactTimeout: time.Second, NanoTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	item, err := registry.FromEntry(e, "x")
	if err != nil {
		t.Fatal(err)
	}
	return string(item.Body)
}

// TestV1MetricsRoutesBounded pins that /v1 traffic lands on the bounded
// route labels, not per-ID label values.
func TestV1MetricsRoutesBounded(t *testing.T) {
	srv := New(goldenDB(t), WithRegistry(obs.NewRegistry()))
	id := "trindade16__mux21__qcaone_2ddwave_ortho"
	for _, p := range []string{"/v1/layouts", "/v1/layouts/" + id, "/v1/layouts/" + id + "/layout.fgl", "/v1/stats"} {
		get(t, srv, p)
	}
	metrics := get(t, srv, "/metrics").Body.String()
	for _, want := range []string{
		`mntbench_http_requests_total{code="200",route="/v1/layouts"} 1`,
		`mntbench_http_requests_total{code="200",route="/v1/layout"} 1`,
		`mntbench_http_requests_total{code="200",route="/v1/download"} 1`,
		`mntbench_http_requests_total{code="200",route="/v1/stats"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, `route="/v1/layouts/`+id) {
		t.Error("per-ID route label leaked into metrics")
	}
}
