package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMiddlewareRecordsRequests(t *testing.T) {
	reg := NewRegistry()
	h := Middleware(reg, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/missing" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte("ok"))
	}))

	for _, path := range []string{"/api/submit?set=EPFL", "/api/submit", "/missing"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	}

	if got := reg.Counter(MetricHTTPRequests, L("route", "/api"), L("code", "200")).Value(); got != 2 {
		t.Errorf("/api 200 count = %d, want 2", got)
	}
	if got := reg.Counter(MetricHTTPRequests, L("route", "/missing"), L("code", "404")).Value(); got != 1 {
		t.Errorf("/missing 404 count = %d, want 1", got)
	}
	if s := reg.Histogram(MetricHTTPDuration, nil, L("route", "/api")).Snapshot(); s.Count != 2 {
		t.Errorf("latency histogram count = %d, want 2", s.Count)
	}
	if v := reg.Gauge(MetricHTTPInFlight).Value(); v != 0 {
		t.Errorf("in-flight gauge = %v after requests drained", v)
	}
}

func TestMetricsHandlerFormats(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total").Inc()
	h := reg.MetricsHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "x_total 1") {
		t.Errorf("prometheus body: %s", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `"x_total"`) {
		t.Errorf("json body: %s", rec.Body.String())
	}
}

// Streaming handlers behind Middleware need Flush to pass through;
// http.ResponseController relies on Unwrap.
var _ http.Flusher = (*statusWriter)(nil)

func TestStatusWriterFlushAndUnwrap(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rec}
	sw.Flush()
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
	if sw.code != http.StatusOK {
		t.Errorf("Flush before WriteHeader left code %d, want 200", sw.code)
	}
	if sw.Unwrap() != rec {
		t.Error("Unwrap does not expose the underlying writer")
	}

	// Through the middleware, handlers still see a flushable writer.
	flushed := false
	h := Middleware(NewRegistry(), nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("wrapped writer lost http.Flusher")
		}
		w.Write([]byte("chunk"))
		f.Flush()
		flushed = true
	}))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stream", nil))
	if !flushed || !rec.Flushed {
		t.Errorf("flush through middleware: handler %v recorder %v", flushed, rec.Flushed)
	}
}

// Middleware runs each request under an "http" root span, so an enabled
// trace store on the request context retains request traces — failed
// (5xx) ones always.
func TestMiddlewareTracing(t *testing.T) {
	ts := NewTraceStore(TracePolicy{})
	reg := NewRegistry()
	h := Middleware(reg, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			http.Error(w, "nope", http.StatusInternalServerError)
			return
		}
		_, sp := StartSpan(r.Context(), "render")
		sp.End()
		w.Write([]byte("ok"))
	}))
	for _, path := range []string{"/api/submit", "/boom"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req = req.WithContext(WithTraces(context.Background(), ts))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}

	snap := ts.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("retained %d traces, want 2", len(snap))
	}
	var okTrace, failTrace *Trace
	for _, tr := range snap {
		if tr.Root != "http" {
			t.Fatalf("root = %q, want http", tr.Root)
		}
		if tr.Failed {
			failTrace = tr
		} else {
			okTrace = tr
		}
	}
	if failTrace == nil || okTrace == nil {
		t.Fatal("expected one ok and one failed request trace")
	}
	attrs := failTrace.RootAttrs()
	if attrs["method"] != "GET" || attrs["path"] != "/boom" || attrs["code"] != "500" {
		t.Errorf("failed request attrs = %v", attrs)
	}
	if okTrace.findEvent("render") == nil {
		t.Error("handler span missing from request trace")
	}
}

func TestMetricsHandlerJSONIsValid(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", L("name", "he said \"hi\"\\\n")).Inc()
	reg.Histogram("h_seconds", nil).Observe(0.5)
	rec := httptest.NewRecorder()
	reg.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=json", nil))
	body := rec.Body.Bytes()
	if !json.Valid(body) {
		t.Fatalf("?format=json body is not valid JSON: %s", body)
	}
	var out map[string]struct {
		Type   string `json:"type"`
		Series []struct {
			Labels map[string]string `json:"labels"`
		} `json:"series"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out["x_total"].Type != "counter" || len(out["x_total"].Series) != 1 {
		t.Errorf("x_total = %+v", out["x_total"])
	}
	// Awkward label values survive the JSON path byte-for-byte.
	if got := out["x_total"].Series[0].Labels["name"]; got != "he said \"hi\"\\\n" {
		t.Errorf("label round-trip = %q", got)
	}
}

func TestHealthz(t *testing.T) {
	rec := httptest.NewRecorder()
	Healthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("healthz: %d %s", rec.Code, rec.Body.String())
	}
}

func TestDefaultRoute(t *testing.T) {
	for path, want := range map[string]string{
		"/":                    "/",
		"":                     "/",
		"/metrics":             "/metrics",
		"/download/a__b.fgl":   "/download",
		"/api/submit":          "/api",
		"/debug/pprof/profile": "/debug",
	} {
		r := httptest.NewRequest(http.MethodGet, "http://x"+path, nil)
		r.URL.Path = path
		if got := DefaultRoute(r); got != want {
			t.Errorf("DefaultRoute(%q) = %q, want %q", path, got, want)
		}
	}
}
