package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// Metric families recorded by Middleware.
const (
	MetricHTTPRequests  = "mntbench_http_requests_total"
	MetricHTTPDuration  = "mntbench_http_request_duration_seconds"
	MetricHTTPInFlight  = "mntbench_http_requests_in_flight"
	MetricHTTPRespBytes = "mntbench_http_response_size_bytes"
)

// RespSizeBuckets are the response-size histogram bounds in bytes,
// spanning a JSON error body through a multi-megabyte ZIP bundle.
var RespSizeBuckets = []float64{
	256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20,
}

// MetricsHandler serves the registry: Prometheus text format by default,
// the JSON dump with ?format=json.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			if err := r.WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Healthz is a liveness handler: always 200 {"status":"ok"}.
func Healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// DebugRoutes configures the operational endpoints MountDebug serves.
type DebugRoutes struct {
	Registry *Registry   // served at /metrics
	Ready    *Readiness  // served at /readyz
	Journal  *Journal    // streamed at /debug/events; nil answers 503
	Traces   *TraceStore // served under /debug/traces; nil leaves it unmounted
	// Perf serves the latest performance snapshot at /debug/perf. It is
	// a plain handler because the perf package imports obs.
	Perf  http.Handler
	Pprof bool // mount the net/http/pprof handlers under /debug/pprof/
}

// MountDebug mounts the operational surface that the web server and
// the metrics sidecar share: /metrics, /healthz, /readyz,
// /debug/events, /debug/perf, and, when configured, /debug/traces and
// /debug/pprof/.
func MountDebug(mux *http.ServeMux, d DebugRoutes) {
	metrics := d.Registry.MetricsHandler()
	mux.Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Every scrape resamples the Go runtime so the mntbench_go_*
		// gauges are current without a background goroutine.
		UpdateRuntimeGauges(d.Registry)
		metrics.ServeHTTP(w, r)
	}))
	mux.HandleFunc("/healthz", Healthz)
	mux.Handle("/readyz", d.Ready.Handler())
	mux.Handle("/debug/events", d.Journal.EventsHandler())
	mux.Handle("/debug/perf", d.Perf)
	if d.Traces != nil {
		mux.Handle("/debug/traces", d.Traces.Handler())
		mux.Handle("/debug/traces/", d.Traces.Handler())
	}
	if d.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// DefaultRoute normalizes a request path to a bounded-cardinality route
// label: the first path segment ("/download/x.fgl" -> "/download").
func DefaultRoute(r *http.Request) string {
	p := r.URL.Path
	if p == "" || p == "/" {
		return "/"
	}
	rest := strings.TrimPrefix(p, "/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return "/" + rest
}

// statusLabel renders a response code as a metric label value; HTTP
// status codes form a small closed set.
//
//lint:bounded
func statusLabel(code int) string { return strconv.Itoa(code) }

// routeLabel applies the route mapper, which must produce a
// bounded-cardinality label by contract (DefaultRoute, the default,
// collapses any path to its first segment).
//
//lint:bounded
func routeLabel(route func(*http.Request) string, r *http.Request) string {
	return route(r)
}

// statusWriter captures the response code written by a handler.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush passes through http.Flusher so that streaming handlers behind
// Middleware (SSE, long downloads) can still push partial responses; a
// no-op when the underlying writer cannot flush.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		if w.code == 0 {
			w.code = http.StatusOK
		}
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// deadlines, hijacking, and flushing keep working through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Middleware instruments an HTTP handler: a request counter labeled by
// route and status code, a per-route latency histogram, and an in-flight
// gauge. route maps a request to its label; nil selects DefaultRoute.
// Each request also runs under an "http" root span, so handlers that
// call StartSpan nest below it and — when the request context's
// TraceStore is enabled — every request yields a retainable trace
// annotated with its method, path, and status code.
func Middleware(reg *Registry, route func(*http.Request) string, next http.Handler) http.Handler {
	if reg == nil {
		reg = Default()
	}
	if route == nil {
		route = DefaultRoute
	}
	reg.Help(MetricHTTPRequests, "HTTP requests served, by route and status code.")
	reg.Help(MetricHTTPDuration, "HTTP request latency in seconds, by route.")
	reg.Help(MetricHTTPInFlight, "HTTP requests currently being served.")
	reg.Help(MetricHTTPRespBytes, "HTTP response body size in bytes, by route.")
	inFlight := reg.Gauge(MetricHTTPInFlight)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inFlight.Add(1)
		defer inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		rt := routeLabel(route, r)
		ctx, sp := StartSpan(WithRegistry(r.Context(), reg), "http", L("route", rt))
		sp.Annotate("method", r.Method)
		sp.Annotate("path", r.URL.Path)
		next.ServeHTTP(sw, r.WithContext(ctx))
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		sp.Annotate("code", statusLabel(sw.code))
		if sw.code >= http.StatusInternalServerError {
			sp.SetError(fmt.Errorf("HTTP %d", sw.code))
		}
		sp.End()
		reg.Counter(MetricHTTPRequests, L("route", rt), L("code", statusLabel(sw.code))).Inc()
		reg.Histogram(MetricHTTPDuration, nil, L("route", rt)).ObserveDuration(time.Since(start))
		reg.Histogram(MetricHTTPRespBytes, RespSizeBuckets, L("route", rt)).Observe(float64(sw.bytes))
	})
}
