// Package server provides the MNT Bench web interface (Figure 1 of the
// paper): a filterable catalogue of generated FCN layouts with downloads
// of gate-level .fgl files, Verilog network descriptions, and ZIP
// bundles. The catalogue is one registry.Storage: the versioned /v1 API
// and the human-facing pages read it, and community submissions write
// to it.
package server

import (
	"archive/zip"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/clocking"
	"repro/internal/core"
	"repro/internal/fgl"
	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/render"
	"repro/internal/server/registry"
	"repro/internal/verify"
	"repro/internal/verilog"
)

// Server serves one layout catalogue held in a registry.Storage.
type Server struct {
	mux     *http.ServeMux
	handler http.Handler     // mux wrapped in the obs middleware
	store   registry.Storage // the catalogue every page reads
	reg     *obs.Registry
	log     *obs.Logger
	traces  *obs.TraceStore
	journal *obs.Journal
	ready   *obs.Readiness
	pprof   bool
	perfDir string
}

// Option customizes a Server.
type Option func(*Server)

// WithRegistry records HTTP metrics into reg and serves it at /metrics
// (default: the process-wide obs registry).
func WithRegistry(reg *obs.Registry) Option { return func(s *Server) { s.reg = reg } }

// WithLogger routes request logging through l (default: the process-wide
// obs logger).
func WithLogger(l *obs.Logger) Option { return func(s *Server) { s.log = l } }

// WithPprof mounts the net/http/pprof handlers under /debug/pprof/.
// Off by default: profiling endpoints are opt-in on public servers.
func WithPprof() Option { return func(s *Server) { s.pprof = true } }

// WithTraces retains request and flow traces in ts and serves them
// under /debug/traces (index, per-trace span trees, and a Chrome
// trace-event export at /debug/traces/chrome). Off by default, like
// pprof: the trace view is a diagnostic surface.
func WithTraces(ts *obs.TraceStore) Option { return func(s *Server) { s.traces = ts } }

// WithPerfDir points /debug/perf at the directory holding the
// BENCH_<n>.json performance snapshots (default: the working
// directory, where the committed trajectory lives).
func WithPerfDir(dir string) Option { return func(s *Server) { s.perfDir = dir } }

// WithStorage serves the catalogue from st — typically an on-disk
// content-addressed store opened with registry.OpenDiskStore, so
// listings and ETags survive restarts. Without it the server keeps an
// in-memory store.
func WithStorage(st registry.Storage) Option { return func(s *Server) { s.store = st } }

// WithJournal streams j's live campaign events at /debug/events as
// Server-Sent Events. Without it the endpoint responds 503 (the nil
// journal's handler), so clients get a clear signal instead of a 404.
func WithJournal(j *obs.Journal) Option { return func(s *Server) { s.journal = j } }

// New builds the HTTP handler around the catalogue store. The layouts
// of db are applied to the store under the "live" campaign, so a
// server started from a generate run serves them without an import
// step; pass an empty database to serve a store as it is.
func New(db *core.Database, opts ...Option) *Server {
	s := &Server{mux: http.NewServeMux()}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = obs.Default()
	}
	if s.log == nil {
		s.log = obs.DefaultLogger()
	}
	if s.store == nil {
		s.store = registry.NewMemStore()
	}
	if err := seedStore(s.store, db); err != nil {
		// A layout that cannot be rendered leaves the seed batch out;
		// the server still starts, and the warning names the cause.
		s.log.Warn("seeding registry store", "err", err)
	}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/download/bundle.zip", s.handleBundle)
	s.mux.HandleFunc("/download/{file}", s.handleVerilog)
	s.mux.HandleFunc("/preview/{file}", s.handlePreview)
	s.mux.HandleFunc("/api/submit", s.handleSubmit)
	s.mountV1()
	// Readiness starts true: New returns a fully loaded server, so it can
	// serve the moment it is mounted; BeginShutdown flips it back for
	// load-balancer drain.
	s.ready = obs.NewReadiness("")
	s.ready.Ready()
	if s.perfDir == "" {
		s.perfDir = "."
	}
	obs.MountDebug(s.mux, obs.DebugRoutes{
		Registry: s.reg,
		Ready:    s.ready,
		Journal:  s.journal,
		Traces:   s.traces,
		Perf:     perf.Handler(s.perfDir),
		Pprof:    s.pprof,
	})
	obs.RegisterBuildInfo(s.reg)
	inner := obs.Middleware(s.reg, routeLabel, s.mux)
	s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.traces != nil {
			// The middleware's root span finds the store through the
			// request context and opens one trace per request.
			r = r.WithContext(obs.WithTraces(r.Context(), s.traces))
		}
		inner.ServeHTTP(w, r)
		if s.log.Enabled(obs.LevelDebug) {
			s.log.Debug("http request", "method", r.Method, "path", r.URL.Path,
				"elapsed", time.Since(start).Round(time.Microsecond))
		}
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// BeginShutdown flips /readyz to 503 so load balancers stop routing new
// requests while in-flight ones drain; call it before http.Server.Shutdown.
func (s *Server) BeginShutdown() { s.ready.NotReady("shutting down") }

// routeLabel maps request paths onto the bounded route label set used by
// the HTTP metrics (entry IDs must not become label values).
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/", p == "/metrics", p == "/healthz", p == "/readyz", p == "/api/submit",
		p == "/v1", p == "/v1/layouts", p == "/v1/filters", p == "/v1/stats":
		return p
	case strings.HasSuffix(p, "/layout.fgl") && strings.HasPrefix(p, "/v1/layouts/"):
		return "/v1/download"
	case strings.HasPrefix(p, "/v1/layouts/"):
		return "/v1/layout"
	case strings.HasPrefix(p, "/v1/blobs/"):
		return "/v1/blob"
	case strings.HasPrefix(p, "/download/"):
		return "/download"
	case strings.HasPrefix(p, "/preview/"):
		return "/preview"
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	case strings.HasPrefix(p, "/debug/traces"):
		return "/debug/traces"
	case strings.HasPrefix(p, "/debug/events"):
		return "/debug/events"
	case strings.HasPrefix(p, "/debug/perf"):
		return "/debug/perf"
	}
	return "other"
}

// catalogue selects what the human pages show: the records matching
// the query under the /v1 filter grammar, cut to the best layout per
// function when the form's "best" box is ticked, smallest area first,
// then by ID. A malformed query is a *registry.BadFilterError.
func (s *Server) catalogue(r *http.Request) (registry.Filter, []registry.Record, error) {
	q := r.URL.Query()
	best := q.Get("best")
	q.Del("best")
	f, err := registry.ParseFilterQuery(q)
	if err != nil {
		return f, nil, err
	}
	snap := s.store.Snapshot()
	var recs []registry.Record
	for i := range snap {
		if f.Match(&snap[i]) {
			recs = append(recs, snap[i])
		}
	}
	if best == "1" || strings.EqualFold(best, "true") {
		recs = registry.BestPerFunction(recs)
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Area != recs[j].Area {
			return recs[i].Area < recs[j].Area
		}
		return recs[i].ID < recs[j].ID
	})
	return f, recs, nil
}

// storeError answers a failed store read on the human pages: a blob
// that fails its content address is a 500, as on /v1, and a missing
// layout or blob is a 404.
func storeError(w http.ResponseWriter, err error) {
	var ie *registry.IntegrityError
	switch {
	case errors.As(err, &ie):
		http.Error(w, ie.Error(), http.StatusInternalServerError)
	case errors.Is(err, registry.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleVerilog serves the network description (.v) of a catalogued
// layout's benchmark function; the .fgl itself is served by /v1.
func (s *Server) handleVerilog(w http.ResponseWriter, r *http.Request) {
	id, ok := strings.CutSuffix(r.PathValue("file"), ".v")
	if !ok {
		http.NotFound(w, r)
		return
	}
	rec, err := s.store.Get(id)
	if err != nil {
		storeError(w, err)
		return
	}
	bm, err := bench.ByName(rec.Set, rec.Name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	body, err := verilog.WriteString(bm.Build())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".v"))
	_, _ = io.WriteString(w, body)
}

// handleBundle zips the selected layouts' .fgl blobs plus one .v per
// benchmark function. The archive is built before anything is sent,
// so a blob failing its integrity check still turns into a 500.
func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	_, recs, err := s.catalogue(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(recs) == 0 {
		http.Error(w, "no layouts match the filter", http.StatusNotFound)
		return
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	seenVerilog := make(map[string]bool)
	for _, rec := range recs {
		body, err := s.store.Blob(rec.Hash)
		if err != nil {
			storeError(w, err)
			return
		}
		if err := zipFile(zw, rec.ID+".fgl", body); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		vname := strings.ToLower(rec.Set) + "__" + strings.ToLower(rec.Name) + ".v"
		if seenVerilog[vname] {
			continue
		}
		seenVerilog[vname] = true
		bm, err := bench.ByName(rec.Set, rec.Name)
		if err != nil {
			continue // imported functions outside the suites have no .v
		}
		v, err := verilog.WriteString(bm.Build())
		if err == nil {
			err = zipFile(zw, vname, []byte(v))
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if err := zw.Close(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/zip")
	w.Header().Set("Content-Disposition", `attachment; filename="mntbench.zip"`)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	_, _ = w.Write(buf.Bytes())
}

func zipFile(zw *zip.Writer, name string, body []byte) error {
	f, err := zw.Create(name)
	if err != nil {
		return err
	}
	_, err = f.Write(body)
	return err
}

// handleSubmit implements the paper's community-submission loop
// ("improved layouts can be sent ... for inclusion"): a POSTed .fgl
// layout is design-rule checked and equivalence-checked against the
// named benchmark function; valid submissions join the catalogue and the
// response reports whether they set a new area record.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a .fgl document", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	set, name := q.Get("set"), q.Get("name")
	bm, err := bench.ByName(set, name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	l, err := fgl.Read(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	lib, err := gatelib.ByName(l.Library)
	if err != nil {
		http.Error(w, "layout must carry a library tag: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := lib.CheckLayout(l); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if err := verify.CheckDesignRules(l).Error(); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	eq, err := verify.Equivalent(l, bm.Build())
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if !eq {
		http.Error(w, "layout does not implement "+set+"/"+name, http.StatusUnprocessableEntity)
		return
	}
	e := &core.Entry{
		Benchmark: bm,
		Flow: core.Flow{Library: lib, Scheme: l.Scheme,
			Algorithm: core.Algorithm("submission")},
		Layout:   l,
		Verified: true,
	}
	st := l.ComputeStats()
	e.Width, e.Height, e.Area = st.Width, st.Height, st.Area
	e.Gates, e.Wires, e.Crossings = st.Gates, st.Wires, st.Crossings
	item, err := registry.FromEntry(e, "submitted")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	prevBest := s.bestArea(registry.Filter{Set: bm.Set, Name: bm.Name, Library: lib.Name})
	if _, err := s.store.Apply([]registry.Item{item}); err != nil {
		http.Error(w, "registering the layout: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.log.Info("layout submitted", "set", bm.Set, "benchmark", bm.Name,
		"library", lib.Name, "area", e.Area)

	resp := struct {
		ID       string `json:"id"`
		Area     int    `json:"area"`
		NewBest  bool   `json:"new_best"`
		PrevBest int    `json:"previous_best_area,omitempty"`
	}{ID: item.Record.ID, Area: e.Area, NewBest: prevBest < 0 || e.Area < prevBest}
	if prevBest >= 0 {
		resp.PrevBest = prevBest
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// bestArea is the smallest area among the stored records matching f,
// or -1 when none match.
func (s *Server) bestArea(f registry.Filter) int {
	best := -1
	snap := s.store.Snapshot()
	for i := range snap {
		if f.Match(&snap[i]) && (best < 0 || snap[i].Area < best) {
			best = snap[i].Area
		}
	}
	return best
}

// handlePreview renders a catalogued layout as an inline SVG preview.
func (s *Server) handlePreview(w http.ResponseWriter, r *http.Request) {
	id, ok := strings.CutSuffix(r.PathValue("file"), ".svg")
	if !ok {
		http.NotFound(w, r)
		return
	}
	rec, err := s.store.Get(id)
	if err != nil {
		storeError(w, err)
		return
	}
	body, err := s.store.Blob(rec.Hash)
	if err != nil {
		storeError(w, err)
		return
	}
	l, err := fgl.Read(bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	if err := render.WriteSVG(w, l, render.SVGOptions{TileSize: 18, MaxTiles: 100000}); err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	}
}

var indexTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html>
<head><title>MNT Bench</title>
<style>
body { font-family: sans-serif; margin: 2em; }
fieldset { display: inline-block; vertical-align: top; margin-right: 1em; }
table { border-collapse: collapse; margin-top: 1.5em; }
td, th { border: 1px solid #999; padding: 2px 8px; font-size: 90%; }
</style>
</head>
<body>
<h1>Munich Nanotech Benchmark Library (MNT Bench)</h1>
<p>Select the desired benchmark functions and apply filters — gate-level
layouts (.fgl) and network descriptions (.v) are available per row or as
a ZIP bundle.</p>
<form method="GET" action="/">
<fieldset><legend>Gate Library</legend>
  <select name="library"><option value="">any</option>
  {{range .Libraries}}<option{{if eq . $.Sel.Library}} selected{{end}}>{{.}}</option>{{end}}
  </select>
</fieldset>
<fieldset><legend>Clocking Scheme</legend>
  <select name="clocking"><option value="">any</option>
  {{range .Clockings}}<option{{if eq . $.Sel.Scheme}} selected{{end}}>{{.}}</option>{{end}}
  </select>
</fieldset>
<fieldset><legend>Physical Design Algorithm</legend>
  <select name="algorithm"><option value="">any</option>
  {{range .Algorithms}}<option{{if eq . $.Sel.Algorithm}} selected{{end}}>{{.}}</option>{{end}}
  </select>
</fieldset>
<fieldset><legend>Optimization Algorithm</legend>
  <label><input type="checkbox" name="inord" value="1"> Input Ordering</label><br>
  <label><input type="checkbox" name="plo" value="1"> Post-Layout Optimization</label><br>
  <label><input type="checkbox" name="best" value="1"> Most optimal only</label>
</fieldset>
<p><button type="submit">Apply filters</button>
<a href="/download/bundle.zip?{{.Query}}">Download ZIP</a></p>
</form>
<table>
<tr><th>Set</th><th>Name</th><th>I/O</th><th>Library</th><th>Clocking</th>
<th>Algorithm</th><th>w×h</th><th>A</th><th>Crossings</th><th>Files</th></tr>
{{range .Rows}}
<tr><td>{{.Set}}</td><td>{{.Name}}</td><td>{{.Inputs}}/{{.Outputs}}</td>
<td>{{.Library}}</td><td>{{.Scheme}}</td><td>{{.Algorithm}}{{if .InOrd}}, InOrd{{end}}{{if .Hex}}, 45°{{end}}{{if .PLO}}, PLO{{end}}</td>
<td>{{.Width}}×{{.Height}}</td><td>{{.Area}}</td><td>{{.Crossings}}</td>
<td><a href="/v1/layouts/{{.ID}}/layout.fgl">.fgl</a> <a href="/download/{{.ID}}.v">.v</a> <a href="/preview/{{.ID}}.svg">svg</a></td></tr>
{{end}}
</table>
<p>{{len .Rows}} layouts.</p>
</body></html>`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	f, rows, err := s.catalogue(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	data := struct {
		Libraries, Clockings, Algorithms []string
		Rows                             []registry.Record
		Sel                              registry.Filter
		Query                            template.URL
	}{
		Algorithms: []string{string(core.AlgoExact), string(core.AlgoOrtho), string(core.AlgoNanoPlaceR)},
		Rows:       rows,
		Sel:        f,
		Query:      template.URL(r.URL.RawQuery),
	}
	for _, l := range gatelib.All() {
		data.Libraries = append(data.Libraries, l.Name)
	}
	for _, c := range clocking.All() {
		data.Clockings = append(data.Clockings, c.Name)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTemplate.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
