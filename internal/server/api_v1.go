package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/clocking"
	"repro/internal/core"
	"repro/internal/gatelib"
	"repro/internal/server/registry"
)

// The /v1 API is the versioned, machine-first face of the layout
// registry: cursor-paginated listings with a closed filter grammar,
// per-layout metadata, and content-addressed .fgl downloads with
// strong ETags. It reads the same registry.Storage as the Figure 1
// pages — in-memory by default, or the on-disk content-addressed store
// when the server is started with one — so its responses are stable,
// cacheable, and survive restarts unchanged.

// apiError is the typed JSON error body every /v1 endpoint uses.
type apiError struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeAPIError(w http.ResponseWriter, status int, code, message string) {
	var body apiError
	body.Error.Code = code
	body.Error.Message = message
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeJSON writes v as JSON; encoding failures surface as a typed 500
// unless bytes already went out.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		writeAPIError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// requireGet admits GET and HEAD, answering anything else with the
// typed 405 body and an Allow header.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	w.Header().Set("Allow", "GET, HEAD")
	writeAPIError(w, http.StatusMethodNotAllowed, "method_not_allowed",
		r.Method+" is not supported here; use GET")
	return false
}

// mountV1 registers the versioned registry API on the server mux.
func (s *Server) mountV1() {
	s.mux.HandleFunc("/v1", s.handleV1Index)
	s.mux.HandleFunc("/v1/layouts", s.handleV1List)
	s.mux.HandleFunc("/v1/layouts/{id}", s.handleV1Layout)
	s.mux.HandleFunc("/v1/layouts/{id}/layout.fgl", s.handleV1Download)
	s.mux.HandleFunc("/v1/blobs/{hash}", s.handleV1Blob)
	s.mux.HandleFunc("/v1/filters", s.handleV1Filters)
	s.mux.HandleFunc("/v1/stats", s.handleV1Stats)
}

func (s *Server) handleV1Index(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, map[string]any{
		"version": 1,
		"endpoints": []string{
			"/v1/layouts",
			"/v1/layouts/{id}",
			"/v1/layouts/{id}/layout.fgl",
			"/v1/blobs/{hash}",
			"/v1/filters",
			"/v1/stats",
		},
	})
}

// v1ListResponse is the wire shape of a /v1/layouts page.
type v1ListResponse struct {
	Layouts []registry.Record `json:"layouts"`
	Count   int               `json:"count"`
	// NextCursor resumes the walk; absent on the last page.
	NextCursor string `json:"next_cursor,omitempty"`
}

func (s *Server) handleV1List(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	q := r.URL.Query()
	f, err := registry.ParseFilterQuery(q)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "bad_filter", err.Error())
		return
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 0 {
			writeAPIError(w, http.StatusBadRequest, "bad_filter",
				"limit="+v+" is not a non-negative integer")
			return
		}
	}
	page, err := registry.ListPage(s.store.Snapshot(), f, q.Get("cursor"), limit)
	if err != nil {
		writeAPIError(w, http.StatusBadRequest, "bad_cursor", err.Error())
		return
	}
	writeJSON(w, v1ListResponse{Layouts: page.Records, Count: len(page.Records), NextCursor: page.NextCursor})
}

// v1LayoutResponse wraps one record with its download locations.
type v1LayoutResponse struct {
	Layout  registry.Record `json:"layout"`
	FGLURL  string          `json:"fgl_url"`
	BlobURL string          `json:"blob_url"`
}

func (s *Server) handleV1Layout(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	id := r.PathValue("id")
	rec, err := s.store.Get(id)
	if err != nil {
		writeAPIError(w, http.StatusNotFound, "not_found", "no layout "+id)
		return
	}
	writeJSON(w, v1LayoutResponse{
		Layout:  rec,
		FGLURL:  "/v1/layouts/" + rec.ID + "/layout.fgl",
		BlobURL: "/v1/blobs/" + rec.Hash,
	})
}

// etagMatches implements the If-None-Match comparison for the strong
// ETags the registry serves (a quoted content hash, or "*").
func etagMatches(header, etag string) bool {
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

// serveBlob writes a content-addressed .fgl body with its ETag and
// handles conditional requests. The ETag is the quoted content hash,
// so it is identical across restarts and across storage backends.
func (s *Server) serveBlob(w http.ResponseWriter, r *http.Request, hash, filename, cacheControl string) {
	etag := `"` + hash + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", cacheControl)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body, err := s.store.Blob(hash)
	if err != nil {
		var ie *registry.IntegrityError
		if errors.As(err, &ie) {
			// Never serve bytes that fail their own content address: a
			// corrupted blob is a loud 500, not a quiet wrong answer.
			writeAPIError(w, http.StatusInternalServerError, "integrity", ie.Error())
			return
		}
		writeAPIError(w, http.StatusNotFound, "not_found", "no blob "+hash)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if filename != "" {
		w.Header().Set("Content-Disposition", `attachment; filename="`+filename+`"`)
	}
	if r.Method == http.MethodHead {
		return
	}
	_, _ = w.Write(body)
}

func (s *Server) handleV1Download(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	id := r.PathValue("id")
	rec, err := s.store.Get(id)
	if err != nil {
		writeAPIError(w, http.StatusNotFound, "not_found", "no layout "+id)
		return
	}
	// A layout ID is mutable (re-imports may replace its content), so
	// clients must revalidate — which the ETag makes a cheap 304.
	s.serveBlob(w, r, rec.Hash, rec.ID+".fgl", "public, must-revalidate")
}

func (s *Server) handleV1Blob(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	// A blob URL names immutable bytes: the hash IS the content, so
	// caches may keep it forever.
	s.serveBlob(w, r, r.PathValue("hash"), "", "public, max-age=31536000, immutable")
}

func (s *Server) handleV1Filters(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	grammar := struct {
		Strings    []string `json:"string_parameters"`
		Booleans   []string `json:"boolean_parameters"`
		Ranges     []string `json:"range_parameters"`
		Paging     []string `json:"paging_parameters"`
		Libraries  []string `json:"libraries"`
		Clockings  []string `json:"clockings"`
		Algorithms []string `json:"algorithms"`
		Sets       []string `json:"sets"`
	}{
		Strings:    []string{"set", "name", "library", "clocking", "algorithm", "flow", "campaign"},
		Booleans:   []string{"inord", "plo", "hex", "verified"},
		Ranges:     []string{"area_min", "area_max", "gates_min", "gates_max", "crossings_min", "crossings_max", "width_max", "height_max"},
		Paging:     []string{"limit", "cursor"},
		Algorithms: []string{string(core.AlgoExact), string(core.AlgoOrtho), string(core.AlgoNanoPlaceR)},
		Sets:       bench.Suites(),
	}
	for _, l := range gatelib.All() {
		grammar.Libraries = append(grammar.Libraries, l.Name)
	}
	for _, c := range clocking.All() {
		grammar.Clockings = append(grammar.Clockings, c.Name)
	}
	writeJSON(w, grammar)
}

func (s *Server) handleV1Stats(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	st := s.store.Stats()
	writeJSON(w, struct {
		Layouts   int      `json:"layouts"`
		Blobs     int      `json:"blobs"`
		Bytes     int64    `json:"bytes"`
		Campaigns []string `json:"campaigns"`
	}{st.Layouts, st.Blobs, st.Bytes, st.Campaigns})
}

// seedStore loads the database's entries into the storage backend
// under the "live" campaign, so a server started from a generate run
// serves it without a separate import step. Entries without layouts
// (DiscardLayouts runs) cannot be content-addressed and are skipped.
func seedStore(st registry.Storage, db *core.Database) error {
	var batch []registry.Item
	for _, e := range db.Entries {
		if e.Layout == nil {
			continue
		}
		item, err := registry.FromEntry(e, "live")
		if err != nil {
			return err
		}
		batch = append(batch, item)
	}
	if len(batch) == 0 {
		return nil
	}
	_, err := st.Apply(batch)
	return err
}
