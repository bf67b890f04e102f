package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/clocking"
	"repro/internal/core"
	"repro/internal/gatelib"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/registry"
)

// fingerprint renders a network's structure: every node's function and
// fanins.
func fingerprint(n *network.Network) string {
	var sb strings.Builder
	for id := 0; id < n.Size(); id++ {
		fmt.Fprintf(&sb, "%d:%v%v;", id, n.Gate(network.ID(id)), n.Fanins(network.ID(id)))
	}
	return sb.String()
}

func suiteFingerprint(bs []bench.Benchmark) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Set + "/" + b.Name + "=" + fingerprint(b.Build())
	}
	return out
}

// testRecords is a small catalogue for planning reads.
func testRecords() []registry.Record {
	var recs []registry.Record
	for i := 0; i < 40; i++ {
		recs = append(recs, registry.Record{
			ID: fmt.Sprintf("perf__f%02d__flow", i), Name: fmt.Sprintf("f%02d", i), Library: "Bestagon",
			Hash: fmt.Sprintf("%064x", i), Size: int64(1000 * (i + 1) * (i + 1) * 10), Area: i,
		})
	}
	return recs
}

// reads draws the first n planned requests of a seed.
func reads(seed uint64, n int) []request {
	p := newPlan(testRecords(), seed)
	r := newRNG(seed, "reads/schedule")
	out := make([]request, n)
	for i := range out {
		out[i] = p.next(r)
	}
	return out
}

func tableOrder(seed uint64) []string {
	var out []string
	for _, b := range tableBenches(seed) {
		out = append(out, b.Set+"/"+b.Name)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(tableOrder(3), tableOrder(3)) {
		t.Error("table-small order differs for one seed")
	}
	if !reflect.DeepEqual(reads(3, 500), reads(3, 500)) {
		t.Error("read schedule differs for one seed")
	}
	a, err := ploBenches()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ploBenches()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(suiteFingerprint(a), suiteFingerprint(b)) {
		t.Error("plo-synth suite is not reproducible")
	}
	if !reflect.DeepEqual(suiteFingerprint(catalogueBenches()), suiteFingerprint(catalogueBenches())) {
		t.Error("registry-mixed catalogue is not reproducible")
	}
	if !reflect.DeepEqual(suiteFingerprint(ingestBenches(2)), suiteFingerprint(ingestBenches(2))) {
		t.Error("ingest batch is not reproducible")
	}
	for _, b := range a {
		if s := layoutSize(b.Build()); s < ploSizeMin || s > ploSizeMax {
			t.Errorf("%s: layout size %d outside the plo-synth band", b.Name, s)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	if reflect.DeepEqual(tableOrder(3), tableOrder(4)) {
		t.Error("table-small order is the same for two seeds")
	}
	if reflect.DeepEqual(reads(3, 500), reads(4, 500)) {
		t.Error("read schedule is the same for two seeds")
	}
}

// TestIngestBatchesAlike checks that two ingest batches publish new
// records that take the same work: the same networks under new names.
func TestIngestBatchesAlike(t *testing.T) {
	a, b := ingestBenches(0), ingestBenches(1)
	for i := range a {
		if a[i].Name == b[i].Name {
			t.Errorf("ingest batches 0 and 1 both publish %s", a[i].Name)
		}
		if fingerprint(a[i].Build()) != fingerprint(b[i].Build()) {
			t.Errorf("ingest network %d differs between batches 0 and 1", i)
		}
	}
}

// smallCampaign generates mux21 and c17 through the catalogue flows.
func smallCampaign(t *testing.T) *core.Database {
	t.Helper()
	var bs []bench.Benchmark
	for _, n := range [][2]string{{"Trindade16", "mux21"}, {"ISCAS85", "c17"}} {
		b, err := bench.ByName(n[0], n[1])
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, b)
	}
	ctx := obs.WithRegistry(obs.WithLogger(context.Background(), obs.NewLogger(io.Discard, obs.LevelError, false)), obs.NewRegistry())
	db := core.GenerateFlows(ctx, bs, catalogueFlows(), limits(), nil)
	if len(db.Entries) == 0 {
		t.Fatal("no layouts")
	}
	return db
}

func TestTimedStoreChangesNoResponse(t *testing.T) {
	db := smallCampaign(t)
	var batch []registry.Item
	for _, e := range db.Entries {
		it, err := registry.FromEntry(e, "test")
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, it)
	}
	raw, inner := registry.NewMemStore(), registry.NewMemStore()
	times := &storeTimes{}
	timed := timedStore{Storage: inner, t: times}
	apRaw, err := raw.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	apTimed, err := timed.Apply(batch)
	if err != nil {
		t.Fatal(err)
	}
	if apRaw != apTimed || !reflect.DeepEqual(raw.Snapshot(), timed.Snapshot()) || !reflect.DeepEqual(raw.Stats(), timed.Stats()) {
		t.Fatal("the wrapper changed what Apply, Snapshot or Stats return")
	}

	quiet := obs.NewLogger(io.Discard, obs.LevelError, false)
	serve := func(st registry.Storage) http.Handler {
		return server.New(&core.Database{}, server.WithStorage(st), server.WithRegistry(obs.NewRegistry()), server.WithLogger(quiet))
	}
	a, b := serve(raw), serve(timed)
	rec := raw.Snapshot()[0]
	paths := []struct{ path, etag string }{
		{"/v1/layouts?limit=2", ""},
		{"/v1/layouts?library=Bestagon", ""},
		{"/v1/layouts/" + rec.ID, ""},
		{"/v1/layouts/" + rec.ID + "/layout.fgl", ""},
		{"/v1/layouts/" + rec.ID + "/layout.fgl", `"` + rec.Hash + `"`},
		{"/v1/layouts/nope__nope__nope", ""},
		{"/v1/stats", ""},
	}
	for _, p := range paths {
		get := func(h http.Handler) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodGet, p.path, nil)
			if p.etag != "" {
				req.Header.Set("If-None-Match", p.etag)
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			return w
		}
		wa, wb := get(a), get(b)
		if wa.Code != wb.Code || wa.Body.String() != wb.Body.String() || wa.Header().Get("ETag") != wb.Header().Get("ETag") {
			t.Errorf("GET %s (If-None-Match %q): raw %d, timed %d", p.path, p.etag, wa.Code, wb.Code)
		}
	}
	if times.blobs.Load() == 0 || times.gets.Load() == 0 || times.snapshots.Load() == 0 || times.applies.Load() != 1 {
		t.Errorf("wrapper counted blobs=%d gets=%d snapshots=%d applies=%d",
			times.blobs.Load(), times.gets.Load(), times.snapshots.Load(), times.applies.Load())
	}
}

func TestDigestStable(t *testing.T) {
	flows := catalogueFlows()
	jobs := []jobRecord{
		{set: "S", name: "a", flow: flows[0], outcome: core.OutcomeOK, w: 3, h: 4, area: 12},
		{set: "S", name: "b", flow: flows[1], outcome: core.OutcomeInfeasible},
	}
	const want = "f57df6b471229cac"
	if got := digest(jobs); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
	if digest([]jobRecord{jobs[1], jobs[0]}) != digest(jobs) {
		t.Error("digest depends on job order")
	}
	changed := append([]jobRecord(nil), jobs...)
	changed[0].area = 13
	if digest(changed) == digest(jobs) {
		t.Error("digest ignores the area")
	}

	run := func() string {
		db := smallCampaign(t)
		var js []jobRecord
		for _, e := range db.Entries {
			js = append(js, jobRecord{set: e.Benchmark.Set, name: e.Benchmark.Name, flow: e.Flow,
				outcome: core.OutcomeOK, w: e.Width, h: e.Height, area: e.Area})
		}
		return digest(js)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("two runs of one campaign digest to %s and %s", a, b)
	}
}

// TestReadMixFollowsLoadTestRatio checks that every 20 requests carry
// the load test's mix, and that downloads alternate between the two
// download routes.
func TestReadMixFollowsLoadTestRatio(t *testing.T) {
	const n = 2000
	var got [numKinds]int
	blobs := 0
	for _, q := range reads(5, n) {
		got[q.kind]++
		if strings.HasPrefix(q.path, "/v1/blobs/") {
			blobs++
		}
	}
	for k, w := range kindWeights {
		if want := w * n / 20; got[k] < want-1 || got[k] > want+1 {
			t.Errorf("%s: %d of %d requests, want %d", kindNames[k], got[k], n, want)
		}
	}
	if d := got[kindDownload]; blobs < d/2-1 || blobs > d/2+1 {
		t.Errorf("%d of %d downloads by content hash, want half", blobs, d)
	}
}

// TestBudgetGuard checks that a flow is judged against the smallest
// wall-clock budget that bounds one of its stages, that each stage is
// judged against its own, and that unbounded flows are not judged.
func TestBudgetGuard(t *testing.T) {
	nanoPLO := core.Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: core.AlgoNanoPlaceR, PostLayout: true}
	orthoPLO := core.Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: core.AlgoOrtho, PostLayout: true}
	ortho := core.Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: core.AlgoOrtho}
	cases := []struct {
		name    string
		j       jobRecord
		invalid bool
	}{
		{"nanoplacer+plo near the nanoplacer budget", jobRecord{flow: nanoPLO, outcome: core.OutcomeOK, elapsed: nanoWall / 3}, true},
		{"ortho+plo within budget", jobRecord{flow: orthoPLO, outcome: core.OutcomeOK, elapsed: ploWall / 5}, false},
		{"ortho unbounded", jobRecord{flow: ortho, outcome: core.OutcomeOK, elapsed: 2 * ploWall}, false},
		{"postlayout stage near its budget", jobRecord{flow: ortho, outcome: core.OutcomeOK,
			stages: map[string]time.Duration{core.StagePostLayout: ploWall / 3}}, true},
		{"exact timeout is the step budget", jobRecord{flow: core.Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: core.AlgoExact},
			outcome: core.OutcomeTimeout, elapsed: time.Second}, false},
	}
	for _, c := range cases {
		if got := c.j.problem() != ""; got != c.invalid {
			t.Errorf("%s: invalid = %v, want %v (%q)", c.name, got, c.invalid, c.j.problem())
		}
	}
}
