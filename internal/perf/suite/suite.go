// Package suite holds the callable bodies of the repository's E1–E7
// experiment benchmarks (see DESIGN.md, experiment index). The
// top-level bench_test.go wraps them as ordinary `go test -bench`
// benchmarks, and `mntbench perfsnap` runs the same bodies through
// testing.Benchmark to write BENCH_<n>.json trajectory snapshots — one
// implementation, two consumers, so the committed perf curve measures
// exactly what the benchmarks measure.
package suite

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/clocking"
	"repro/internal/core"
	"repro/internal/gatelib"
	"repro/internal/layout"
	"repro/internal/network"
	"repro/internal/perf"
	"repro/internal/physical/hexagonal"
	"repro/internal/physical/inord"
	"repro/internal/physical/ortho"
	"repro/internal/physical/postlayout"
	"repro/internal/route"
	"repro/internal/server"
)

// FullRun reports whether the large ISCAS85/EPFL circuits are in scope
// (slow: tens of minutes, several GB of memory).
func FullRun() bool { return os.Getenv("MNTBENCH_FULL") == "1" }

// TableBenches is the benchmark selection of the table experiments:
// the small suites by default, everything under MNTBENCH_FULL=1.
func TableBenches() []bench.Benchmark {
	var out []bench.Benchmark
	for _, bm := range bench.All() {
		if !FullRun() && bm.PubNodes > 120 {
			continue
		}
		out = append(out, bm)
	}
	return out
}

// TableLimits are the per-flow budgets the table experiments run under.
func TableLimits() core.Limits {
	return core.Limits{
		ExactTimeout: 2 * time.Second,
		NanoTimeout:  3 * time.Second,
		PLOTimeout:   10 * time.Second,
	}
}

// BenchTableI generates the Table I rows for one library and reports
// the aggregate area and mean ΔA (E1 for QCA ONE, E2 for Bestagon).
func BenchTableI(ctx context.Context, b *testing.B, lib *gatelib.Library) {
	benches := TableBenches()
	for i := 0; i < b.N; i++ {
		db := core.Generate(ctx, benches, lib, TableLimits(), nil)
		rows := db.TableI(benches, lib)
		if len(rows) == 0 {
			b.Fatal("no table rows")
		}
		totalArea, deltaSum := 0, 0.0
		for _, r := range rows {
			totalArea += r.Area
			deltaSum += r.DeltaA
		}
		b.ReportMetric(float64(totalArea), "tiles-total")
		b.ReportMetric(deltaSum/float64(len(rows)), "ΔA-mean-%")
		b.ReportMetric(float64(len(rows)), "functions")
	}
}

// BenchDeltaA measures the best-vs-baseline area improvement that MNT
// Bench's optimal tool combinations deliver (E3, the ΔA column).
func BenchDeltaA(ctx context.Context, b *testing.B) {
	benches := bench.BySet("Trindade16")
	for i := 0; i < b.N; i++ {
		db := core.Generate(ctx, benches, gatelib.QCAOne, TableLimits(), nil)
		improved, total := 0, 0
		worst := 0.0
		for _, bm := range benches {
			best := db.Best(bm.Set, bm.Name, gatelib.QCAOne)
			base := db.Baseline(bm.Set, bm.Name, gatelib.QCAOne)
			if best == nil || base == nil {
				continue
			}
			total++
			if best.Area < base.Area {
				improved++
			}
			d := (float64(best.Area) - float64(base.Area)) / float64(base.Area) * 100
			if d < worst {
				worst = d
			}
		}
		b.ReportMetric(float64(improved), "improved")
		b.ReportMetric(float64(total), "functions")
		b.ReportMetric(worst, "bestΔA-%")
	}
}

// BenchWebInterface exercises the Figure 1 web interface (E4): the /v1
// catalogue listing, a filtered listing, the filter grammar and the
// HTML index against a live server. The setup
// campaign runs under a deterministic exact-search step budget (like
// the conformance selftest) instead of a wall-clock timeout, so the
// catalogue being served — and with it the measured bytes and
// allocations per request — does not drift when flow code gets faster
// or slower.
func BenchWebInterface(ctx context.Context, b *testing.B) {
	benches := bench.BySet("Trindade16")[:3]
	limits := TableLimits()
	limits.ExactSteps = 20000
	db := core.Generate(ctx, benches, gatelib.QCAOne, limits, nil)
	srv := httptest.NewServer(server.New(db))
	defer srv.Close()
	paths := []string{
		"/v1/layouts",
		"/v1/layouts?library=QCA+ONE&algorithm=ortho",
		"/v1/filters",
		"/",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := paths[i%len(paths)]
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("%s: status %d", p, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// BenchRouterBestagon reproduces the §II claim that the best Bestagon
// flow for the EPFL router function needs a small fraction of the plain
// hexagonalization baseline's area (paper: 23.6% of [7]) (E5).
func BenchRouterBestagon(b *testing.B) {
	bm, err := bench.ByName("EPFL", "router")
	if err != nil {
		b.Fatal(err)
	}
	n := bm.Build()
	prep, err := gatelib.Bestagon.Prepare(n)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		baseCart, err := ortho.Place(prep, ortho.Options{})
		if err != nil {
			b.Fatal(err)
		}
		baseline, err := hexagonal.Map(baseCart)
		if err != nil {
			b.Fatal(err)
		}
		cart, err := ortho.Place(prep, ortho.Options{InputOrder: inord.BarycenterOrder(prep)})
		if err != nil {
			b.Fatal(err)
		}
		hex, err := hexagonal.Map(cart)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := postlayout.Optimize(hex, postlayout.Options{MaxPasses: 2, Timeout: 60 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		ratio := float64(opt.Area()) / float64(baseline.Area()) * 100
		b.ReportMetric(float64(baseline.Area()), "baseline-tiles")
		b.ReportMetric(float64(opt.Area()), "optimized-tiles")
		b.ReportMetric(ratio, "area-%of-baseline")
	}
}

// OrthoCase is one circuit of the E6 scaling experiment.
type OrthoCase struct{ Set, Name string }

// OrthoCases returns the E6 circuit ladder: small through c432 by
// default, the giant circuits under full.
func OrthoCases(full bool) []OrthoCase {
	cases := []OrthoCase{
		{"Trindade16", "mux21"},
		{"Fontes18", "parity"},
		{"ISCAS85", "c432"},
	}
	if full {
		cases = append(cases, OrthoCase{"ISCAS85", "c5315"}, OrthoCase{"EPFL", "sin"})
	}
	return cases
}

// BenchOrthoCase measures ortho's runtime on one circuit (E6, the t
// column): the paper reports sub-second runtimes for the scalable flow
// on every benchmark.
func BenchOrthoCase(b *testing.B, c OrthoCase) {
	bm, err := bench.ByName(c.Set, c.Name)
	if err != nil {
		b.Fatal(err)
	}
	n := bm.Build()
	prep, err := gatelib.QCAOne.Prepare(n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := ortho.Place(prep, ortho.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(l.Area()), "tiles")
	}
}

// BenchCampaign measures campaign scheduler throughput over the
// Trindade16 suite at the given worker count (E7) and returns the
// rendered Table I with the runtime column zeroed, so callers can
// assert worker-count determinism (timing is a measurement, not a
// result; everything else — areas, algorithms, schemes, ΔA — must match
// exactly).
func BenchCampaign(ctx context.Context, b *testing.B, workers int) string {
	benches := bench.BySet("Trindade16")
	limits := TableLimits()
	limits.Workers = workers
	limits.DiscardLayouts = true
	table := ""
	for i := 0; i < b.N; i++ {
		db := core.Generate(ctx, benches, gatelib.QCAOne, limits, nil)
		rows := db.TableI(benches, gatelib.QCAOne)
		if len(rows) != len(benches) {
			b.Fatalf("table rows = %d, want %d", len(rows), len(benches))
		}
		flows := len(db.Entries) + len(db.Failures)
		b.ReportMetric(float64(flows)/b.Elapsed().Seconds()*float64(b.N), "flows/s")
		for j := range rows {
			rows[j].RuntimeSec = 0
		}
		table = core.RenderTableI(rows, gatelib.QCAOne)
	}
	return table
}

// BenchExactMux21 measures the exact search on the paper's smallest
// showcase function (Table I reports < 1 s and area 12 for mux21).
func BenchExactMux21(ctx context.Context, b *testing.B) {
	bm, err := bench.ByName("Trindade16", "mux21")
	if err != nil {
		b.Fatal(err)
	}
	limits := core.Limits{ExactTimeout: 10 * time.Second}
	flow := core.Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: core.AlgoExact}
	for i := 0; i < b.N; i++ {
		e, err := core.RunFlow(ctx, bm, flow, limits)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(e.Area), "tiles")
	}
}

// simBenchNetwork builds the network the E9 simulation-throughput
// experiments run on (ISCAS85 c432: wide and deep enough that gate
// evaluation, not setup, dominates the measurement).
func simBenchNetwork(b *testing.B) *network.Network {
	bm, err := bench.ByName("ISCAS85", "c432")
	if err != nil {
		b.Fatal(err)
	}
	return bm.Build()
}

// BenchSimulateWords measures bit-parallel simulation throughput
// (E9/words): one SimulateWords call evaluates 64 input vectors, so the
// vectors_per_sec metric is directly comparable with E9/scalar.
func BenchSimulateWords(b *testing.B) {
	n := simBenchNetwork(b)
	words := make([]uint64, n.NumPIs())
	var x uint64 = 0x9E3779B97F4A7C15
	for i := range words {
		x = x*6364136223846793005 + 1442695040888963407
		words[i] = x
	}
	if _, err := n.SimulateWords(words); err != nil { // warm the compile cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.SimulateWords(words); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "vectors_per_sec")
}

// BenchSimulateScalar measures the single-pattern Simulate path over the
// same 64-vector budget on the same network (E9/scalar). The ratio of
// the two vectors_per_sec metrics is the bit-parallel win.
func BenchSimulateScalar(b *testing.B) {
	n := simBenchNetwork(b)
	vecs := network.RandomVectors(n.NumPIs(), 64, 1)
	if _, err := n.Simulate(vecs[0]); err != nil { // warm the compile cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range vecs {
			if _, err := n.Simulate(v); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "vectors_per_sec")
}

// BenchRouteExpansions measures raw A* search throughput on the
// flat-grid frontier (E10): a corner-to-corner query across an empty
// 32x32 2DDWave grid, reported in settled open-list entries per second.
func BenchRouteExpansions(b *testing.B) {
	l := layout.New("b", layout.Cartesian, clocking.TwoDDWave)
	l.MustPlace(layout.C(0, 0), layout.Tile{Fn: network.PI, Name: "a"})
	l.MustPlace(layout.C(31, 31), layout.Tile{Fn: network.PO, Name: "f"})
	opts := route.Options{MaxX: 31, MaxY: 31}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := route.RouteWithStats(l, layout.C(0, 0), layout.C(31, 31), opts)
		if err != nil {
			b.Fatal(err)
		}
		total += st.Expansions
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "expansions_per_sec")
}

// Experiments returns the full E1–E7 suite as perfsnap experiments.
// Sub-benchmarked experiments are flattened into one experiment per
// case (E6/<circuit>; E7/serial and E7/parallel) so every snapshot row
// is a single comparable measurement. The extra ExactMux21 showcase
// rides along as E8.
func Experiments() []perf.Experiment {
	exps := []perf.Experiment{
		{ID: "E1", Name: "TableIQCAOne", Bench: func(ctx context.Context, b *testing.B) { BenchTableI(ctx, b, gatelib.QCAOne) }},
		{ID: "E2", Name: "TableIBestagon", Bench: func(ctx context.Context, b *testing.B) { BenchTableI(ctx, b, gatelib.Bestagon) }},
		{ID: "E3", Name: "DeltaA", Bench: BenchDeltaA},
		{ID: "E4", Name: "WebInterface", Bench: BenchWebInterface},
		{ID: "E5", Name: "RouterBestagon", Bench: func(_ context.Context, b *testing.B) { BenchRouterBestagon(b) }},
	}
	for _, c := range OrthoCases(FullRun()) {
		c := c
		exps = append(exps, perf.Experiment{
			ID:    "E6/" + c.Name,
			Name:  fmt.Sprintf("OrthoScaling %s/%s", c.Set, c.Name),
			Bench: func(_ context.Context, b *testing.B) { BenchOrthoCase(b, c) },
		})
	}
	exps = append(exps,
		perf.Experiment{ID: "E7/parallel", Name: fmt.Sprintf("Campaign workers=%d", runtime.NumCPU()),
			Bench: func(ctx context.Context, b *testing.B) { BenchCampaign(ctx, b, runtime.NumCPU()) }},
		perf.Experiment{ID: "E7/serial", Name: "Campaign workers=1",
			Bench: func(ctx context.Context, b *testing.B) { BenchCampaign(ctx, b, 1) }},
		perf.Experiment{ID: "E8", Name: "ExactMux21", Bench: BenchExactMux21},
		perf.Experiment{ID: "E9/words", Name: "SimulateWords c432",
			Bench: func(_ context.Context, b *testing.B) { BenchSimulateWords(b) }},
		perf.Experiment{ID: "E9/scalar", Name: "SimulateScalar c432",
			Bench: func(_ context.Context, b *testing.B) { BenchSimulateScalar(b) }},
		perf.Experiment{ID: "E10", Name: "RouteExpansions 32x32",
			Bench: func(_ context.Context, b *testing.B) { BenchRouteExpansions(b) }},
	)
	return exps
}
