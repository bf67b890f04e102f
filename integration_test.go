package repro

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/fgl"
	"repro/internal/gatelib"
	"repro/internal/network"
	"repro/internal/physical/hexagonal"
	"repro/internal/physical/inord"
	"repro/internal/physical/ortho"
	"repro/internal/physical/postlayout"
	"repro/internal/qcasim"
	"repro/internal/verify"
	"repro/internal/verilog"
)

// TestEndToEndPipeline runs a benchmark function through the complete
// tool stack: Verilog serialization, parsing, library preparation,
// placement, optimization, .fgl round trip, DRC, equivalence checking,
// netlist re-extraction, and cell-level physical simulation.
func TestEndToEndPipeline(t *testing.T) {
	b, err := bench.ByName("Trindade16", "fa")
	if err != nil {
		t.Fatal(err)
	}
	n := b.Build()

	// Network -> Verilog -> network.
	vtext, err := verilog.WriteString(n)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := verilog.ParseString(vtext)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := network.Equivalent(n, parsed)
	if err != nil || !eq {
		t.Fatalf("verilog round trip: %v %v", eq, err)
	}

	// Placement + optimization for QCA ONE.
	prep, err := gatelib.QCAOne.Prepare(parsed)
	if err != nil {
		t.Fatal(err)
	}
	placed, err := ortho.Place(prep, ortho.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := postlayout.Optimize(placed, postlayout.Options{Timeout: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	opt.Library = gatelib.QCAOne.Name
	if err := verify.Check(opt, n); err != nil {
		t.Fatal(err)
	}

	// .fgl round trip.
	text, err := fgl.WriteString(opt)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fgl.ReadString(text)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Check(back, n); err != nil {
		t.Fatalf("after fgl round trip: %v", err)
	}

	// Layout -> netlist -> Verilog -> netlist.
	extracted, err := verify.ExtractNetwork(back)
	if err != nil {
		t.Fatal(err)
	}
	vtext2, err := verilog.WriteString(extracted)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verilog.ParseString(vtext2); err != nil {
		t.Fatal(err)
	}

	// Cell expansion + physical simulation of the reloaded layout.
	cells, err := gatelib.ExpandQCAOne(back)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := qcasim.New(cells)
	if err != nil {
		t.Fatal(err)
	}
	simTT, err := engine.TruthTable()
	if err != nil {
		t.Fatal(err)
	}
	refTT, err := extracted.TruthTable()
	if err != nil {
		t.Fatal(err)
	}
	for r := range simTT {
		for c := range simTT[r] {
			if simTT[r][c] != refTT[r][c] {
				t.Fatalf("physical simulation differs from logic at pattern %d output %d", r, c)
			}
		}
	}

	// QCADesigner export of the cells.
	var qca strings.Builder
	if err := export.WriteQCA(&qca, cells); err != nil {
		t.Fatal(err)
	}
	counts, err := export.QCACellCount(strings.NewReader(qca.String()))
	if err != nil {
		t.Fatal(err)
	}
	if counts["QCAD_CELL_INPUT"] != 3 || counts["QCAD_CELL_OUTPUT"] != 2 {
		t.Errorf("exported I/O cells: %v", counts)
	}
}

// TestEndToEndBestagonPipeline covers the hexagonal side: InOrd + ortho
// + 45° + PLO + .fgl + .sqd export.
func TestEndToEndBestagonPipeline(t *testing.T) {
	b, err := bench.ByName("Trindade16", "par_check")
	if err != nil {
		t.Fatal(err)
	}
	n := b.Build()
	prep, err := gatelib.Bestagon.Prepare(n)
	if err != nil {
		t.Fatal(err)
	}
	cart, _, err := inord.Place(prep, inord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hex, err := hexagonal.Map(cart)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := postlayout.Optimize(hex, postlayout.Options{Timeout: 15 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	opt.Library = gatelib.Bestagon.Name
	if err := verify.Check(opt, n); err != nil {
		t.Fatal(err)
	}
	if err := gatelib.Bestagon.CheckLayout(opt); err != nil {
		t.Fatal(err)
	}
	if opt.Area() > hex.Area() {
		t.Error("PLO grew the hexagonal layout")
	}

	text, err := fgl.WriteString(opt)
	if err != nil {
		t.Fatal(err)
	}
	back, err := fgl.ReadString(text)
	if err != nil {
		t.Fatal(err)
	}
	dots, err := gatelib.ExpandBestagon(back)
	if err != nil {
		t.Fatal(err)
	}
	var sqd strings.Builder
	if err := export.WriteSQD(&sqd, dots); err != nil {
		t.Fatal(err)
	}
	read, err := export.ReadSQDDots(strings.NewReader(sqd.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(read) != dots.NumCells() {
		t.Errorf("sqd round trip: %d dots, want %d", len(read), dots.NumCells())
	}
}

// TestBestLayoutSelection checks the MNT Bench core promise over a small
// generation run: the best entry per function never loses to any other
// generated flow.
func TestBestLayoutSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("generation run in -short mode")
	}
	benches := []bench.Benchmark{
		mustBenchmark(t, "Trindade16", "xor2"),
		mustBenchmark(t, "Trindade16", "par_gen"),
	}
	limits := core.Limits{ExactTimeout: 2 * time.Second, NanoTimeout: 2 * time.Second, PLOTimeout: 5 * time.Second}
	db := core.Generate(context.Background(), benches, gatelib.QCAOne, limits, nil)
	for _, b := range benches {
		best := db.Best(b.Set, b.Name, gatelib.QCAOne)
		if best == nil {
			t.Fatalf("no best for %s", b.Name)
		}
		for _, e := range db.Entries {
			if e.Benchmark.Name == b.Name && e.Area < best.Area {
				t.Errorf("%s: entry %s beats best (%d < %d)", b.Name, e.Flow, e.Area, best.Area)
			}
		}
		if !best.Verified {
			t.Errorf("%s: best entry not verified", b.Name)
		}
	}
}

func mustBenchmark(t *testing.T, set, name string) bench.Benchmark {
	t.Helper()
	b, err := bench.ByName(set, name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
