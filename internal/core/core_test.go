package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/clocking"
	"repro/internal/fgl"
	"repro/internal/gatelib"
)

func fastLimits() Limits {
	return Limits{
		ExactTimeout: 2 * time.Second,
		NanoTimeout:  2 * time.Second,
		PLOTimeout:   5 * time.Second,
	}
}

func mustBench(t *testing.T, set, name string) bench.Benchmark {
	t.Helper()
	b, err := bench.ByName(set, name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunFlowOrthoQCAOne(t *testing.T) {
	b := mustBench(t, "Trindade16", "mux21")
	e, err := RunFlow(context.Background(), b, Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: AlgoOrtho}, fastLimits())
	if err != nil {
		t.Fatal(err)
	}
	if !e.Verified {
		t.Error("entry not verified")
	}
	if e.Area != e.Width*e.Height {
		t.Error("area inconsistent")
	}
	if e.Layout.Library != "QCA ONE" {
		t.Errorf("library tag = %q", e.Layout.Library)
	}
}

func TestRunFlowXorNeedsDecompositionOnQCAOne(t *testing.T) {
	b := mustBench(t, "Trindade16", "ha") // contains XOR
	e, err := RunFlow(context.Background(), b, Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: AlgoOrtho}, fastLimits())
	if err != nil {
		t.Fatal(err)
	}
	if !e.Verified {
		t.Error("not verified")
	}
}

func TestRunFlowBestagonHexagonalized(t *testing.T) {
	b := mustBench(t, "Trindade16", "ha")
	e, err := RunFlow(context.Background(), b, Flow{Library: gatelib.Bestagon, Scheme: clocking.Row, Algorithm: AlgoOrtho, Hexagonalize: true}, fastLimits())
	if err != nil {
		t.Fatal(err)
	}
	if e.Flow.Scheme != clocking.Row {
		t.Error("wrong scheme")
	}
	if !e.Verified {
		t.Error("not verified")
	}
}

func TestRunFlowExact(t *testing.T) {
	b := mustBench(t, "Trindade16", "xor2")
	e, err := RunFlow(context.Background(), b, Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: AlgoExact}, fastLimits())
	if err != nil {
		t.Skipf("exact within budget failed: %v", err)
	}
	if !e.Verified {
		t.Error("not verified")
	}
}

func TestRunFlowRejectsOrthoOnUSE(t *testing.T) {
	b := mustBench(t, "Trindade16", "mux21")
	_, err := RunFlow(context.Background(), b, Flow{Library: gatelib.QCAOne, Scheme: clocking.USE, Algorithm: AlgoOrtho}, fastLimits())
	if err == nil {
		t.Fatal("ortho on USE accepted")
	}
}

func TestGenerateAndTableTrindade(t *testing.T) {
	if testing.Short() {
		t.Skip("full flow generation in -short mode")
	}
	benches := bench.BySet("Trindade16")[:3] // mux21, xor2, xnor2
	db := Generate(context.Background(), benches, gatelib.QCAOne, fastLimits(), nil)
	if len(db.Entries) == 0 {
		t.Fatal("no entries generated")
	}
	for _, b := range benches {
		best := db.Best(b.Set, b.Name, gatelib.QCAOne)
		if best == nil {
			t.Fatalf("no best layout for %s", b.Name)
		}
		base := db.Baseline(b.Set, b.Name, gatelib.QCAOne)
		if base == nil {
			t.Fatalf("no baseline for %s", b.Name)
		}
		if best.Area > base.Area {
			t.Errorf("%s: best %d worse than baseline %d", b.Name, best.Area, base.Area)
		}
	}
	rows := db.TableI(benches, gatelib.QCAOne)
	if len(rows) != len(benches) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DeltaA > 0 {
			t.Errorf("%s: positive ΔA %+.1f%%", r.Name, r.DeltaA)
		}
	}
	text := RenderTableI(rows, gatelib.QCAOne)
	for _, want := range []string{"QCA ONE", "mux21", "Algorithm", "ΔA"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q:\n%s", want, text)
		}
	}
}

func TestFlowString(t *testing.T) {
	f := Flow{Library: gatelib.Bestagon, Scheme: clocking.Row, Algorithm: AlgoOrtho, InputOrder: true, Hexagonalize: true, PostLayout: true}
	if got := f.String(); got != "ortho, InOrd (SDN), 45°, PLO" {
		t.Errorf("Flow.String() = %q", got)
	}
	if got := f.ID(); got != "bestagon_row_ortho+inord+hex+plo" {
		t.Errorf("Flow.ID() = %q", got)
	}
}

func TestFlowsEnumeration(t *testing.T) {
	qf := Flows(gatelib.QCAOne)
	if len(qf) < 8 {
		t.Errorf("QCA ONE flows = %d, want >= 8", len(qf))
	}
	bf := Flows(gatelib.Bestagon)
	if len(bf) < 5 {
		t.Errorf("Bestagon flows = %d, want >= 5", len(bf))
	}
	for _, f := range bf {
		if f.Scheme != clocking.Row {
			t.Errorf("Bestagon flow with scheme %s", f.Scheme)
		}
	}
}

func TestFlowIDRoundTrip(t *testing.T) {
	flows := []Flow{
		{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: AlgoExact},
		{Library: gatelib.QCAOne, Scheme: clocking.USE, Algorithm: AlgoNanoPlaceR, PostLayout: true},
		{Library: gatelib.Bestagon, Scheme: clocking.Row, Algorithm: AlgoOrtho, InputOrder: true, Hexagonalize: true, PostLayout: true},
	}
	for _, f := range flows {
		got, err := ParseFlowID(f.ID())
		if err != nil {
			t.Fatalf("%s: %v", f.ID(), err)
		}
		if got.Library != f.Library || got.Scheme != f.Scheme || got.Algorithm != f.Algorithm ||
			got.InputOrder != f.InputOrder || got.Hexagonalize != f.Hexagonalize || got.PostLayout != f.PostLayout {
			t.Errorf("round trip %s -> %+v", f.ID(), got)
		}
	}
	for _, bad := range []string{"x", "qcaone_2ddwave_frobnicate", "qcaone_nope_ortho", "nope_row_ortho", "qcaone_2ddwave_ortho+quantum"} {
		if _, err := ParseFlowID(bad); err == nil {
			t.Errorf("ParseFlowID accepted %q", bad)
		}
	}
}

func TestLoadDatabaseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := mustBench(t, "Trindade16", "mux21")
	e, err := RunFlow(context.Background(), b, Flow{Library: gatelib.QCAOne, Scheme: clocking.TwoDDWave, Algorithm: AlgoOrtho}, fastLimits())
	if err != nil {
		t.Fatal(err)
	}
	text, err := fgl.WriteString(e.Layout)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, EntryFileName(e)+".fgl"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	// A junk file must be skipped, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "junk.fgl"), []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDatabase(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Entries) != 1 {
		t.Fatalf("loaded %d entries", len(db.Entries))
	}
	got := db.Entries[0]
	if got.Area != e.Area || got.Flow.ID() != e.Flow.ID() || got.Benchmark.Name != "mux21" {
		t.Errorf("loaded entry mismatch: %+v", got)
	}
	if !got.Verified {
		t.Error("reverify did not mark the entry verified")
	}
	if len(db.Failures) == 0 {
		t.Error("junk file not recorded as failure")
	}
}

func TestLoadDatabaseEmptyDir(t *testing.T) {
	if _, err := LoadDatabase(t.TempDir(), false); err == nil {
		t.Error("empty directory accepted")
	}
}
