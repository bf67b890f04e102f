package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/gatelib"
)

// Database holds all generated layout entries, the MNT Bench catalogue.
type Database struct {
	Entries []*Entry
	// Failures records flows that produced no layout (infeasible, over
	// budget, timed out) for reporting.
	Failures []Failure
}

// Failure describes a flow that produced no layout.
type Failure struct {
	Benchmark bench.Benchmark
	Flow      Flow
	Reason    string
	// Outcome classifies the failure (infeasible, timeout, ...).
	Outcome Outcome
}

// Progress reports one finished flow of a Generate campaign to the
// progress callback; exactly one of Entry and Err is set. Delivery is
// serialized: callbacks never run concurrently, and they arrive in
// benchmark-major/flow-minor order regardless of the worker count.
type Progress struct {
	Benchmark bench.Benchmark
	Flow      Flow
	// Done flows out of Total have finished, this one included.
	Done, Total int
	Entry       *Entry // nil when the flow failed
	Err         error  // nil when the flow succeeded
	Outcome     Outcome
	Elapsed     time.Duration
	// Throughput is the campaign's running completion rate in flows per
	// second since the campaign started; ETA extrapolates the remaining
	// flows at that rate. Both are zero when unknown (hand-constructed
	// Progress values, or a finished campaign's ETA).
	Throughput float64
	ETA        time.Duration
}

// String renders the progress line the CLI prints per flow.
func (p Progress) String() string {
	var rate string
	if p.Throughput > 0 {
		rate = fmt.Sprintf("  %.1f flows/s", p.Throughput)
		if p.ETA > 0 {
			rate += fmt.Sprintf(" ETA %v", p.ETA.Round(time.Second))
		}
	}
	if p.Err != nil {
		return fmt.Sprintf("%-10s %-14s %-40s skipped: %s (%v)%s",
			p.Benchmark.Set, p.Benchmark.Name, p.Flow.String(), p.Outcome, p.Elapsed, rate)
	}
	return fmt.Sprintf("%-10s %-14s %-40s %4dx%-4d A=%-8d (%v)%s",
		p.Benchmark.Set, p.Benchmark.Name, p.Flow.String(),
		p.Entry.Width, p.Entry.Height, p.Entry.Area, p.Elapsed, rate)
}

// Skipped summarizes the recorded failures by outcome.
func (db *Database) Skipped() map[Outcome]int {
	out := make(map[Outcome]int)
	for _, f := range db.Failures {
		out[f.Outcome]++
	}
	return out
}

// SkippedSummary renders Skipped as a one-line report like
// "3 flows skipped (2 infeasible, 1 timeout)"; empty when nothing was
// skipped.
func (db *Database) SkippedSummary() string {
	return renderSkipped(len(db.Failures), db.Skipped())
}

// renderSkipped is the shared formatter behind SkippedSummary and the
// journal summary: failure counts by outcome, sorted by outcome name so
// the line is byte-stable. Empty when total is zero.
func renderSkipped(total int, counts map[Outcome]int) string {
	if total == 0 {
		return ""
	}
	outcomes := make([]string, 0, len(counts))
	for o := range counts {
		outcomes = append(outcomes, string(o))
	}
	sort.Strings(outcomes)
	parts := make([]string, 0, len(outcomes))
	for _, o := range outcomes {
		parts = append(parts, fmt.Sprintf("%d %s", counts[Outcome(o)], o))
	}
	return fmt.Sprintf("%d flows skipped (%s)", total, strings.Join(parts, ", "))
}

// Rank orders layouts of one function under Table I's rule: smaller
// area wins, ties go to fewer crossings, then to the lexicographically
// smallest flow ID, so the winner never depends on insertion order.
// Database.Best and the registry's best-per-function selection both
// rank by it.
type Rank struct {
	Area, Crossings int
	FlowID          string
}

// Beats reports whether a ranks strictly before b.
func (a Rank) Beats(b Rank) bool {
	if a.Area != b.Area {
		return a.Area < b.Area
	}
	if a.Crossings != b.Crossings {
		return a.Crossings < b.Crossings
	}
	return a.FlowID < b.FlowID
}

// Best returns the entry that ranks first (see Rank) for one benchmark
// under one library, or nil when no flow succeeded.
func (db *Database) Best(set, name string, lib *gatelib.Library) *Entry {
	var best *Entry
	var bestRank Rank
	for _, e := range db.Entries {
		if e.Benchmark.Set != set || e.Benchmark.Name != name || e.Flow.Library != lib {
			continue
		}
		if r := (Rank{e.Area, e.Crossings, e.Flow.ID()}); best == nil || r.Beats(bestRank) {
			best, bestRank = e, r
		}
	}
	return best
}

// Baseline returns the reference entry against which the paper's ΔA
// improvement is computed: the plain scalable flow of the library
// (ortho under 2DDWave for QCA ONE; ortho+45° under ROW for Bestagon),
// falling back to plain exact when ortho produced nothing.
func (db *Database) Baseline(set, name string, lib *gatelib.Library) *Entry {
	var fallback *Entry
	for _, e := range db.Entries {
		if e.Benchmark.Set != set || e.Benchmark.Name != name || e.Flow.Library != lib {
			continue
		}
		if e.Flow.Algorithm == AlgoOrtho && !e.Flow.InputOrder && !e.Flow.PostLayout {
			return e
		}
		if fallback == nil || e.Area > fallback.Area {
			fallback = e // worst area over all flows approximates "previous state of the art"
		}
	}
	return fallback
}

// TableRow is one line of the paper's Table I for one gate library.
type TableRow struct {
	Set        string
	Name       string
	In, Out    int
	Nodes      int
	Width      int
	Height     int
	Area       int
	RuntimeSec float64
	Algorithm  string
	Scheme     string
	// DeltaA is the relative area change of the best layout versus the
	// library's baseline flow (negative = smaller, as in the paper).
	DeltaA float64
	// Verified reflects the winning entry's verification status.
	Verified bool
}

// TableI computes the per-function best-layout rows for one library,
// mirroring the paper's Table I (one half per gate library).
func (db *Database) TableI(benches []bench.Benchmark, lib *gatelib.Library) []TableRow {
	var rows []TableRow
	for _, b := range benches {
		best := db.Best(b.Set, b.Name, lib)
		if best == nil {
			continue
		}
		row := TableRow{
			Set: b.Set, Name: b.Name,
			In: b.PubIn, Out: b.PubOut, Nodes: b.PubNodes,
			Width: best.Width, Height: best.Height, Area: best.Area,
			RuntimeSec: best.Runtime.Seconds(),
			Algorithm:  best.Flow.String(),
			Scheme:     best.Flow.Scheme.Name,
			Verified:   best.Verified,
		}
		if base := db.Baseline(b.Set, b.Name, lib); base != nil && base.Area > 0 {
			row.DeltaA = (float64(best.Area) - float64(base.Area)) / float64(base.Area) * 100
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderTableI formats rows like the paper's Table I.
func RenderTableI(rows []TableRow, lib *gatelib.Library) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s gate library — most area-efficient layouts discovered\n", lib.Name)
	fmt.Fprintf(&sb, "%-11s %-14s %8s %6s | %5s x %-5s = %-10s %7s  %-34s %-9s %8s\n",
		"Set", "Name", "I/O", "N", "w", "h", "A", "t[s]", "Algorithm", "Clk.", "ΔA")
	sb.WriteString(strings.Repeat("-", 132) + "\n")
	prevSet := ""
	for _, r := range rows {
		set := r.Set
		if set == prevSet {
			set = ""
		} else {
			prevSet = set
		}
		delta := fmt.Sprintf("%+.1f%%", r.DeltaA)
		if r.DeltaA == 0 {
			delta = "±0%"
		}
		fmt.Fprintf(&sb, "%-11s %-14s %8s %6d | %5d x %-5d = %-10d %7.2f  %-34s %-9s %8s\n",
			set, r.Name, fmt.Sprintf("%d/%d", r.In, r.Out), r.Nodes,
			r.Width, r.Height, r.Area, r.RuntimeSec, r.Algorithm, r.Scheme, delta)
	}
	return sb.String()
}
