// Command mntbench is the MNT Bench reproduction tool: it generates FCN
// gate-level layouts for the benchmark suites across all tool
// combinations, regenerates the paper's Table I, serves the web
// interface, and converts between Verilog networks and .fgl layouts.
//
// Usage:
//
//	mntbench list
//	mntbench table    [-lib qcaone|bestagon] [-set NAME] [-full] [-workers N] [-out FILE] [-trace FILE.json] [-journal FILE.jsonl]
//	mntbench generate [-lib ...] [-set ...] [-workers N] [-dir DIR] [-trace FILE.json] [-journal FILE.jsonl]
//	mntbench serve    [-addr :8080] [-set ...] [-traces] [-store DIR]
//	mntbench import   -store DIR [-campaign NAME] [-skip-drc] SRCDIR...
//	mntbench loadtest [-n 5000] [-c 256] [-p99 250ms] [-set NAME]
//	mntbench layout   [-in FILE.v] [-algo ortho|exact|nanoplacer] [-lib ...] [-plo] [-inord] [-out FILE.fgl]
//	mntbench convert  [-in FILE.fgl] [-out FILE.v]
//	mntbench verify   [-layout FILE.fgl] [-net FILE.v]
//	mntbench perfsnap [-benchtime 1s] [-experiments LIST] [-profile-dir DIR] [-out FILE]
//	mntbench perfdiff [-threshold metric=rel,...] OLD.json NEW.json
//	mntbench selftest [-seed N] [-n N] [-workers N] [-flows LIST] [-json] [-repro-dir DIR] [-replay FILE]
//	mntbench tail     [-follow] [-poll 500ms] FILE.jsonl
//	mntbench journal  summary|verify|jobs [-dir DIR] [-done|-ok|-unfinished] FILE.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/clocking"
	"repro/internal/core"
	"repro/internal/fgl"
	"repro/internal/gatelib"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/loadtest"
	"repro/internal/server/registry"
	"repro/internal/verify"
	"repro/internal/verilog"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "table":
		err = cmdTable(os.Args[2:])
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "import":
		err = cmdImport(os.Args[2:])
	case "loadtest":
		err = cmdLoadtest(os.Args[2:])
	case "layout":
		err = cmdLayout(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "cells":
		err = cmdCells(os.Args[2:])
	case "simulate":
		err = cmdSimulate(os.Args[2:])
	case "draw":
		err = cmdDraw(os.Args[2:])
	case "tracecheck":
		err = cmdTraceCheck(os.Args[2:])
	case "perfsnap":
		err = cmdPerfSnap(os.Args[2:])
	case "perfdiff":
		err = cmdPerfDiff(os.Args[2:])
	case "selftest":
		err = cmdSelftest(os.Args[2:])
	case "tail":
		err = cmdTail(os.Args[2:])
	case "journal":
		err = cmdJournal(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mntbench: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mntbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `mntbench — MNT Bench (DATE 2024) reproduction

commands:
  list       list the benchmark suites and functions
  table      regenerate the paper's Table I for one gate library
  generate   generate layouts for all tool combinations into a directory
  serve      run the MNT Bench web interface
  import     bulk-import generated layout directories into a registry store
  loadtest   hammer the registry API in-process and assert its p99 latency
  layout     run one physical design flow on a Verilog file
  convert    convert a .fgl layout back to structural Verilog
  verify     check a .fgl layout against a .v network
  stats      timing, energy, and DRC analysis of a .fgl layout
  cells      expand a .fgl layout to QCADesigner (.qca) / SiQAD (.sqd) cells
  simulate   bistable QCA cell simulation of a .fgl layout
  draw       render a .fgl layout as ASCII art or SVG
  tracecheck validate a -trace Chrome trace-event file
  perfsnap   run the E1-E7 experiment suite and write a BENCH_<n>.json snapshot
  perfdiff   compare two snapshots; exits nonzero on performance regression
  selftest   property-based conformance harness over every registered flow
  tail       render a campaign journal as live progress lines (-follow to watch)
  journal    summarize, verify, or list jobs of a campaign journal`)
}

// selectBenches picks benchmarks by set/name and a size cap.
func selectBenches(set, name string, full bool) ([]bench.Benchmark, error) {
	var out []bench.Benchmark
	for _, b := range bench.All() {
		if set != "" && !strings.EqualFold(b.Set, set) {
			continue
		}
		if name != "" && !strings.EqualFold(b.Name, name) {
			continue
		}
		if !full && b.PubNodes > 5000 {
			continue // the giant EPFL/ISCAS circuits need -full
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmarks match set=%q name=%q", set, name)
	}
	return out, nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("%-11s %-14s %9s %7s  %s\n", "SET", "NAME", "I/O", "N", "ORIGIN")
	for _, b := range bench.All() {
		fmt.Printf("%-11s %-14s %4d/%-4d %7d  %s\n", b.Set, b.Name, b.PubIn, b.PubOut, b.PubNodes, b.Origin)
	}
	return nil
}

func limitsFromFlags(exactSec, nanoSec, ploSec int) core.Limits {
	return core.Limits{
		ExactTimeout: time.Duration(exactSec) * time.Second,
		NanoTimeout:  time.Duration(nanoSec) * time.Second,
		PLOTimeout:   time.Duration(ploSec) * time.Second,
	}
}

func cmdTable(args []string) error {
	fs := flag.NewFlagSet("table", flag.ExitOnError)
	lib := fs.String("lib", "qcaone", "gate library: qcaone or bestagon")
	set := fs.String("set", "", "restrict to one benchmark set")
	name := fs.String("name", "", "restrict to one function")
	full := fs.Bool("full", false, "include the largest ISCAS85/EPFL circuits")
	out := fs.String("out", "", "also write the table to this file")
	exactSec := fs.Int("exact-timeout", 3, "exact search budget per function (seconds)")
	nanoSec := fs.Int("nano-timeout", 5, "NanoPlaceR budget per function (seconds)")
	ploSec := fs.Int("plo-timeout", 20, "post-layout optimization budget (seconds)")
	workers := fs.Int("workers", 0, "parallel campaign workers (0 = all CPU cores)")
	quiet := fs.Bool("q", false, "suppress progress output")
	traceFile := fs.String("trace", "", "write the campaign timeline as Chrome trace-event JSON to this file")
	journalFile := fs.String("journal", "", "append campaign lifecycle events to this JSONL journal file")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	library, err := gatelib.ByName(*lib)
	if err != nil {
		return err
	}
	benches, err := selectBenches(*set, *name, *full)
	if err != nil {
		return err
	}
	journal, err := openJournalFlag(*journalFile)
	if err != nil {
		return err
	}
	defer journal.Close()
	traces := campaignTraces(*traceFile)
	ctx, ready, err := of.activate(context.Background(), traces, journal)
	if err != nil {
		return err
	}
	ready.Ready()
	progress := func(p core.Progress) { fmt.Fprintln(os.Stderr, p.String()) }
	if *quiet {
		progress = nil
	}
	limits := limitsFromFlags(*exactSec, *nanoSec, *ploSec)
	limits.DiscardLayouts = true
	limits.Workers = *workers
	db := core.Generate(ctx, benches, library, limits, progress)
	if s := db.SkippedSummary(); s != "" {
		fmt.Fprintln(os.Stderr, s)
	}
	text := core.RenderTableI(db.TableI(benches, library), library)
	fmt.Print(text)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			return err
		}
	}
	if *traceFile != "" {
		if err := writeTraceFile(traces, *traceFile); err != nil {
			return err
		}
	}
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	lib := fs.String("lib", "", "gate library (empty = both)")
	set := fs.String("set", "", "restrict to one benchmark set")
	name := fs.String("name", "", "restrict to one function")
	full := fs.Bool("full", false, "include the largest circuits")
	dir := fs.String("dir", "mntbench-out", "output directory")
	exactSec := fs.Int("exact-timeout", 3, "exact search budget (seconds)")
	nanoSec := fs.Int("nano-timeout", 5, "NanoPlaceR budget (seconds)")
	ploSec := fs.Int("plo-timeout", 20, "PLO budget (seconds)")
	workers := fs.Int("workers", 0, "parallel campaign workers (0 = all CPU cores)")
	quiet := fs.Bool("q", false, "suppress progress output")
	traceFile := fs.String("trace", "", "write the campaign timeline as Chrome trace-event JSON to this file")
	journalFile := fs.String("journal", "", "append campaign lifecycle events to this JSONL journal file")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	benches, err := selectBenches(*set, *name, *full)
	if err != nil {
		return err
	}
	libs := gatelib.All()
	if *lib != "" {
		l, err := gatelib.ByName(*lib)
		if err != nil {
			return err
		}
		libs = []*gatelib.Library{l}
	}
	journal, err := openJournalFlag(*journalFile)
	if err != nil {
		return err
	}
	defer journal.Close()
	traces := campaignTraces(*traceFile)
	ctx, ready, err := of.activate(context.Background(), traces, journal)
	if err != nil {
		return err
	}
	ready.Ready()
	// Ctrl-C stops the campaign at the next stage boundary; the layouts
	// finished so far are still written and the summaries still print.
	// Campaign-boundary journal events fsync, so even a second, harder
	// interrupt loses at most the last flush interval of job events.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	progress := func(p core.Progress) { fmt.Fprintln(os.Stderr, p.String()) }
	if *quiet {
		progress = nil
	}
	limits := limitsFromFlags(*exactSec, *nanoSec, *ploSec)
	limits.Workers = *workers
	written := 0
	skipped := &core.Database{}
	exported := &core.Database{}
	for _, library := range libs {
		db := core.Generate(ctx, benches, library, limits, progress)
		skipped.Failures = append(skipped.Failures, db.Failures...)
		w, err := core.SaveDatabase(db, *dir)
		written += w
		if err != nil {
			return err
		}
		exported.Entries = append(exported.Entries, db.Entries...)
	}
	// The manifest spans every library written into the directory; it is
	// what `mntbench import` verifies blobs against.
	if len(exported.Entries) > 0 && !limits.DiscardLayouts {
		if err := core.WriteManifest(exported, *dir); err != nil {
			return err
		}
	}
	if s := skipped.SkippedSummary(); s != "" {
		fmt.Fprintln(os.Stderr, s)
	}
	if s := stageSummary(obs.Default()); s != "" {
		fmt.Fprint(os.Stderr, s)
	}
	if s := slowestSummary(traces, 10); s != "" {
		fmt.Fprint(os.Stderr, s)
	}
	if *traceFile != "" {
		if err := writeTraceFile(traces, *traceFile); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d layouts to %s\n", written, *dir)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("generation interrupted: %w", err)
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	var src serveSource
	fs.StringVar(&src.lib, "lib", "", "gate library (empty = both)")
	fs.StringVar(&src.set, "set", "Trindade16", "benchmark set(s) to generate at startup ('' = all)")
	fs.BoolVar(&src.full, "full", false, "include the largest circuits")
	fs.StringVar(&src.dir, "dir", "", "serve pre-generated layouts from this directory instead of generating")
	fs.StringVar(&src.storeDir, "store", "", "serve this on-disk registry store as it is (no startup campaign; fill it with mntbench import)")
	fs.BoolVar(&src.reverify, "reverify", false, "with -dir: re-establish functional equivalence on load")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/ profiling endpoints")
	tracesOn := fs.Bool("traces", false, "retain request/flow traces and mount /debug/traces")
	perfDir := fs.String("perf-dir", ".", "directory whose latest BENCH_<n>.json /debug/perf serves")
	of := registerObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if src.storeDir != "" && src.dir != "" {
		return fmt.Errorf("serve: -store and -dir are exclusive; ingest a directory into the store with mntbench import")
	}
	var traces *obs.TraceStore
	if *tracesOn {
		traces = obs.NewTraceStore(obs.TracePolicy{})
	}
	// A broadcast-only journal: the startup generation campaign streams
	// its lifecycle events to /debug/events watchers (sidecar and web
	// interface alike) without writing a file.
	journal := obs.NewJournal(nil, obs.Default())
	ctx, ready, err := of.activate(context.Background(), traces, journal)
	if err != nil {
		return err
	}
	ready.NotReady("database loading")
	opts := []server.Option{server.WithPerfDir(*perfDir), server.WithJournal(journal)}
	if *pprofOn {
		opts = append(opts, server.WithPprof())
	}
	if traces != nil {
		opts = append(opts, server.WithTraces(traces))
	}
	db, st, err := openCatalogue(ctx, src)
	if err != nil {
		return err
	}
	if st != nil {
		defer st.Close()
		opts = append(opts, server.WithStorage(st))
		fmt.Printf("serving registry store %s (%d layouts) on %s\n", src.storeDir, st.Stats().Layouts, *addr)
	} else {
		fmt.Printf("serving %d layouts on %s\n", len(db.Entries), *addr)
	}
	return serveGraceful(ctx, *addr, server.New(db, opts...), ready)
}

// serveSource is what serve's flags say to serve.
type serveSource struct {
	dir, storeDir string
	reverify      bool
	set, lib      string
	full          bool
}

// openCatalogue loads what serve serves. A -store comes back open with
// an empty database, so the server serves the store as it is and
// writes nothing to it: ingest is mntbench import's job. Otherwise the
// database is loaded from -dir or generated by a startup campaign, and
// the server keeps it in memory.
func openCatalogue(ctx context.Context, src serveSource) (*core.Database, registry.Storage, error) {
	if src.storeDir != "" {
		st, err := registry.OpenDiskStore(src.storeDir)
		if err != nil {
			return nil, nil, err
		}
		return &core.Database{}, st, nil
	}
	if src.dir != "" {
		db, err := core.LoadDatabase(src.dir, src.reverify)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range db.Failures {
			fmt.Fprintln(os.Stderr, "skipped:", f.Reason)
		}
		return db, nil, nil
	}
	benches, err := selectBenches(src.set, "", src.full)
	if err != nil {
		return nil, nil, err
	}
	libs := gatelib.All()
	if src.lib != "" {
		l, err := gatelib.ByName(src.lib)
		if err != nil {
			return nil, nil, err
		}
		libs = []*gatelib.Library{l}
	}
	db := &core.Database{}
	for _, library := range libs {
		part := core.Generate(ctx, benches, library, core.Limits{}, func(p core.Progress) { fmt.Fprintln(os.Stderr, p.String()) })
		db.Entries = append(db.Entries, part.Entries...)
		db.Failures = append(db.Failures, part.Failures...)
	}
	return db, nil, nil
}

// serveGraceful runs the web interface until SIGINT/SIGTERM, then flips
// /readyz (sidecar and server alike) to 503 so load balancers stop
// routing, and drains in-flight requests before returning. The sidecar
// readiness turns ready here: the database is loaded once serving
// starts.
func serveGraceful(ctx context.Context, addr string, s *server.Server, ready *obs.Readiness) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: addr, Handler: s}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	ready.Ready()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	ready.NotReady("shutting down")
	s.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(shutdownCtx)
}

// cmdImport bulk-ingests `generate` output directories into an on-disk
// content-addressed registry store. Each directory lands as one atomic
// campaign; re-imports are idempotent by content hash.
func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	storeDir := fs.String("store", "", "registry store directory (required; created if missing)")
	campaign := fs.String("campaign", "", "campaign name for all imported directories (default: each directory's base name)")
	skipDRC := fs.Bool("skip-drc", false, "trust the layouts and skip design-rule checking")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeDir == "" || fs.NArg() == 0 {
		return fmt.Errorf("usage: mntbench import -store DIR [-campaign NAME] [-skip-drc] SRCDIR...")
	}
	st, err := registry.OpenDiskStore(*storeDir)
	if err != nil {
		return err
	}
	defer st.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, src := range fs.Args() {
		rep, err := registry.ImportDir(ctx, st, src, registry.ImportOptions{Campaign: *campaign, SkipDRC: *skipDRC})
		if err != nil {
			return err
		}
		fmt.Printf("%s -> campaign %q: %d files, %d added, %d updated, %d unchanged\n",
			src, rep.Campaign, rep.Files, rep.Added, rep.Updated, rep.Unchanged)
		for _, s := range rep.Skipped {
			fmt.Fprintln(os.Stderr, "skipped:", s)
		}
		if rep.HashMismatches > 0 {
			return fmt.Errorf("%d file(s) in %s disagree with the manifest — refusing to register corrupted layouts", rep.HashMismatches, src)
		}
	}
	stats := st.Stats()
	fmt.Printf("store %s: %d layouts, %d blobs, %d bytes\n", *storeDir, stats.Layouts, stats.Blobs, stats.Bytes)
	return nil
}

// cmdLoadtest generates a small campaign, mounts the registry server
// over it in-process, and hammers the /v1 API, asserting the p99 from
// the server's own latency histograms. Exits nonzero when any request
// fails or the latency budget is blown, so CI can gate on it.
func cmdLoadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	n := fs.Int("n", 5000, "total requests")
	c := fs.Int("c", 256, "concurrent workers")
	p99 := fs.Duration("p99", 250*time.Millisecond, "fail when the /v1 p99 exceeds this (0 = report only)")
	set := fs.String("set", "Trindade16", "benchmark set to generate the fixture campaign from")
	storeDir := fs.String("store", "", "load the catalogue from this registry store instead of generating")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	reg := obs.NewRegistry()
	opts := []server.Option{server.WithRegistry(reg)}
	db := &core.Database{}
	if *storeDir != "" {
		st, err := registry.OpenDiskStore(*storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		opts = append(opts, server.WithStorage(st))
	} else {
		benches, err := selectBenches(*set, "", false)
		if err != nil {
			return err
		}
		db = core.Generate(ctx, benches, gatelib.QCAOne, core.Limits{}, nil)
		if len(db.Entries) == 0 {
			return fmt.Errorf("fixture generation produced no layouts")
		}
	}
	rep, err := loadtest.Run(ctx, server.New(db, opts...), reg, loadtest.Options{
		Concurrency: *c, Requests: *n, MaxP99: *p99,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, rep.String())
		return err
	}
	fmt.Println(rep.String())
	return nil
}

// openJournalFlag opens the -journal file when the flag was given; a
// nil *obs.Journal (every method no-ops) when it was not.
func openJournalFlag(path string) (*obs.Journal, error) {
	if path == "" {
		return nil, nil
	}
	j, err := obs.OpenJournal(path, obs.Default())
	if err != nil {
		return nil, err
	}
	if j.Recovered() {
		fmt.Fprintf(os.Stderr, "journal: %s had a damaged final line (crashed writer); truncated to the last complete event\n", path)
	}
	return j, nil
}

func cmdLayout(args []string) error {
	fs := flag.NewFlagSet("layout", flag.ExitOnError)
	in := fs.String("in", "", "input Verilog file (required)")
	lib := fs.String("lib", "qcaone", "gate library")
	algo := fs.String("algo", "ortho", "algorithm: ortho, exact, nanoplacer")
	inOrd := fs.Bool("inord", false, "apply input ordering (ortho)")
	plo := fs.Bool("plo", false, "apply post-layout optimization")
	hex := fs.Bool("hex", false, "apply 45° hexagonalization (implied for bestagon+ortho)")
	strash := fs.Bool("strash", false, "structurally hash and constant-fold the network first")
	balance := fs.Bool("balance", false, "insert buffers to path-balance the network first")
	out := fs.String("out", "", "output .fgl file (default stdout)")
	exactSec := fs.Int("exact-timeout", 10, "exact search budget (seconds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("layout: -in FILE.v is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	n, err := verilog.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	if *strash {
		merged := n.Strash()
		folded := n.PropagateConstants()
		fmt.Fprintf(os.Stderr, "strash: removed %d duplicate and %d constant-fed nodes\n", merged, folded)
	}
	if *balance {
		fmt.Fprintf(os.Stderr, "balance: inserted %d buffers\n", n.Balance(true))
	}
	library, err := gatelib.ByName(*lib)
	if err != nil {
		return err
	}
	var algorithm core.Algorithm
	switch strings.ToLower(*algo) {
	case "ortho":
		algorithm = core.AlgoOrtho
	case "exact":
		algorithm = core.AlgoExact
	case "nanoplacer":
		algorithm = core.AlgoNanoPlaceR
	default:
		return fmt.Errorf("layout: unknown algorithm %q", *algo)
	}
	scheme := clocking.TwoDDWave
	hexify := *hex
	if library == gatelib.Bestagon {
		scheme = clocking.Row
		if algorithm == core.AlgoOrtho {
			hexify = true
		}
	}
	flow := core.Flow{Library: library, Scheme: scheme, Algorithm: algorithm,
		InputOrder: *inOrd, PostLayout: *plo, Hexagonalize: hexify}
	entry, err := core.RunFlowOnNetwork(context.Background(), n, "custom", flow, core.Limits{
		ExactTimeout:  time.Duration(*exactSec) * time.Second,
		ExactMaxNodes: 1 << 30,
	})
	if err != nil {
		return err
	}
	text, err := fgl.WriteString(entry.Layout)
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Print(text)
		return nil
	}
	fmt.Fprintf(os.Stderr, "%s: %dx%d = %d tiles (verified=%v, %v)\n",
		n.Name, entry.Width, entry.Height, entry.Area, entry.Verified, entry.Runtime.Round(time.Millisecond))
	return os.WriteFile(*out, []byte(text), 0o644)
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input .fgl file (required)")
	out := fs.String("out", "", "output .v file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("convert: -in FILE.fgl is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	l, err := fgl.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	n, err := verify.ExtractNetwork(l)
	if err != nil {
		return err
	}
	text, err := verilog.WriteString(n)
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Print(text)
		return nil
	}
	return os.WriteFile(*out, []byte(text), 0o644)
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	layoutFile := fs.String("layout", "", "layout .fgl file (required)")
	netFile := fs.String("net", "", "reference .v network (optional: DRC only when absent)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *layoutFile == "" {
		return fmt.Errorf("verify: -layout FILE.fgl is required")
	}
	f, err := os.Open(*layoutFile)
	if err != nil {
		return err
	}
	l, err := fgl.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	report := verify.CheckDesignRules(l)
	if !report.OK() {
		for _, v := range report.Violations {
			fmt.Println("DRC:", v)
		}
		return fmt.Errorf("%d design rule violations", len(report.Violations))
	}
	fmt.Println("DRC: clean")
	if *netFile == "" {
		return nil
	}
	nf, err := os.Open(*netFile)
	if err != nil {
		return err
	}
	n, err := verilog.Parse(nf)
	nf.Close()
	if err != nil {
		return err
	}
	eq, err := verify.Equivalent(l, n)
	if err != nil {
		return err
	}
	if !eq {
		return fmt.Errorf("layout is NOT equivalent to %s", *netFile)
	}
	fmt.Println("equivalence: layout implements the network")
	return nil
}
