package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
)

// obsFlags bundles the observability flags shared by the long-running
// commands (table, generate, serve).
type obsFlags struct {
	logLevel    *string
	logJSON     *bool
	metricsAddr *string
}

func registerObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		logLevel:    fs.String("log-level", "info", "log level: debug, info, warn, error"),
		logJSON:     fs.Bool("log-json", false, "emit logs as JSON lines"),
		metricsAddr: fs.String("metrics-addr", "", "expose /metrics, /healthz, /debug/traces and /debug/pprof on this address (e.g. :9090)"),
	}
}

// activate installs the configured logger as the process default,
// optionally starts the metrics sidecar server, and returns a context
// carrying the logger, the process registry, and — when traces/journal
// are non-nil — the trace store and event journal, which the sidecar
// then also serves at /debug/traces and /debug/events. The returned
// readiness is mounted at the sidecar's /readyz, starts not-ready, and
// is flipped by the command once its database or campaign is loaded.
func (o *obsFlags) activate(ctx context.Context, traces *obs.TraceStore, journal *obs.Journal) (context.Context, *obs.Readiness, error) {
	level, err := obs.ParseLevel(*o.logLevel)
	if err != nil {
		return nil, nil, err
	}
	log := obs.NewLogger(os.Stderr, level, *o.logJSON)
	obs.SetDefaultLogger(log)
	reg := obs.Default()
	obs.RegisterBuildInfo(reg)
	ready := obs.NewReadiness("starting up")
	ctx = obs.WithLogger(obs.WithRegistry(ctx, reg), log)
	if traces != nil {
		ctx = obs.WithTraces(ctx, traces)
	}
	if journal == nil && *o.metricsAddr != "" {
		// No durable journal file, but a live surface: a broadcast-only
		// journal feeds /debug/events without touching disk. It lives for
		// the process, like the runtime collector below.
		journal = obs.NewJournal(nil, reg)
	}
	if journal != nil {
		ctx = obs.WithJournal(ctx, journal)
	}
	if *o.metricsAddr != "" {
		// The collector keeps the mntbench_go_* runtime gauges fresh for
		// the whole campaign; scrapes additionally resample so exported
		// values are never stale. Process-lifetime: no Stop needed.
		obs.StartRuntimeCollector(reg, 10*time.Second)
		ln, err := net.Listen("tcp", *o.metricsAddr)
		if err != nil {
			return nil, nil, fmt.Errorf("metrics listener: %w", err)
		}
		log.Info("metrics listening", "addr", ln.Addr().String())
		srv := &http.Server{Handler: sidecarMux(reg, ready, journal, traces, perf.Handler("."))}
		go srv.Serve(ln)
	}
	return ctx, ready, nil
}

// sidecarMux is the metrics sidecar's handler: the operational routes
// the web server also mounts, with profiling always on.
func sidecarMux(reg *obs.Registry, ready *obs.Readiness, journal *obs.Journal, traces *obs.TraceStore, perfHandler http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	obs.MountDebug(mux, obs.DebugRoutes{
		Registry: reg,
		Ready:    ready,
		Journal:  journal,
		Traces:   traces,
		Perf:     perfHandler,
		Pprof:    true,
	})
	return mux
}

// campaignTraces builds the trace store for a table/generate campaign:
// the bounded default policy for the in-memory slowest/failed view, or
// keep-everything when the timeline is being exported to a file.
func campaignTraces(traceFile string) *obs.TraceStore {
	return obs.NewTraceStore(obs.TracePolicy{KeepAll: traceFile != ""})
}

// writeTraceFile exports every retained trace as a Chrome trace-event
// file loadable in Perfetto or chrome://tracing.
func writeTraceFile(ts *obs.TraceStore, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ts.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote campaign timeline to %s (open in https://ui.perfetto.dev or chrome://tracing)\n", path)
	return nil
}

// stageSummary renders a per-stage timing table from the span
// histograms collected during a campaign; empty when nothing was timed.
func stageSummary(reg *obs.Registry) string {
	type row struct {
		stage                 string
		calls                 uint64
		total, mean, p50, p95 float64
	}
	var rows []row
	for _, fam := range reg.Snapshot() {
		if fam.Name != obs.SpanMetric {
			continue
		}
		for _, s := range fam.Series {
			if s.Histogram == nil || s.Histogram.Count == 0 {
				continue
			}
			stage := ""
			for _, l := range s.Labels {
				if l.Key == "stage" {
					stage = l.Value
				}
			}
			if stage == "" || stage == "flow" || stage == "worker" || stage == "http" {
				continue // aggregate root spans carry extra labels; only stages belong here
			}
			h := *s.Histogram
			rows = append(rows, row{stage, h.Count, h.Sum, h.Mean(), h.Quantile(0.5), h.Quantile(0.95)})
		}
	}
	if len(rows) == 0 {
		return ""
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].total > rows[j].total })
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %7s %10s %10s %10s %10s\n", "stage", "calls", "total", "mean", "p50", "p95")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %7d %10s %10s %10s %10s\n", r.stage, r.calls,
			fmtSec(r.total), fmtSec(r.mean), fmtSec(r.p50), fmtSec(r.p95))
	}
	return sb.String()
}

// slowestSummary renders the slowest flows retained by the campaign's
// trace store, with each flow's dominant stage; empty when no flow
// traces were retained.
func slowestSummary(ts *obs.TraceStore, n int) string {
	type row struct {
		dur             time.Duration
		bench, flow     string
		status          string
		topStage        string
		topStagePercent int
	}
	var rows []row
	for _, t := range ts.Snapshot() {
		fe := t.FlowEvent()
		if fe == nil {
			continue
		}
		r := row{dur: fe.Duration, status: "ok"}
		if fe.Err != "" {
			r.status = "failed"
		}
		r.bench = fe.Attrs["set"] + "/" + fe.Attrs["benchmark"]
		r.flow = fe.Attrs["flow"]
		var topDur time.Duration
		for _, c := range t.Children(fe.ID) {
			if c.Duration > topDur {
				topDur = c.Duration
				r.topStage = c.Name
			}
		}
		if r.topStage != "" && fe.Duration > 0 {
			r.topStagePercent = int(100 * topDur / fe.Duration)
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return ""
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].dur > rows[j].dur })
	if len(rows) > n {
		rows = rows[:n]
	}
	var sb strings.Builder
	sb.WriteString("slowest flows:\n")
	fmt.Fprintf(&sb, "%10s  %-22s %-34s %-7s %s\n", "elapsed", "benchmark", "flow", "status", "dominant stage")
	for _, r := range rows {
		top := "-"
		if r.topStage != "" {
			top = fmt.Sprintf("%s %d%%", r.topStage, r.topStagePercent)
		}
		fmt.Fprintf(&sb, "%10s  %-22s %-34s %-7s %s\n",
			r.dur.Round(10*time.Microsecond), r.bench, r.flow, r.status, top)
	}
	return sb.String()
}

func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// cmdTraceCheck validates a -trace output file: it must parse as
// Chrome trace-event JSON with properly shaped span events. Used by the
// CI smoke test and handy after long campaigns.
func cmdTraceCheck(args []string) error {
	fs := flag.NewFlagSet("tracecheck", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("tracecheck: usage: mntbench tracecheck FILE.json")
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			TS   *float64          `json:"ts"`
			PID  *int              `json:"pid"`
			TID  *int              `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("tracecheck: %s is not trace-event JSON: %w", path, err)
	}
	spans := 0
	rows := make(map[int]bool)
	tracesSeen := make(map[string]bool)
	for i, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.PID == nil || e.TS == nil {
			return fmt.Errorf("tracecheck: event %d is malformed (needs name, ph, pid, ts)", i)
		}
		if e.Ph != "X" {
			continue
		}
		if e.TID == nil {
			return fmt.Errorf("tracecheck: span event %d has no tid", i)
		}
		spans++
		rows[*e.TID] = true
		if id := e.Args["trace"]; id != "" {
			tracesSeen[id] = true
		}
	}
	if spans == 0 {
		return fmt.Errorf("tracecheck: %s contains no span events", path)
	}
	fmt.Printf("%s: ok — %d span events, %d traces, %d timeline rows\n",
		path, spans, len(tracesSeen), len(rows))
	return nil
}
