package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server/registry"
)

// jobRecord is one (benchmark, flow) job of a campaign as the benchmark
// saw it through the progress callback.
type jobRecord struct {
	set, name string
	flow      core.Flow
	outcome   core.Outcome
	w, h      int
	area      int
	elapsed   time.Duration
	// stages are the stage times of a successful job (Entry.Stages;
	// the journal's stages_us carries the same, and neither has them
	// for failed flows).
	stages map[string]time.Duration
	// capped marks a flow the program declined up front because the
	// input exceeds one of its feasibility caps (size, scheme).
	capped bool
}

func (j jobRecord) key() string { return j.set + "/" + j.name + "/" + j.flow.ID() }

// digest fingerprints a campaign's outcomes: flow ID, outcome, width ×
// height and area of every job, in a fixed order. Two repetitions of
// one campaign on one commit must agree on it, or the campaign's result
// depended on something other than its inputs.
func digest(jobs []jobRecord) string {
	lines := make([]string, len(jobs))
	for i, j := range jobs {
		lines[i] = fmt.Sprintf("%s %s %dx%d %d", j.key(), j.outcome, j.w, j.h, j.area)
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// problem names what is wrong with a job, or returns "". Infeasible is
// a declared bound, and so is exact's step budget: with the wall-clock
// budget far away, a timeout from exact can only be the step count.
// A flow that came within a quarter of the smallest wall-clock budget
// bounding one of its stages, or a stage within a quarter of its own
// budget, makes the run invalid, because its outcome may then depend
// on machine speed.
func (j jobRecord) problem() string {
	if b := budgetOf(j.flow); b > 0 && j.elapsed >= b/4 {
		return fmt.Sprintf("%s took %v, within 4x of its %v wall-clock budget", j.key(), j.elapsed, b)
	}
	for stage, d := range j.stages {
		if b, ok := stageBudgets[stage]; ok && d >= b/4 {
			return fmt.Sprintf("%s: stage %s took %v, within 4x of its %v wall-clock budget", j.key(), stage, d, b)
		}
	}
	switch j.outcome {
	case core.OutcomeOK, core.OutcomeInfeasible:
		return ""
	case core.OutcomeTimeout:
		if j.flow.Algorithm == core.AlgoExact {
			return ""
		}
	}
	return fmt.Sprintf("%s ended %s", j.key(), j.outcome)
}

// campaignRun is one GenerateFlows campaign published into a store.
type campaignRun struct {
	jobs    []jobRecord
	digest  string
	workers int

	generate time.Duration // GenerateFlows
	// Publishing: each publish's time, and SaveDatabase (.fgl and .v
	// rendering), WriteManifest and ImportDir summed over them.
	publishes []time.Duration
	save      time.Duration
	manifest  time.Duration
	imp       time.Duration
	fglBytes  int64
	items     int

	// From the program's own telemetry: span histograms of the
	// campaign's registry and, when traced, its journal.
	stageBusy  map[string]float64
	stageCount map[string]float64
	events     []obs.Event
}

// ok counts the layouts the campaign produced.
func (c *campaignRun) ok() int {
	n := 0
	for _, j := range c.jobs {
		if j.outcome == core.OutcomeOK {
			n++
		}
	}
	return n
}

// bestArea sums the per-function, per-library minimum area over the
// campaign: the quantity Table I reports.
func (c *campaignRun) bestArea() int {
	best := map[string]int{}
	for _, j := range c.jobs {
		if j.outcome != core.OutcomeOK {
			continue
		}
		k := j.set + "/" + j.name + "/" + j.flow.Library.Name
		if a, seen := best[k]; !seen || j.area < a {
			best[k] = j.area
		}
	}
	sum := 0
	for _, a := range best {
		sum += a
	}
	return sum
}

// campaignOpts are the ways campaigns differ: skipDRC trusts the
// layouts on import; measured marks a campaign whose database counts
// towards peak_heap_mb (ingest batches running beside the reads must
// not force a collection under them); publishes is how many times the
// database is published, the first time into the campaign's store and
// then into fresh ones, so that publish_s is a median over more than
// one campaign (at least once).
type campaignOpts struct {
	skipDRC, measured bool
	publishes         int
}

// runCampaign generates every flow over the benchmarks and publishes
// the result as the maintainer does: SaveDatabase and WriteManifest
// into a fresh export directory, then ImportDir into st; with a nil st
// it only generates. Problems with single jobs or files are counted in
// b.tally; the error is for a campaign that could not be published at
// all.
func (b *bencher) runCampaign(ctx context.Context, name string, benches []bench.Benchmark, flows []core.Flow, st registry.Storage, opts campaignOpts) (*campaignRun, error) {
	reg := obs.NewRegistry()
	cctx := obs.WithRegistry(obs.WithLogger(ctx, b.quiet), reg)
	var journalBuf bytes.Buffer
	var journal *obs.Journal
	if b.traced {
		journal = obs.NewJournal(&journalBuf, reg)
		cctx = obs.WithJournal(cctx, journal)
	}
	c := &campaignRun{workers: min(b.lim.Workers, len(benches)*len(flows))}
	progress := func(p core.Progress) {
		j := jobRecord{set: p.Benchmark.Set, name: p.Benchmark.Name, flow: p.Flow, outcome: p.Outcome,
			elapsed: p.Elapsed, capped: errors.Is(p.Err, core.ErrInfeasible)}
		if p.Entry != nil {
			j.w, j.h, j.area = p.Entry.Width, p.Entry.Height, p.Entry.Area
			j.stages = p.Entry.Stages
		}
		c.jobs = append(c.jobs, j)
	}

	start := time.Now()
	db := core.GenerateFlows(cctx, benches, flows, b.lim, progress)
	c.generate = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("campaign %s: %w", name, err)
	}
	c.digest = digest(c.jobs)
	if journal != nil {
		if err := journal.Close(); err != nil {
			return nil, fmt.Errorf("campaign %s: journal: %w", name, err)
		}
		events, _, err := obs.ReadJournal(&journalBuf)
		if err != nil {
			return nil, fmt.Errorf("campaign %s: journal: %w", name, err)
		}
		c.events = events
	}
	for _, j := range c.jobs {
		if msg := j.problem(); msg != "" {
			b.tally.fail("%s", msg)
		} else {
			b.tally.pass()
		}
	}
	c.stageBusy, c.stageCount = stageSums(reg)
	if opts.measured {
		b.checkpoint()
	}

	if st == nil {
		return c, nil
	}
	for k := 0; k < max(opts.publishes, 1); k++ {
		pst := st
		if k > 0 {
			var err error
			if pst, err = b.store(fmt.Sprintf("%s-publish-%d", name, k)); err != nil {
				return nil, err
			}
		}
		if err := b.publish(ctx, c, db, name, pst, opts.skipDRC); err != nil {
			return nil, fmt.Errorf("campaign %s: %w", name, err)
		}
	}
	return c, nil
}

// publish runs the maintainer's publish path once: SaveDatabase and
// WriteManifest into a fresh export directory, then ImportDir into st.
func (b *bencher) publish(ctx context.Context, c *campaignRun, db *core.Database, name string, st registry.Storage, skipDRC bool) error {
	out := filepath.Join(b.dir, "export", name)
	// Earlier writes still being flushed would slow this publish down by
	// however much of them is left. The flush is the benchmark's, not
	// the program's: set-up time leaves it out (b.synced).
	start := time.Now()
	syscall.Sync()
	b.synced += time.Since(start)
	start = time.Now()
	if _, err := core.SaveDatabase(db, out); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	save := time.Since(start)
	t := time.Now()
	if err := core.WriteManifest(db, out); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	manifest := time.Since(t)
	t = time.Now()
	rep, err := registry.ImportDir(ctx, st, out, registry.ImportOptions{Campaign: name, SkipDRC: skipDRC})
	if err != nil {
		return fmt.Errorf("import: %w", err)
	}
	imp := time.Since(t)
	c.publishes = append(c.publishes, time.Since(start))
	c.save, c.manifest, c.imp = c.save+save, c.manifest+manifest, c.imp+imp
	items := rep.Added + rep.Updated + rep.Unchanged
	c.items += items
	if len(rep.Skipped) > 0 || rep.HashMismatches > 0 || items != len(db.Entries) {
		b.tally.fail("campaign %s: imported %d of %d layouts (skipped %v)", name, items, len(db.Entries), rep.Skipped)
	}
	des, err := os.ReadDir(out)
	if err != nil {
		return err
	}
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".fgl") {
			if fi, ierr := de.Info(); ierr == nil {
				c.fglBytes += fi.Size()
			}
		}
	}
	return os.RemoveAll(out)
}

// stageSums totals the program's stage-duration histograms by stage:
// busy seconds and span counts. They cover failed flows too, which
// Entry.Stages and the journal's stages_us omit.
func stageSums(reg *obs.Registry) (busy, count map[string]float64) {
	busy, count = map[string]float64{}, map[string]float64{}
	for _, fam := range reg.Snapshot() {
		if fam.Name != obs.SpanMetric {
			continue
		}
		for _, s := range fam.Series {
			if s.Histogram == nil {
				continue
			}
			for _, l := range s.Labels {
				if l.Key == "stage" {
					busy[l.Value] += s.Histogram.Sum
					count[l.Value] += float64(s.Histogram.Count)
				}
			}
		}
	}
	return busy, count
}

// Pipeline stages whose busy time, plus idle worker time, must account
// for the workers × wall time of a campaign.
var flowStages = []string{
	core.StagePrepare, core.StagePlace(core.AlgoExact), core.StagePlace(core.AlgoOrtho),
	core.StagePlace(core.AlgoNanoPlaceR), core.StageHexagonalize, core.StagePostLayout,
	core.StageDRC, core.StageEquivalence,
}

// layers accumulates the per-layer view over the measured campaigns of
// a run.
type layers struct {
	campaigns  []*campaignRun
	capacity   float64 // Σ workers × wall seconds
	stageBusy  map[string]float64
	stageCount map[string]float64
	inord      float64 // place.ortho seconds of InOrd flows
	ploMax     float64
	elapsed    []float64 // per job, seconds
}

func (l *layers) add(c *campaignRun) {
	if l.stageBusy == nil {
		l.stageBusy, l.stageCount = map[string]float64{}, map[string]float64{}
	}
	l.campaigns = append(l.campaigns, c)
	l.capacity += float64(c.workers) * c.generate.Seconds()
	for k, v := range c.stageBusy {
		l.stageBusy[k] += v
	}
	for k, v := range c.stageCount {
		l.stageCount[k] += v
	}
	for _, e := range c.events {
		if e.Type != obs.EventJobDone {
			continue
		}
		l.elapsed = append(l.elapsed, float64(e.ElapsedUS)/1e6)
		if strings.Contains(e.Flow, "+inord") {
			l.inord += float64(e.StagesUS[core.StagePlace(core.AlgoOrtho)]) / 1e6
		}
		l.ploMax = max(l.ploMax, float64(e.StagesUS[core.StagePostLayout])/1e6)
	}
}

// metrics renders the campaign layers: core scheduler, placement and
// optimization stages, and the in-flow verification.
func (l *layers) metrics(m metricSet) {
	busy := func(stage string) float64 { return l.stageBusy[stage] }
	placeOrtho := busy(core.StagePlace(core.AlgoOrtho))
	stageTotal := 0.0
	for _, s := range flowStages {
		stageTotal += busy(s)
	}
	workerBusy := busy(core.StageWorker)
	idle := l.capacity - workerBusy

	var exactRuns, exactTimeouts, nanoRuns, nanoOK, jobs float64
	var ploArea, baseArea float64
	for _, c := range l.campaigns {
		area := map[string]int{}
		for _, j := range c.jobs {
			if j.outcome == core.OutcomeOK {
				area[j.key()] = j.area
			}
		}
		for _, j := range c.jobs {
			jobs++
			switch j.flow.Algorithm {
			case core.AlgoExact:
				if j.capped {
					break
				}
				exactRuns++
				if j.outcome == core.OutcomeTimeout {
					exactTimeouts++
				}
			case core.AlgoNanoPlaceR:
				if j.flow.PostLayout {
					break
				}
				nanoRuns++
				if j.outcome == core.OutcomeOK {
					nanoOK++
				}
			}
			if j.flow.PostLayout && j.outcome == core.OutcomeOK {
				if a, ok := area[strings.TrimSuffix(j.key(), "+plo")]; ok {
					ploArea += float64(j.area)
					baseArea += float64(a)
				}
			}
		}
	}

	m.set("core.flows", jobs, "count")
	m.set("core.worker_busy_ratio", ratio(workerBusy, l.capacity), "ratio")
	m.set("core.idle_s", idle, "s")
	m.set("core.accounted_ratio", ratio(stageTotal+idle, l.capacity), "ratio")
	m.set("core.flow_p50_s", quantile(l.elapsed, 0.5), "s")
	m.set("core.flow_max_s", quantile(l.elapsed, 1), "s")
	m.set("prepare.busy_s", busy(core.StagePrepare), "s")
	m.set("exact.flows", exactRuns, "count")
	m.set("exact.busy_s", busy(core.StagePlace(core.AlgoExact)), "s")
	m.set("exact.timeout_ratio", ratio(exactTimeouts, exactRuns), "ratio")
	m.set("ortho.busy_s", placeOrtho-l.inord, "s")
	m.set("inord.busy_s", l.inord, "s")
	m.set("hexagonal.busy_s", busy(core.StageHexagonalize), "s")
	m.set("nanoplacer.busy_s", busy(core.StagePlace(core.AlgoNanoPlaceR)), "s")
	m.set("nanoplacer.ok_ratio", ratio(nanoOK, nanoRuns), "ratio")
	m.set("postlayout.flows", l.stageCount[core.StagePostLayout], "count")
	m.set("postlayout.busy_s", busy(core.StagePostLayout), "s")
	m.set("postlayout.max_s", l.ploMax, "s")
	m.set("postlayout.area_ratio", ratio(ploArea, baseArea), "ratio")
	m.set("verify.drc_s", busy(core.StageDRC), "s")
	m.set("verify.equivalence_s", busy(core.StageEquivalence), "s")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
