package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/registry"
)

// storeTimes are the counters of timedStore.
type storeTimes struct {
	snapshots, gets, blobs, applies atomic.Int64
	getNS, blobNS, applyNS          atomic.Int64
	blobBytes                       atomic.Int64

	mu       sync.Mutex
	applyDur []float64 // seconds per Apply
}

// timedStore is the traced run's timing decorator around the
// registry.Storage handed to server.New and to the ingest path. It
// changes no result, only counts calls and their time.
type timedStore struct {
	registry.Storage
	t *storeTimes
}

func (s timedStore) Snapshot() []registry.Record {
	s.t.snapshots.Add(1)
	return s.Storage.Snapshot()
}

func (s timedStore) Get(id string) (registry.Record, error) {
	start := time.Now()
	r, err := s.Storage.Get(id)
	s.t.getNS.Add(int64(time.Since(start)))
	s.t.gets.Add(1)
	return r, err
}

func (s timedStore) Blob(hash string) ([]byte, error) {
	start := time.Now()
	body, err := s.Storage.Blob(hash)
	s.t.blobNS.Add(int64(time.Since(start)))
	s.t.blobs.Add(1)
	s.t.blobBytes.Add(int64(len(body)))
	return body, err
}

func (s timedStore) Apply(batch []registry.Item) (registry.Applied, error) {
	start := time.Now()
	ap, err := s.Storage.Apply(batch)
	d := time.Since(start)
	s.t.applyNS.Add(int64(d))
	s.t.applies.Add(1)
	s.t.mu.Lock()
	s.t.applyDur = append(s.t.applyDur, d.Seconds())
	s.t.mu.Unlock()
	return ap, err
}

// Request kinds of the /v1 read mix, named after the route family each
// exercises.
const (
	kindList       = iota // one page of a cursor walk
	kindFilter            // a filtered list, selective or unselective
	kindGrammar           // /v1/filters, the filter grammar document
	kindStats             // /v1/stats
	kindLayout            // one record's metadata
	kindDownload          // a .fgl download, by layout ID or by content hash
	kindRevalidate        // an If-None-Match revalidation of a download
	numKinds
)

var kindNames = [numKinds]string{"list", "filter", "grammar", "stats", "layout", "download", "revalidate"}

// kindWeights is the read mix, in twentieths. It is the request ratio
// of the repository's own load test (internal/server/loadtest
// buildPlan): per catalogue entry one metadata lookup, two downloads
// (layout.fgl and /v1/blobs), one conditional revalidation, and one
// shared probe that cycles through a list page, a filtered list, the
// filter grammar and the stats.
var kindWeights = [numKinds]int{1, 1, 1, 1, 4, 8, 4}

// Download popularity: a record's size stratum is drawn first, with
// the stratum's share of the catalogue (what the load test's walk over
// every entry sends), then a record within the stratum: by Zipf rank
// over a seeded order for small and medium records, in turn for the few
// large ones. Small and medium records are each split by size into
// sizeStrata strata of equal count, so the seed decides which records
// are popular but hardly how many bytes a download carries. The kind of
// each request and the stratum of each download follow a
// low-discrepancy sequence from a seeded start, so every run sends each
// kind and stratum in its share, evenly spread. A multi-megabyte
// download holds a connection for milliseconds, and a run that happened
// to draw a few more of them, or a seed that made a few large records
// popular, would read as a slower server.
var sizeClassBytes = [2]int64{256 << 10, 1 << 20} // upper bounds of small, medium

// sizeStrata is how many strata the small and the medium records are
// each split into.
const sizeStrata = 8

// stratum is a set of records of similar size.
type stratum struct {
	recs  []int // indices into plan.recs, in popularity order
	zipf  zipf
	share float64
	large bool // served in turn rather than by popularity
	next  int
}

const (
	// zipfS is the popularity exponent within a size class. No record
	// of how the MNT Bench website is used exists; Breslau et al.,
	// "Web Caching and Zipf-like Distributions" (INFOCOM 1999), found
	// web request popularity Zipf-like with exponents 0.64 to 0.83.
	zipfS = 0.8
	// walkLanes cursor walks run at once, each continued by every list
	// request that falls to it.
	walkLanes = 4
	// pageLimit is the load test's page size for lists and filters.
	pageLimit = 10
)

// request is one planned /v1 request. A list request's path is filled
// in when it is sent, from the cursor its walk lane has reached.
type request struct {
	kind int
	path string
	etag string
	lane int
}

// plan draws the read mix over the catalogue as it stood when reads
// began.
type plan struct {
	recs    []registry.Record
	strata  []stratum
	all     []int
	allZipf zipf
	names   []string
	smallBG int // an area bound that selects few Bestagon layouts

	// Owned by the dispatcher: kind and stratum sequences, and how many
	// downloads went by layout ID.
	kinds, sizes weyl
	byID         int

	mu    sync.Mutex
	lanes [walkLanes]string
}

func newPlan(recs []registry.Record, seed uint64) *plan {
	p := &plan{recs: recs}
	r := newRNG(seed, "reads/popularity")
	p.kinds, p.sizes = weyl{r.float()}, weyl{r.float()}
	var classes [3][]int
	for i := range recs {
		c := 2
		for k, bound := range sizeClassBytes {
			if recs[i].Size < bound {
				c = k
				break
			}
		}
		classes[c] = append(classes[c], i)
	}
	shuffle := func(xs []int) {
		for i := len(xs) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
	for c, idx := range classes {
		if len(idx) == 0 {
			continue
		}
		if c == 2 {
			p.strata = append(p.strata, stratum{recs: idx, large: true})
			continue
		}
		sort.SliceStable(idx, func(a, b int) bool { return recs[idx[a]].Size < recs[idx[b]].Size })
		n := min(sizeStrata, len(idx))
		for k := 0; k < n; k++ {
			part := append([]int(nil), idx[k*len(idx)/n:(k+1)*len(idx)/n]...)
			shuffle(part)
			p.strata = append(p.strata, stratum{recs: part, zipf: newZipf(len(part), zipfS)})
		}
	}
	for k := range p.strata {
		p.strata[k].share = float64(len(p.strata[k].recs)) / float64(len(recs))
	}
	p.all = make([]int, len(recs))
	for i := range p.all {
		p.all[i] = i
	}
	shuffle(p.all)
	p.allZipf = newZipf(len(recs), zipfS)
	seen := map[string]bool{}
	var areas []int
	for _, rec := range recs {
		if !seen[rec.Name] {
			seen[rec.Name] = true
			p.names = append(p.names, rec.Name)
		}
		if rec.Library == "Bestagon" {
			areas = append(areas, rec.Area)
		}
	}
	sort.Ints(areas)
	if len(areas) > 0 {
		p.smallBG = areas[len(areas)/20]
	}
	return p
}

// download picks a record for a download or revalidation.
func (p *plan) download(r *rng) registry.Record {
	u := p.sizes.next()
	k := 0
	for k < len(p.strata)-1 && u >= p.strata[k].share {
		u -= p.strata[k].share
		k++
	}
	st := &p.strata[k]
	if st.large {
		st.next = (st.next + 1) % len(st.recs)
		return p.recs[st.recs[st.next]]
	}
	return p.recs[st.recs[st.zipf.sample(r)]]
}

// weyl is the additive golden-ratio sequence: successive values fill
// [0, 1) evenly.
type weyl struct{ x float64 }

func (w *weyl) next() float64 {
	w.x += 0.6180339887498949
	if w.x >= 1 {
		w.x--
	}
	return w.x
}

func (p *plan) next(r *rng) request {
	k, u := 0, int(p.kinds.next()*20)
	for u >= kindWeights[k] {
		u -= kindWeights[k]
		k++
	}
	q := request{kind: k}
	switch k {
	case kindList:
		q.lane = r.intn(walkLanes)
	case kindFilter:
		// Half selective (one function; the smallest Bestagon layouts),
		// half unselective (a whole library; every verified layout).
		var f string
		switch r.intn(4) {
		case 0:
			f = "name=" + url.QueryEscape(p.names[r.intn(len(p.names))])
		case 1:
			f = fmt.Sprintf("library=Bestagon&area_max=%d", p.smallBG)
		case 2:
			f = "library=" + url.QueryEscape("QCA ONE")
		default:
			f = "verified=true"
		}
		q.path = fmt.Sprintf("/v1/layouts?%s&limit=%d", f, pageLimit)
	case kindGrammar:
		q.path = "/v1/filters"
	case kindStats:
		q.path = "/v1/stats"
	case kindLayout:
		q.path = "/v1/layouts/" + p.recs[p.all[p.allZipf.sample(r)]].ID
	case kindDownload:
		// Alternately by layout ID and by content hash, as the load
		// test sends them.
		rec := p.download(r)
		p.byID++
		if p.byID%2 == 0 {
			q.path = "/v1/blobs/" + rec.Hash
		} else {
			q.path = "/v1/layouts/" + rec.ID + "/layout.fgl"
		}
	case kindRevalidate:
		rec := p.download(r)
		q.path = "/v1/layouts/" + rec.ID + "/layout.fgl"
		q.etag = `"` + rec.Hash + `"`
	}
	return q
}

func (p *plan) listPath(lane int) string {
	p.mu.Lock()
	c := p.lanes[lane]
	p.mu.Unlock()
	path := fmt.Sprintf("/v1/layouts?limit=%d", pageLimit)
	if c != "" {
		path += "&cursor=" + url.QueryEscape(c)
	}
	return path
}

func (p *plan) advance(lane int, next string) {
	p.mu.Lock()
	p.lanes[lane] = next
	p.mu.Unlock()
}

// sample is one finished request.
type sample struct {
	kind    int
	latency time.Duration // from when the request was due
	service time.Duration // from when it was sent
	lag     time.Duration // how late the generator handed it out
	end     time.Time
	bytes   int64
	status  int
	err     error
}

// wantStatus is the status every request of a kind must get: the
// catalogue records the plan draws from never change content during a
// run, so a revalidation is always a 304.
func wantStatus(kind int) int {
	if kind == kindRevalidate {
		return http.StatusNotModified
	}
	return http.StatusOK
}

// live is the served catalogue: a server.New over the store on a
// loopback listener, and a client with one connection per CPU.
type live struct {
	st      registry.Storage
	base    string
	client  *http.Client
	conns   int
	hs      *http.Server
	served  chan error
	handled atomic.Int64 // handler nanoseconds (traced runs)
	bytes   atomic.Int64 // response bytes read by the client
}

func startLive(st registry.Storage, quiet *obs.Logger, conns int, traced bool) (*live, error) {
	srv := server.New(&core.Database{}, server.WithStorage(st),
		server.WithRegistry(obs.NewRegistry()), server.WithLogger(quiet))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &live{st: st, base: "http://" + ln.Addr().String(), conns: conns, served: make(chan error, 1)}
	var h http.Handler = srv
	if traced {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			srv.ServeHTTP(w, r)
			l.handled.Add(int64(time.Since(start)))
		})
	}
	l.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	l.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops the server and waits for its serve loop to return.
func (l *live) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	l.client.CloseIdleConnections()
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (l *live) get(ctx context.Context, path, etag string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+path, nil)
	if err != nil {
		return nil, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	return l.client.Do(req)
}

// do sends one planned request and reads the whole response.
func (l *live) do(ctx context.Context, p *plan, q request) sample {
	path := q.path
	if q.kind == kindList {
		path = p.listPath(q.lane)
	}
	s := sample{kind: q.kind}
	start := time.Now()
	resp, err := l.get(ctx, path, q.etag)
	if err != nil {
		s.err = err
		s.end = time.Now()
		s.service = s.end.Sub(start)
		return s
	}
	s.status = resp.StatusCode
	if q.kind == kindList && resp.StatusCode == http.StatusOK {
		var page struct {
			NextCursor string `json:"next_cursor"`
		}
		cr := &countingReader{r: resp.Body}
		s.err = json.NewDecoder(cr).Decode(&page)
		_, _ = io.Copy(io.Discard, cr)
		s.bytes = cr.n
		p.advance(q.lane, page.NextCursor)
	} else {
		s.bytes, s.err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	s.end = time.Now()
	s.service = s.end.Sub(start)
	l.bytes.Add(s.bytes)
	return s
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n += int64(n)
	return n, err
}

// openLoop sends rate requests per second for dur, on a fixed
// schedule, from independent visitors: a request is due at its slot
// whether or not earlier ones have been answered, and its latency counts
// from that slot, so a stall shows in every request queued behind it.
// One dispatcher hands due requests to l.conns senders, one per
// connection. Requests still unsent drain seconds after the schedule
// ends are abandoned with the context error.
func (l *live) openLoop(ctx context.Context, p *plan, r *rng, rate float64, dur, drain time.Duration) []sample {
	n := int(rate * dur.Seconds())
	type due struct {
		q   request
		at  time.Time
		lag time.Duration
	}
	queue := make(chan due, n) // sized to the number of sends
	ctx, cancel := context.WithTimeout(ctx, dur+drain)
	defer cancel()
	start := time.Now()
	interval := float64(time.Second) / rate
	go func() {
		defer close(queue)
		for i := 0; i < n && ctx.Err() == nil; i++ {
			at := start.Add(time.Duration(float64(i) * interval))
			if d := time.Until(at); d > 0 {
				time.Sleep(d)
			}
			queue <- due{q: p.next(r), at: at, lag: time.Since(at)}
		}
	}()
	results := make([][]sample, l.conns)
	var wg sync.WaitGroup
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for d := range queue {
				var s sample
				if err := ctx.Err(); err != nil {
					s = sample{kind: d.q.kind, err: err, end: time.Now()}
				} else {
					s = l.do(ctx, p, d.q)
				}
				s.latency = s.end.Sub(d.at)
				s.lag = d.lag
				results[w] = append(results[w], s)
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	for _, rs := range results {
		out = append(out, rs...)
	}
	return out
}

// Capacity ladder: a rung holds when its open-loop probe keeps the p99
// latency within ladderP99 and drains its queue within ladderP99 of the
// schedule's end (no growing backlog). The rungs are fixed: ladderBase
// × ladderStep^k for k < ladderRungs, from 10 req/s, far below any rate
// the service sustains, to about 165 000 req/s, far above what one
// loopback client can send. read_max_rps comes from an up-down
// staircase: one rung up after a probe that held, one down after one
// that failed, starting at the highest rung not above the closed-loop
// saturation throughput. Once a probe has gone the other way from the
// first, the staircase runs staircaseProbes more probes (that one
// included) around the highest rung that holds, and read_max_rps is the
// median of the rungs that held among them. At one rate, the p99 of a
// 1 s probe ranges from 5 to 80 ms on a shared two-CPU machine, so the
// first rung that holds on a single pass down moves by several rungs
// from run to run. The saturation throughput is the median over
// saturateWindows windows: one short window reads the machine's load of
// the moment as much as the server.
const (
	ladderBase      = 10.0
	ladderStep      = 1.05
	ladderRungs     = 200
	ladderP99       = 50 * time.Millisecond
	ladderProbe     = time.Second
	staircaseProbes = 6
	saturateFor     = 400 * time.Millisecond
	saturateWindows = 5
)

func rung(k int) float64 { return math.Round(ladderBase * math.Pow(ladderStep, float64(k))) }

// saturate sends the read mix back to back on every connection for dur
// and returns the completed requests per second.
func (l *live) saturate(ctx context.Context, p *plan, r *rng, dur time.Duration) float64 {
	var mu sync.Mutex // guards p's sequences and r
	next := func() request {
		mu.Lock()
		defer mu.Unlock()
		return p.next(r)
	}
	ctx, cancel := context.WithTimeout(ctx, dur)
	defer cancel()
	var done atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if s := l.do(ctx, p, next()); s.err == nil {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// probe runs one ladder rung. It reports whether the rung held, and
// whether a failure looks like a stall rather than overload: a p99 over
// the limit although the queue drained in time. Unexpected statuses are
// correctness failures whatever the load.
func (b *bencher) probe(ctx context.Context, l *live, p *plan, r *rng, rate float64) (held, stalled bool) {
	// Each probe starts from a collected heap, so an overloaded probe
	// does not fail the next one.
	settle()
	start := time.Now()
	// A request still unanswered ladderP99 after the schedule ends
	// already fails the probe; abandoning the rest then keeps an
	// overloaded probe from running on.
	samples := l.openLoop(ctx, p, r, rate, ladderProbe, ladderP99+10*time.Millisecond)
	end := start.Add(ladderProbe)
	var lat []float64
	drained := true
	for _, s := range samples {
		switch {
		case s.err != nil:
			drained = false // the request was abandoned or timed out
		case s.status != wantStatus(s.kind):
			b.tally.fail("ladder %s: status %d", kindNames[s.kind], s.status)
			return false, false
		}
		lat = append(lat, s.latency.Seconds())
		if s.end.Sub(end) > ladderP99 {
			drained = false
		}
	}
	fast := quantile(lat, 0.99) <= ladderP99.Seconds()
	return drained && fast, drained && !fast
}

// maxRate runs the staircase and returns the median of the rungs that
// held after its first reversal, 0 when none did. A probe that failed
// like a stall is repeated once: a stall of the machine fails a probe
// below capacity, while overload shows as a queue that does not drain.
// A top rung that holds counts as a reversal. A saturation throughput
// above the top rung makes the run invalid, since the metric could not
// show it.
func (b *bencher) maxRate(ctx context.Context, l *live, p *plan, r *rng) float64 {
	settle()
	var sats []float64
	for i := 0; i < saturateWindows; i++ {
		sats = append(sats, l.saturate(ctx, p, r, saturateFor))
	}
	sat := quantile(sats, 0.5)
	k := ladderRungs - 1
	if sat > rung(k) {
		b.tally.fail("ladder: saturation throughput %.0f req/s is above the top rung (%v req/s)", sat, rung(k))
	}
	for k >= 0 && rung(k) > sat {
		k--
	}
	probes := 0
	var held []float64
	defer func() {
		fmt.Fprintf(b.log, "ladder: saturation %.0f req/s, %d probes, held %v\n", sat, probes, held)
	}()
	first, reversed, counted := true, false, 0
	var prev bool
	for k >= 0 && counted < staircaseProbes && ctx.Err() == nil {
		ok, stalled := b.probe(ctx, l, p, r, rung(k))
		probes++
		if stalled {
			ok, _ = b.probe(ctx, l, p, r, rung(k))
			probes++
		}
		if (!first && ok != prev) || (ok && k == ladderRungs-1) {
			reversed = true
		}
		first, prev = false, ok
		if reversed {
			counted++
			if ok {
				held = append(held, rung(k))
			}
		}
		if ok {
			k = min(k+1, ladderRungs-1)
		} else {
			k--
		}
	}
	return quantile(held, 0.5)
}
