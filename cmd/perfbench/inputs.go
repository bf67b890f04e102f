package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gatelib"
	"repro/internal/network"
)

// rng is splitmix64. The benchmark carries its own generator so the
// inputs a seed names never change with the Go release or with the
// program under test.
type rng struct{ s uint64 }

// newRNG derives an independent stream for one purpose from the
// workload seed.
func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	_, _ = io.WriteString(h, stream)
	return &rng{s: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Effort and budget settings shared by every campaign the benchmark
// runs. Exact is bounded by a step count, so its outcome is a pure
// function of the network; the wall-clock budgets sit far above what
// any workload needs, and jobRecord.problem flags a run in which a flow
// got within a quarter of one.
const (
	exactSteps = 20000
	exactWall  = 60 * time.Second
	nanoWall   = 60 * time.Second
	ploWall    = 120 * time.Second
)

func limits() core.Limits {
	return core.Limits{
		Workers:      runtime.NumCPU(),
		ExactSteps:   exactSteps,
		ExactTimeout: exactWall,
		NanoTimeout:  nanoWall,
		PLOTimeout:   ploWall,
	}
}

// budgetOf returns the smallest wall-clock budget that bounds a stage
// of the flow, or 0 when none does: the ortho placer and InOrd run
// unbounded.
func budgetOf(f core.Flow) time.Duration {
	switch {
	case f.Algorithm == core.AlgoExact:
		return exactWall
	case f.Algorithm == core.AlgoNanoPlaceR:
		return nanoWall
	case f.PostLayout:
		return ploWall
	}
	return 0
}

// stageBudgets are the wall-clock budgets by the pipeline stage each
// bounds.
var stageBudgets = map[string]time.Duration{
	core.StagePlace(core.AlgoExact):      exactWall,
	core.StagePlace(core.AlgoNanoPlaceR): nanoWall,
	core.StagePostLayout:                 ploWall,
}

// allFlows is every flow of the paper's two Table I libraries.
func allFlows() []core.Flow {
	return append(core.Flows(gatelib.QCAOne), core.Flows(gatelib.Bestagon)...)
}

// catalogueFlows are the ortho, InOrd and 45° flows without PLO: the
// cheap flows that fill the served catalogue and the ingest batches.
func catalogueFlows() []core.Flow {
	var out []core.Flow
	for _, f := range allFlows() {
		if f.Algorithm == core.AlgoOrtho && !f.PostLayout {
			out = append(out, f)
		}
	}
	return out
}

// Sets the synthetic inputs are published under.
const (
	setPLO       = "PerfPLO"
	setCatalogue = "PerfCatalogue"
	setIngest    = "PerfIngest"
)

// suiteSeed fixes the synthetic suites. Like the paper's published
// functions they are the same for every workload seed, so the layouts,
// areas and work a campaign produces are a property of the program
// alone; the workload seed draws the traffic instead: the order a
// campaign schedules its functions in, which layouts visitors read and
// when.
const suiteSeed = 0x4D4E_5442 // "MNTB"

// synthetic wraps a seeded bench.Synthetic network as a benchmark.
// Each network gets its own seed drawn from the suite stream.
func synthetic(set, name string, nodes int, r *rng) bench.Benchmark {
	pis := 3 + nodes/10 + r.intn(3)
	pos := 1 + nodes/20 + r.intn(2)
	seed := r.next()
	return bench.Benchmark{
		Set: set, Name: name, PubIn: pis, PubOut: pos, PubNodes: nodes,
		Build: func() *network.Network { return bench.Synthetic(name, pis, pos, nodes, seed) },
	}
}

// tableBenches is the paper's published small-function set (the
// default TableBenches selection: every function of at most 120 nodes)
// in an order drawn from the seed.
func tableBenches(seed uint64) []bench.Benchmark {
	var out []bench.Benchmark
	for _, b := range bench.All() {
		if b.PubNodes <= 120 {
			out = append(out, b)
		}
	}
	r := newRNG(seed, "table-small/order")
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// PLO suite: ploNetworks networks of ploNodes nodes whose
// layout-relevant size (see layoutSize) lies in [ploSizeMin, ploSizeMax].
// PLO time grows steeply with layout size; a narrow band and many
// small networks rather than a few large ones keep a single slow PLO
// pass from setting the campaign time. The suite runs in a fixed order:
// with two workers, whichever long PLO flow comes last leaves a worker
// idle, so a seeded order would move campaign_s by seconds.
const (
	ploNetworks = 8
	ploNodes    = 40
	ploSizeMin  = 56
	ploSizeMax  = 64
	ploAttempts = 400
)

func ploBenches() ([]bench.Benchmark, error) {
	r := newRNG(suiteSeed, "plo-synth/networks")
	var out []bench.Benchmark
	for i := 0; i < ploNetworks; i++ {
		found := false
		for a := 0; a < ploAttempts && !found; a++ {
			b := synthetic(setPLO, fmt.Sprintf("plo%02d", i), ploNodes, r)
			if s := layoutSize(b.Build()); s >= ploSizeMin && s <= ploSizeMax {
				out = append(out, b)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("plo-synth: no network in the size band after %d draws", ploAttempts)
		}
	}
	return out, nil
}

// layoutSize estimates how many tiles-worth of logic a network puts on
// a layout, from its structure alone: the nodes that reach a primary
// output, one extra node per additional fanout branch, and two per XOR
// or XNOR (which QCA ONE decomposes). It never runs a layout
// algorithm, so the suite does not depend on the program under test.
func layoutSize(n *network.Network) int {
	live := make([]bool, n.Size())
	stack := append([]network.ID(nil), n.POs()...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if live[v] {
			continue
		}
		live[v] = true
		stack = append(stack, n.Fanins(v)...)
	}
	fanout := make([]int, n.Size())
	size := 0
	for id := 0; id < n.Size(); id++ {
		if !live[id] {
			continue
		}
		size++
		if g := n.Gate(network.ID(id)); g == network.Xor || g == network.Xnor {
			size += 2
		}
		for _, f := range n.Fanins(network.ID(id)) {
			fanout[f]++
		}
	}
	for _, c := range fanout {
		if c > 1 {
			size += c - 1
		}
	}
	return size
}

// Catalogue suite for registry-mixed: catalogueNetworks networks × the
// four catalogue flows, one large, four medium and the rest small, so
// the served blobs range from tens of KB up to a few MB.
const catalogueNetworks = 200

func catalogueNodes(i int, r *rng) int {
	switch {
	case i == 0:
		return 120
	case i < 5:
		return 40 + 10*(i-1)
	}
	return 6 + r.intn(11)
}

func catalogueBenches() []bench.Benchmark {
	r := newRNG(suiteSeed, "registry-mixed/catalogue")
	out := make([]bench.Benchmark, 0, catalogueNetworks)
	for i := 0; i < catalogueNetworks; i++ {
		nodes := catalogueNodes(i, r)
		out = append(out, synthetic(setCatalogue, fmt.Sprintf("cat%03d", i), nodes, r))
	}
	return out
}

// Ingest batches: the maintainer's publish path run beside the reads,
// one network of each ingestNodes size × the catalogue flows every
// ingestInterval (an assumed interval, see README.md). Every batch lays
// out the same networks under names of its own, so every record and
// every .fgl (which carries its layout's name) is new to the store, and
// every batch does the same work: ingest_s is a median of like with
// like, where batches of different networks took from 150 to 330 ms.
var ingestNodes = []int{10, 20, 30, 40}

const ingestInterval = time.Second

func ingestBenches(batch int) []bench.Benchmark {
	r := newRNG(suiteSeed, "ingest")
	out := make([]bench.Benchmark, 0, len(ingestNodes))
	for i, nodes := range ingestNodes {
		out = append(out, synthetic(setIngest, fmt.Sprintf("ing%02d_%d", batch, i), nodes, r))
	}
	return out
}

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	z := zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z zipf) sample(r *rng) int {
	u := r.float()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}
