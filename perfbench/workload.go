package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"tkcm"
	"tkcm/client"
)

// spec is one workload: the tenant shape the server hosts, the seeded
// traffic the generator offers, and the server flags it runs under. The
// values are fixed here so that every run of a workload, on every commit,
// measures the same thing; BENCHMARK.json records why each was chosen.
type spec struct {
	name    string
	tenants int
	width   int
	L, l, k int
	d       int
	period  int // samples per seasonal cycle of the synthetic streams

	// targets is how many leading columns can go missing; the others are
	// always present and serve as the targets' pinned references.
	targets int
	missing float64 // long-run missing fraction of a target value
	meanRun int     // mean missing-run length; 0 = i.i.d. dropout

	// rate is the open-loop offered load in rows per second, all tenants
	// together.
	rate float64
	// batch is the client's batch bound for streamed workloads, or the rows
	// per request for request-per-batch workloads.
	batch int
	// posts sends one plain HTTP POST per batch line instead of one
	// long-lived stream per tenant.
	posts bool
	zipf  float64 // tenant popularity exponent for posts workloads

	resident int           // -resident-engines; 0 = every engine resident
	ckEvery  time.Duration // -checkpoint-every; 0 = server default
}

var workloads = []spec{
	{
		name: "paper-steady", tenants: 2, width: 16,
		L: 4032, l: 72, k: 5, d: 3, period: 288,
		targets: 4, missing: 0.08, meanRun: 12,
		rate: 4000, batch: 64,
	},
	{
		name: "ingest-rows", tenants: 2, width: 8,
		L: 512, l: 8, k: 3, d: 2, period: 64,
		targets: 8, missing: 0.01,
		rate: 16000, batch: 1,
	},
	{
		name: "cold-zipf", tenants: 256, width: 4,
		L: 1024, l: 16, k: 3, d: 2, period: 96,
		targets: 1, missing: 0.05,
		rate: 1200, batch: 8, posts: true, zipf: 1,
		resident: 32, ckEvery: 2 * time.Second,
	},
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// streamNames are the column names of every tenant of w.
func (w spec) streamNames() []string {
	names := make([]string, w.width)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
	}
	return names
}

// refs pins each target column's ordered reference candidates: d columns
// whose seasonal phase is shifted against the target's, the paper's
// pattern-determining case. Non-target columns never go missing and need
// no references.
func (w spec) refs() map[string][]string {
	names := w.streamNames()
	out := make(map[string][]string, w.targets)
	pool := w.width - w.targets
	for c := 0; c < w.targets; c++ {
		var cands []string
		for j := 0; j < w.d; j++ {
			if pool > 0 {
				cands = append(cands, names[w.targets+(c+j*w.width/(w.d+1))%pool])
			} else {
				cands = append(cands, names[(c+1+j)%w.width])
			}
		}
		out[names[c]] = cands
	}
	return out
}

// clientConfig is the tenant configuration sent to the server.
func (w spec) clientConfig() *client.Config {
	return &client.Config{K: w.k, PatternLength: w.l, D: w.d, WindowLength: w.L, SkipDiagnostics: true}
}

// engineConfig is the configuration the server derives from clientConfig:
// the library defaults overlaid with the four shape parameters.
func (w spec) engineConfig() tkcm.Config {
	cfg := tkcm.DefaultConfig()
	cfg.K, cfg.PatternLength, cfg.D, cfg.WindowLength = w.k, w.l, w.d, w.L
	cfg.SkipDiagnostics = true
	return cfg
}

func (w spec) engineRefs() map[string]tkcm.ReferenceSet {
	out := make(map[string]tkcm.ReferenceSet)
	for s, c := range w.refs() {
		out[s] = tkcm.ReferenceSet{Stream: s, Candidates: c}
	}
	return out
}

func (w spec) tenantID(i int) string {
	if w.tenants > 9 {
		return fmt.Sprintf("%s-%03d", w.name, i)
	}
	return fmt.Sprintf("%s-%d", w.name, i)
}

// rowGen produces one tenant's rows: seasonal sines, phase-shifted per
// column, with seeded noise and seeded missing values. The first L rows are
// complete so the window is warm before anything is imputed. Rows depend
// only on the seed, the tenant and the row index.
type rowGen struct {
	w      spec
	rng    *rand.Rand
	phase  []float64
	level  []float64
	amp    []float64
	n      int
	runner []int // remaining missing rows per target column
}

func newRowGen(w spec, seed uint64, tenant int) *rowGen {
	g := &rowGen{
		w:      w,
		rng:    rand.New(rand.NewPCG(seed, uint64(tenant)+1)),
		phase:  make([]float64, w.width),
		level:  make([]float64, w.width),
		amp:    make([]float64, w.width),
		runner: make([]int, w.width),
	}
	base := g.rng.Float64() * 2 * math.Pi
	for c := range g.phase {
		g.phase[c] = base + 2*math.Pi*float64(c)/float64(w.width) + 0.3*g.rng.Float64()
		g.level[c] = 10 + 20*g.rng.Float64()
		g.amp[c] = 2 + 6*g.rng.Float64()
	}
	return g
}

// next fills row with the next row; NaN marks a missing value.
func (g *rowGen) next(row []float64) {
	ph := 2 * math.Pi * float64(g.n) / float64(g.w.period)
	warm := g.n < g.w.L
	g.n++
	for c := range row {
		v := g.level[c] + g.amp[c]*math.Sin(ph+g.phase[c]) + 0.2*g.rng.Float64()
		// Sensor precision: two decimals, as real feeds carry.
		row[c] = math.Round(100*v) / 100
	}
	if warm {
		return
	}
	for c := 0; c < g.w.targets; c++ {
		if g.missingNow(c) {
			row[c] = math.NaN()
		}
	}
}

func (g *rowGen) missingNow(c int) bool {
	if g.w.meanRun <= 1 {
		return g.rng.Float64() < g.w.missing
	}
	if g.runner[c] > 0 {
		g.runner[c]--
		return true
	}
	// Runs start with probability p per present row and have geometric
	// lengths of mean meanRun, for a long-run missing fraction of
	// p·meanRun/(1+p·meanRun) = missing.
	p := g.w.missing / ((1 - g.w.missing) * float64(g.w.meanRun))
	if g.rng.Float64() >= p {
		return false
	}
	run := 1
	for g.rng.Float64() < 1-1/float64(g.w.meanRun) && run < 8*g.w.meanRun {
		run++
	}
	g.runner[c] = run - 1
	return true
}

// zipfPicker draws tenant indices with P(i) ∝ 1/(i+1)^s.
type zipfPicker struct {
	cum []float64
	rng *rand.Rand
}

func newZipfPicker(n int, s float64, rng *rand.Rand) *zipfPicker {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipfPicker{cum: cum, rng: rng}
}

func (z *zipfPicker) pick() int {
	u := z.rng.Float64()
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}
