package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// The two hot kernels — the Eq. 5 dynamic program and the incremental
// profiler's full rebuild — are written for throughput, with every float
// operation kept in the order of the straightforward loops below. These
// loops are the oracles: the tests require bit-identical results.

// selectDPOracle is the textbook cell-by-cell fill of Eq. 5 with the skip
// value read back from the table, plus the shared backtracking.
func selectDPOracle(d []float64, k, l int) (idx []int, sum float64, ok bool) {
	n := len(d)
	if n == 0 || k <= 0 {
		return nil, 0, k <= 0
	}
	row := n + 1
	m := make([]float64, (k+1)*row)
	for i := 1; i <= k; i++ {
		for j := 0; j <= n; j++ {
			if i > j {
				m[i*row+j] = math.Inf(1)
				continue
			}
			skip := m[i*row+j-1]
			prev := j - l
			if prev < 0 {
				prev = 0
			}
			take := d[j-1] + m[(i-1)*row+prev]
			if take < skip {
				m[i*row+j] = take
			} else {
				m[i*row+j] = skip
			}
		}
	}
	sum = m[k*row+n]
	if math.IsInf(sum, 1) {
		return nil, 0, false
	}
	i, j := k, n
	for i > 0 {
		if j > i && m[i*row+j] == m[i*row+j-1] {
			j--
			continue
		}
		idx = append(idx, j-1)
		i--
		j -= l
		if j < 0 {
			j = 0
		}
	}
	slices.Reverse(idx)
	return idx, sum, true
}

// rebuildOracle recomputes st's aggregates from window nv one candidate at
// a time: a rolling energy and an l-term dot product per candidate.
func rebuildOracle(st *incStreamState, nv []float64, l int) {
	m := len(nv)
	nCand := m - 2*l + 1
	qs := m - l
	st.sinceRebuild = 0
	st.estart = 0
	st.eq = 0
	for _, v := range nv[qs:] {
		st.eq += v * v
	}
	st.cross = make([]float64, nCand)
	e := 0.0
	for x := 0; x < l; x++ {
		e += nv[x] * nv[x]
	}
	for j := 0; j < nCand; j++ {
		st.energy[j] = e
		if j+1 < nCand {
			e += nv[j+l]*nv[j+l] - nv[j]*nv[j]
		}
		c := 0.0
		for x := 0; x < l; x++ {
			c += nv[j+x] * nv[qs+x]
		}
		st.cross[j] = c
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzSelectDP compares the selection kernel with the oracle bit for bit,
// on both the chosen indices and the sum. data is read as little-endian
// float64 profile values, so NaN, ±Inf, subnormals and exact ties all
// occur; the kernel runs through one reused scratch to cover table reuse
// across shapes.
func FuzzSelectDP(f *testing.F) {
	profile := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	inf, nan := math.Inf(1), math.NaN()
	f.Add(profile(fig8D...), uint8(2), uint8(3))
	f.Add(profile(1, 1, 1, 1, 1, 1, 1, 1), uint8(3), uint8(2))         // ties everywhere
	f.Add(profile(2, 1, 2, 1, 2, 1, 2, 1, 2), uint8(2), uint8(3))      // tied optima
	f.Add(profile(inf, 1, inf, 2, inf, 3), uint8(2), uint8(2))         // +Inf candidates
	f.Add(profile(inf, inf, inf, inf), uint8(1), uint8(1))             // +Inf everywhere
	f.Add(profile(1, nan, 0.5, 2, nan, 0.1, 3), uint8(2), uint8(2))    // NaN candidates
	f.Add(profile(nan, 1, 2, 3), uint8(1), uint8(1))                   // NaN first
	f.Add(profile(1, 2, 3, 4, 5), uint8(3), uint8(3))                  // infeasible n
	f.Add(profile(5, 4, 3, 2, 1, 0, -1), uint8(1), uint8(4))           // k = 1
	f.Add(profile(3, 1, 4, 1, 5, 9, 2, 6), uint8(4), uint8(1))         // l = 1
	f.Add(profile(0.3, 0.1, 0.2), uint8(0), uint8(2))                  // k = 0
	f.Add(profile(), uint8(2), uint8(2))                               // empty profile
	f.Add(profile(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), uint8(2), uint8(40)) // l > n
	var sc selectScratch
	f.Fuzz(func(t *testing.T, data []byte, k8, l8 uint8) {
		k, l := int(k8%16), int(l8%64)+1
		d := make([]float64, min(len(data)/8, 512))
		for i := range d {
			d[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		wantIdx, wantSum, wantOK := selectDPOracle(d, k, l)
		gotIdx, gotSum, gotOK := selectDPInto(d, k, l, &sc)
		if gotOK != wantOK || !slices.Equal(gotIdx, wantIdx) || math.Float64bits(gotSum) != math.Float64bits(wantSum) {
			t.Fatalf("k=%d l=%d d=%v: got (%v, %v, %v), want (%v, %v, %v)",
				k, l, d, gotIdx, gotSum, gotOK, wantIdx, wantSum, wantOK)
		}
	})
}

// TestSelectDPMatchesOracleAtPaperShape runs both on random profiles of the
// paper's serving shape (L=4032, l=72), including rounded values that tie.
func TestSelectDPMatchesOracleAtPaperShape(t *testing.T) {
	const l = 72
	n := 4032 - 2*l + 1
	var sc selectScratch
	for seed := uint64(1); seed <= 8; seed++ {
		d := randomProfile(int64(seed), n)
		if seed%2 == 0 {
			for i := range d {
				d[i] = math.Round(d[i]*8) / 8 // coarse values: many ties
			}
		}
		for _, k := range []int{1, 3, 5, 10} {
			wantIdx, wantSum, wantOK := selectDPOracle(d, k, l)
			gotIdx, gotSum, gotOK := selectDPInto(d, k, l, &sc)
			if gotOK != wantOK || !slices.Equal(gotIdx, wantIdx) || math.Float64bits(gotSum) != math.Float64bits(wantSum) {
				t.Fatalf("seed %d k=%d: got (%v, %v), want (%v, %v)", seed, k, gotIdx, gotSum, wantIdx, wantSum)
			}
		}
	}
}

// TestRebuildMatchesOracle checks the blocked rebuild against the
// per-candidate loop bit for bit, over pattern lengths that are not
// multiples of the four-offset block and windows down to one candidate.
func TestRebuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	for _, l := range []int{1, 2, 3, 4, 5, 7, 13, 72, 73} {
		for _, nCand := range []int{1, 2, 3, 5, 97} {
			m := nCand + 2*l - 1
			nv := make([]float64, m)
			for i := range nv {
				nv[i] = math.Round(100*(20+5*rng.NormFloat64())) / 100
			}
			got := &incStreamState{energy: make([]float64, 2*m), cross: make([]float64, 0, nCand)}
			want := &incStreamState{energy: make([]float64, 2*m)}
			got.rebuild(nv, l)
			rebuildOracle(want, nv, l)
			if !sameBits(got.cross, want.cross) || !sameBits(got.energy[:nCand], want.energy[:nCand]) ||
				math.Float64bits(got.eq) != math.Float64bits(want.eq) {
				t.Fatalf("l=%d nCand=%d: rebuild differs from the per-candidate loop", l, nCand)
			}
		}
	}
}

// paperShape is the paper's serving shape (L=4032, l=72, k=5, d=3) over
// width 16: four target columns, each with three pinned references among
// the twelve always-present columns.
func paperShape() (Config, []string, map[string]ReferenceSet) {
	cfg := DefaultConfig()
	cfg.K, cfg.PatternLength, cfg.D, cfg.WindowLength = 5, 72, 3, 4032
	cfg.SkipDiagnostics = true
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
	}
	refs := make(map[string]ReferenceSet, 4)
	for c := 0; c < 4; c++ {
		var cands []string
		for j := 0; j < 3; j++ {
			cands = append(cands, names[4+(c+4*j)%12])
		}
		refs[names[c]] = ReferenceSet{Stream: names[c], Candidates: cands}
	}
	return cfg, names, refs
}

// goldenPaperHash is the FNV-64a hash of every output value (and the
// imputation count) of TestEngineGoldenHashPaperShape's stream, recorded
// while the engine still ran the per-candidate loops above as its kernels.
// Any change of rounding in the engine shows up as a hash change.
const goldenPaperHash = 0x80bced0882de4f68

// TestEngineGoldenHashPaperShape streams a seeded bursty paper-shape
// workload (8% missing in runs of mean 12 over four targets) through the
// engine and compares the hash of every output with the recorded one.
func TestEngineGoldenHashPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-shape stream")
	}
	cfg, names, refs := paperShape()
	const warm = 4032
	rows := seasonalRows(7, 1, rowShape{width: len(names), targets: 4, period: 288, warm: warm, n: warm + 3000, missing: 0.08, meanRun: 12})
	e, err := NewEngine(cfg, names, refs)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range rows {
		out, _, err := e.Tick(row)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range out {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(e.Stats.Imputations))
	h.Write(buf[:])
	if got := h.Sum64(); got != goldenPaperHash {
		t.Fatalf("output hash %#x after %d imputations, want %#x", got, e.Stats.Imputations, uint64(goldenPaperHash))
	}
}

// BenchmarkSelectDP measures the Eq. 5 kernel alone at the paper's shape
// (n = 4032 − 2·72 + 1 candidates, k = 5).
func BenchmarkSelectDP(b *testing.B) {
	const l, k = 72, 5
	d := randomProfile(17, 4032-2*l+1)
	var sc selectScratch
	b.ReportAllocs()
	for b.Loop() {
		if _, _, ok := selectDPInto(d, k, l, &sc); !ok {
			b.Fatal("selection infeasible")
		}
	}
}

// BenchmarkRebuild measures one full aggregate rebuild of a paper-shape
// window (L = 4032, l = 72).
func BenchmarkRebuild(b *testing.B) {
	const L, l = 4032, 72
	nv := randomRefs(23, 1, L)[0]
	st := &incStreamState{energy: make([]float64, 2*L), cross: make([]float64, 0, L-2*l+1)}
	b.ReportAllocs()
	for b.Loop() {
		st.rebuild(nv, l)
	}
}
