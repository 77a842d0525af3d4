package core

import (
	"fmt"
	"math"
)

// ProfilerKind selects the pattern-extraction strategy — the implementation
// that computes the dissimilarity profile of Def. 2, the phase the paper
// measures at ~92% of TKCM's runtime (Sec. 7.4).
type ProfilerKind int

const (
	// ProfilerAuto picks the fastest correct implementation for the call
	// site: the incremental profiler in the streaming engine under the L2
	// norm, the FFT profiler for one-shot slice imputations when
	// FastExtraction is set, and the naive profiler otherwise.
	ProfilerAuto ProfilerKind = iota
	// ProfilerNaive is the paper's Def. 2 loop: O(d·l·L) per profile,
	// supports every norm.
	ProfilerNaive
	// ProfilerFFT computes the L2 profile via FFT cross-correlation in
	// O(d·L·log L) (Sec. 8 future work). Non-L2 norms fall back to naive.
	ProfilerFFT
	// ProfilerIncremental maintains per-stream L2 profile aggregates across
	// consecutive engine ticks (a STOMP-style diagonal update). State is
	// demand-driven: recording a tick is O(1) per stream, and a stream's
	// aggregates are caught up only when it is consulted as a reference, so
	// untouched streams cost nothing (Config.EagerProfiler restores the
	// maintain-every-stream-every-tick behavior). Outside the engine
	// (one-shot slice imputation, non-L2 norms) it falls back to the FFT or
	// naive profiler.
	ProfilerIncremental
)

// String returns the flag-friendly name of the kind.
func (k ProfilerKind) String() string {
	switch k {
	case ProfilerAuto:
		return "auto"
	case ProfilerNaive:
		return "naive"
	case ProfilerFFT:
		return "fft"
	case ProfilerIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("ProfilerKind(%d)", int(k))
	}
}

// ParseProfilerKind maps a flag value ("auto", "naive", "fft",
// "incremental") back to its ProfilerKind.
func ParseProfilerKind(s string) (ProfilerKind, error) {
	for _, k := range []ProfilerKind{ProfilerAuto, ProfilerNaive, ProfilerFFT, ProfilerIncremental} {
		if s == k.String() {
			return k, nil
		}
	}
	return ProfilerAuto, fmt.Errorf("core: unknown profiler %q (want auto, naive, fft or incremental)", s)
}

// Profiler computes the dissimilarity profile D[j] = δ(P(anchor_j), P(tn))
// over plain reference histories (oldest first, equal lengths), writing into
// dst (allocated when nil). All implementations agree with the Def. 2 loop
// up to floating-point rounding; equivalence is enforced by tests.
type Profiler interface {
	// Name identifies the implementation in benches and logs.
	Name() string
	// Profile computes the dissimilarity profile for pattern length l under
	// the given norm. refs must be non-empty with equal-length rows.
	Profile(refs [][]float64, l int, norm Norm, dst []float64) []float64
}

// NaiveProfiler is the paper's Def. 2 loop over all candidate anchors:
// O(d·l·L) per profile, every norm supported.
type NaiveProfiler struct{}

// Name implements Profiler.
func (NaiveProfiler) Name() string { return "naive" }

// Profile implements Profiler via the direct per-anchor loop.
func (NaiveProfiler) Profile(refs [][]float64, l int, norm Norm, dst []float64) []float64 {
	return dissimilarityProfile(refs, l, norm, dst)
}

// FFTProfiler computes the L2 profile via FFT cross-correlation in
// O(d·L·log L); other norms fall back to the naive loop (the energy/
// cross-correlation decomposition only exists for L2).
type FFTProfiler struct{}

// Name implements Profiler.
func (FFTProfiler) Name() string { return "fft" }

// Profile implements Profiler.
func (FFTProfiler) Profile(refs [][]float64, l int, norm Norm, dst []float64) []float64 {
	if norm != L2 {
		return dissimilarityProfile(refs, l, norm, dst)
	}
	return dissimilarityProfileFFT(refs, l, dst)
}

// incRebuildEvery bounds floating-point drift of the incremental updates: a
// full rebuild at least every incRebuildEvery absorbed ticks keeps the
// maintained profile within ~1e-9 of the naive one.
const incRebuildEvery = 8192

// incStreamState holds one stream's retained history plus its (possibly
// stale) sliding profile aggregates. With v the stream's window (oldest
// first, m ticks) and qs = m − l:
//
//	eq        = Σ_{x<l} v[qs+x]²           (query pattern energy)
//	energy[j] = Σ_{x<l} v[j+x]²            (candidate pattern energy)
//	cross[j]  = Σ_{x<l} v[j+x]·v[qs+x]     (candidate·query dot product)
//
// so the stream's L2 profile contribution at anchor j is
// energy[j] + eq − 2·cross[j]. When the window advances by one tick, every
// cross entry moves along a diagonal of the dot-product matrix (candidate
// and query both shift by one), which updates it with one subtraction and
// one addition — the same observation that powers the STOMP matrix-profile
// algorithm.
//
// The history lives in a contiguous backing of capacity 2L, slid with
// amortized-O(1) compaction (shifted to the front when the right edge is
// reached), so the hot loops run over plain slices. Aggregates are
// demand-driven: Advance only appends, and sync catches the aggregates up to
// the current tick when the stream is actually consulted — replaying the
// deferred diagonal updates tick by tick when that is cheaper, rebuilding
// from scratch otherwise. syncStart/syncM record the window geometry at the
// last sync so the replay can reconstruct every intermediate window directly
// from the backing.
type incStreamState struct {
	hist  []float64 // backing, len 2L; window = hist[start : start+m]
	start int
	m     int // filled ticks, ≤ L
	ticks int // engine ticks absorbed

	// Aggregates; valid only while aggOK, and then describe the window as it
	// was `deferred` ticks ago.
	aggOK        bool
	deferred     int // ticks absorbed since the last sync
	syncStart    int // start at the last sync (adjusted on compaction)
	syncM        int // m at the last sync
	sinceRebuild int // synced ticks since the last full rebuild

	cross  []float64 // len = candidate count at last sync, cap maxCand
	energy []float64 // backing, len 2L; entries = energy[estart : estart+nCand]
	estart int
	eq     float64

	// contrib caches the stream's profile contribution vector
	// energy[j] + eq − 2·cross[j] for the tick it was computed at, so ticks
	// whose missing streams share reference streams compute it once.
	// contrib32 is its float32 twin, used instead of contrib when the
	// profiler runs with Float32Profiles: the vector is still computed in
	// float64 from the float64 accumulators (one fresh rounding per entry,
	// no accumulated drift) but stored and summed as float32, halving the
	// memory traffic of every profile assembly that reads it.
	contrib     []float64
	contrib32   []float32
	contribTick int
}

// IncrementalProfiler maintains per-stream profile aggregates inside the
// engine, replacing the O(d·l·L) per-tick recompute with demand-driven
// incremental maintenance. It is stateful: the engine calls Advance exactly
// once per stream per tick, after that stream's value for the tick is final,
// and assembles profiles for any reference subset via ProfileWindow.
//
// Advance is O(1): it only appends to the stream's history. A stream's
// aggregates are caught up when it is first consulted in a tick, choosing
// the cheaper of replaying the t deferred diagonal updates (O(t·L)) and a
// full rebuild (O(l·L)), so per-tick engine cost scales with the streams
// that actually serve as references, not with the total width. SetEager
// restores the maintain-everything-every-tick behavior.
//
// The aggregates are per stream, not per target, and each consulted stream's
// contribution vector is computed at most once per tick, so every imputation
// in a tick shares both.
//
// Its stateless Profile method (the Profiler interface) delegates to the FFT
// profiler — one-shot slice imputations have no tick-to-tick state to exploit.
type IncrementalProfiler struct {
	l       int
	winLen  int
	maxCand int
	eager   bool
	f32     bool
	states  []*incStreamState
	fallbak FFTProfiler
}

// NewIncrementalProfiler creates the engine-side incremental profiler for
// pattern length l over width streams of a window with capacity winLen.
func NewIncrementalProfiler(l, width, winLen int) *IncrementalProfiler {
	maxCand := winLen - 2*l + 1
	if maxCand < 0 {
		maxCand = 0
	}
	p := &IncrementalProfiler{l: l, winLen: winLen, maxCand: maxCand, states: make([]*incStreamState, width)}
	for i := range p.states {
		p.states[i] = &incStreamState{contribTick: -1}
	}
	return p
}

// SetEager switches between demand-driven catch-up (false, the default) and
// the eager mode that syncs every stream's aggregates on every Advance.
func (p *IncrementalProfiler) SetEager(eager bool) { p.eager = eager }

// SetFloat32 switches the derived profile aggregates (the per-stream
// contribution vectors and their assembly) to float32 storage — see
// Config.Float32Profiles. The maintained diagonal accumulators stay float64
// either way. Toggle only before the first tick.
func (p *IncrementalProfiler) SetFloat32(f32 bool) { p.f32 = f32 }

// Float32 reports whether the profiler stores its derived profile aggregates
// as float32.
func (p *IncrementalProfiler) Float32() bool { return p.f32 }

// Name implements Profiler.
func (p *IncrementalProfiler) Name() string { return "incremental" }

// Profile implements Profiler for one-shot slice histories (no streaming
// state available) by delegating to the FFT fast path.
func (p *IncrementalProfiler) Profile(refs [][]float64, l int, norm Norm, dst []float64) []float64 {
	return p.fallbak.Profile(refs, l, norm, dst)
}

// Advance absorbs one tick of stream i whose finalized value (observed or
// imputed) is v. It must be called exactly once per stream per engine tick,
// in tick order. It is O(1): aggregate maintenance is deferred until the
// stream is consulted (unless SetEager(true)).
func (p *IncrementalProfiler) Advance(i int, v float64) {
	st := p.states[i]
	L := p.winLen
	if st.hist == nil {
		st.hist = make([]float64, 2*L)
	}
	st.ticks++
	if st.m == L {
		// Slide: compact the backing when the right edge is reached, then
		// append v. Values left of the window stay addressable, so deferred
		// diagonal updates can be replayed against them.
		if st.start+st.m == len(st.hist) {
			copy(st.hist, st.hist[st.start:st.start+st.m])
			// The whole history shifted down by `start`; keep the sync
			// anchor pointing at the same values (it goes negative when the
			// sync point predates the surviving values, which sync detects).
			st.syncStart -= st.start
			st.start = 0
		}
		st.hist[st.start+st.m] = v
		st.start++
	} else {
		st.hist[st.start+st.m] = v
		st.m++
	}
	if st.aggOK {
		st.deferred++
	}
	if p.eager {
		p.sync(st)
	}
}

// AdvanceBulk absorbs a run of ticks of stream i whose finalized values are
// vs (oldest first) — exactly equivalent to calling Advance once per value,
// but the history append happens in at most a few contiguous copies instead
// of per-element stores, and the deferral counters are bumped once per run.
// This is the columnar ingest path: demand-driven catch-up makes the deferred
// diagonal updates identical whether the ticks arrived one by one or in bulk,
// so batched and unbatched engines stay bit-identical. Eager mode falls back
// to per-value Advance, which syncs after every tick by contract.
func (p *IncrementalProfiler) AdvanceBulk(i int, vs []float64) {
	if p.eager {
		for _, v := range vs {
			p.Advance(i, v)
		}
		return
	}
	st := p.states[i]
	L := p.winLen
	if st.hist == nil {
		st.hist = make([]float64, 2*L)
	}
	st.ticks += len(vs)
	if st.aggOK {
		st.deferred += len(vs)
	}
	for len(vs) > 0 {
		if st.m < L {
			// Warm-up: the window grows in place (start stays 0).
			n := L - st.m
			if n > len(vs) {
				n = len(vs)
			}
			copy(st.hist[st.start+st.m:], vs[:n])
			st.m += n
			vs = vs[n:]
			continue
		}
		// Steady state: append after the window, compacting the backing when
		// the right edge is reached — the same points at which per-value
		// Advance compacts, so sync's replay window geometry is identical.
		room := len(st.hist) - (st.start + st.m)
		if room == 0 {
			copy(st.hist, st.hist[st.start:st.start+st.m])
			st.syncStart -= st.start
			st.start = 0
			room = len(st.hist) - st.m
		}
		n := room
		if n > len(vs) {
			n = len(vs)
		}
		copy(st.hist[st.start+st.m:st.start+st.m+n], vs[:n])
		st.start += n
		vs = vs[n:]
	}
}

// sync brings st's aggregates up to the current tick. It replays the
// deferred per-tick diagonal updates when the aggregates are recent enough
// for that to beat a rebuild (t deferred ticks cost O(t·L) vs the rebuild's
// O(l·L)), and rebuilds from the raw window otherwise.
func (p *IncrementalProfiler) sync(st *incStreamState) {
	if st.aggOK && st.deferred == 0 {
		return
	}
	l := p.l
	nCand := st.m - 2*l + 1
	if nCand <= 0 {
		// Window too short for any candidate; nothing to maintain yet.
		st.aggOK = false
		return
	}
	if st.energy == nil {
		// Aggregate storage is allocated on first consult, not on first
		// Advance, so never-referenced streams only pay for their history.
		st.energy = make([]float64, len(st.hist))
		st.cross = make([]float64, 0, p.maxCand)
	}
	if !st.replayable(l) {
		st.rebuild(st.hist[st.start:st.start+st.m], l)
		st.syncStart = st.start
		st.syncM = st.m
		st.deferred = 0
		st.aggOK = true
		return
	}
	for g := 1; g <= st.m-st.syncM; g++ {
		st.replayGrowth(st.syncM+g, l)
	}
	for s := st.syncStart + 1; s <= st.start; s++ {
		st.replaySlide(s, st.m, l)
	}
	st.sinceRebuild += st.deferred
	st.syncStart = st.start
	st.syncM = st.m
	st.deferred = 0
}

// replayable reports whether sync may catch st's aggregates up by replaying
// the deferred ticks instead of rebuilding them. Replay needs: valid
// aggregates that already covered ≥ 1 candidate, a deferral expressible as
// growth-then-slide steps over values still in the backing, staying under
// the drift-rebuild budget — and it must be cheaper than the O(m + nCand·l)
// rebuild. Once false it stays false until the next sync: later ticks only
// add deferred work, and a compaction that drops the sync point out of the
// backing is permanent.
func (st *incStreamState) replayable(l int) bool {
	nCand := st.m - 2*l + 1
	grow := st.m - st.syncM
	slide := st.start - st.syncStart
	return st.aggOK &&
		st.syncM-2*l+1 >= 1 &&
		st.syncStart >= 0 && grow >= 0 && slide >= 0 && grow+slide == st.deferred &&
		st.sinceRebuild+st.deferred < incRebuildEvery &&
		st.deferred*(nCand+l) <= st.m+nCand*l
}

// replayGrowth replays one deferred warm-up tick: the window grew from m-1
// to m values (start unchanged at 0 during warm-up), adding one candidate.
// Old cross entry j-1 slides diagonally into entry j; entry 0 is computed
// fresh in O(l); the new candidate's energy extends its neighbor by one
// pair.
func (st *incStreamState) replayGrowth(m, l int) {
	w := st.hist[st.syncStart : st.syncStart+m]
	nCand := m - 2*l + 1
	qs := m - l
	vNew := w[m-1]
	qold := w[qs-1]
	st.cross = st.cross[:nCand]
	cross := st.cross
	for j := nCand - 1; j >= 1; j-- {
		cross[j] = cross[j-1] - w[j-1]*qold + w[j-1+l]*vNew
	}
	c0 := 0.0
	for x := 0; x < l; x++ {
		c0 += w[x] * w[qs+x]
	}
	cross[0] = c0
	last := st.estart + nCand - 1
	ls := nCand - 1 // window-local start of the newest candidate
	st.energy[last] = st.energy[last-1] - w[ls-1]*w[ls-1] + w[ls-1+l]*w[ls-1+l]
	st.eq += vNew*vNew - w[m-1-l]*w[m-1-l]
}

// replaySlide replays one deferred steady-state tick: the full window slid
// by one, so that its backing position after the tick was hist[s : s+m].
// Candidate starts stay index-aligned; each cross entry slides along its
// diagonal with one fused multiply-subtract pair, the candidate energies
// shift by a start-offset bump plus one fresh entry, and the query energy
// exchanges its entering/leaving values.
func (st *incStreamState) replaySlide(s, m, l int) {
	nCand := m - 2*l + 1
	qs := m - l
	hist := st.hist
	vNew := hist[s+m-1]
	qold := hist[s+qs-1]
	cross := st.cross[:nCand]
	anchors := hist[s+l-1 : s+l-1+nCand]
	lefts := hist[s-1 : s-1+nCand]
	// The diagonal update, 4-way unrolled (bounds hoisted by the re-slices
	// above).
	j := 0
	for ; j+4 <= nCand; j += 4 {
		cross[j] += anchors[j]*vNew - lefts[j]*qold
		cross[j+1] += anchors[j+1]*vNew - lefts[j+1]*qold
		cross[j+2] += anchors[j+2]*vNew - lefts[j+2]*qold
		cross[j+3] += anchors[j+3]*vNew - lefts[j+3]*qold
	}
	for ; j < nCand; j++ {
		cross[j] += anchors[j]*vNew - lefts[j]*qold
	}
	// Candidate energies shift down one slot (a start-offset bump) and the
	// newest candidate's energy extends its neighbor by one pair.
	if st.estart+nCand == len(st.energy) {
		copy(st.energy, st.energy[st.estart:st.estart+nCand])
		st.estart = 0
	}
	st.estart++
	last := st.estart + nCand - 1
	e0 := hist[s+nCand-2]
	e1 := hist[s+nCand-2+l]
	st.energy[last] = st.energy[last-1] - e0*e0 + e1*e1
	st.eq += vNew*vNew - qold*qold
}

// rebuild recomputes all aggregates exactly from the current window.
func (st *incStreamState) rebuild(nv []float64, l int) {
	m := len(nv)
	nCand := m - 2*l + 1
	qs := m - l
	st.sinceRebuild = 0
	st.estart = 0
	st.eq = 0
	for _, v := range nv[qs:] {
		st.eq += v * v
	}
	if cap(st.cross) < nCand {
		st.cross = make([]float64, nCand)
	} else {
		st.cross = st.cross[:nCand]
	}
	// Candidate energies roll in O(m).
	e := 0.0
	for x := 0; x < l; x++ {
		e += nv[x] * nv[x]
	}
	energy := st.energy[:nCand]
	for j := range energy {
		energy[j] = e
		if j+1 < nCand {
			e += nv[j+l]*nv[j+l] - nv[j]*nv[j]
		}
	}
	// Cross products are O(l) each. The candidates are independent
	// accumulators, so the loop runs query offset by query offset over all
	// of them, four offsets per pass: each cross[j] still sums its l
	// products in ascending x, starting from zero, exactly as a per-candidate
	// dot product would, but the passes carry no dependency from one
	// candidate to the next.
	cross := st.cross[:nCand]
	clear(cross)
	q := nv[qs:m]
	x := 0
	for ; x+4 <= l; x += 4 {
		q0, q1, q2, q3 := q[x], q[x+1], q[x+2], q[x+3]
		s0 := nv[x : x+nCand]
		s1 := nv[x+1 : x+1+nCand]
		s2 := nv[x+2 : x+2+nCand]
		s3 := nv[x+3 : x+3+nCand]
		s0, s1, s2, s3 = s0[:len(cross)], s1[:len(cross)], s2[:len(cross)], s3[:len(cross)]
		for j := range cross {
			c := cross[j] + s0[j]*q0
			c += s1[j] * q1
			c += s2[j] * q2
			c += s3[j] * q3
			cross[j] = c
		}
	}
	for ; x < l; x++ {
		qx := q[x]
		sx := nv[x : x+nCand]
		sx = sx[:len(cross)]
		for j := range cross {
			cross[j] += sx[j] * qx
		}
	}
}

// incStreamImage is the part of one stream's incremental state a snapshot
// carries beyond the retained window, so a restored engine continues
// bit-identically to an uninterrupted one. Replayed aggregates round
// differently from rebuilt ones, and the compaction point of the history
// backing decides whether a later sync may replay or must rebuild, so both
// the aggregates and the backing geometry are state, not derived data.
type incStreamImage struct {
	start int // window start in the 2L history backing
	valid bool
	// The fields below describe the aggregates and are set only when valid.
	deferred     int
	syncM        int
	sinceRebuild int
	syncRel      int       // syncStart − start (≤ 0)
	pre          []float64 // hist[start−len(pre) : start], needed to replay the deferred slides
	cross        []float64
	energy       []float64 // live entries, len(cross) of them
	eq           float64
}

// image returns stream i's state beyond its window values. The slices alias
// the live state; the caller must finish with them before the next tick.
// Aggregates the next sync can no longer replay are left out, as invalid:
// that sync rebuilds them from the window either way.
func (p *IncrementalProfiler) image(i int) incStreamImage {
	st := p.states[i]
	img := incStreamImage{start: st.start, valid: st.replayable(p.l)}
	if !img.valid {
		return img
	}
	img.deferred = st.deferred
	img.syncM = st.syncM
	img.sinceRebuild = st.sinceRebuild
	img.syncRel = st.syncStart - st.start
	if st.syncStart >= 0 {
		img.pre = st.hist[st.syncStart:st.start]
	}
	img.cross = st.cross
	img.energy = st.energy[st.estart : st.estart+len(st.cross)]
	img.eq = st.eq
	return img
}

// restoreStream reinstates stream i from its retained window values (oldest
// first) and its decoded image, which must be consistent with the
// profiler's shape (validateImage) and whose slices the stream may keep.
// The stream's tick counter restarts at len(window), as AdvanceBulk would
// leave it.
func (p *IncrementalProfiler) restoreStream(i int, window []float64, img *incStreamImage) {
	st := p.states[i]
	st.hist = make([]float64, 2*p.winLen)
	copy(st.hist[img.start:], window)
	st.start = img.start
	st.m = len(window)
	st.ticks = len(window)
	if !img.valid {
		return
	}
	copy(st.hist[img.start-len(img.pre):], img.pre)
	st.aggOK = true
	st.deferred = img.deferred
	st.syncM = img.syncM
	st.sinceRebuild = img.sinceRebuild
	st.syncStart = img.start + img.syncRel
	st.energy = img.energy[:cap(img.energy)]
	if len(st.energy) < len(st.hist) {
		st.energy = make([]float64, len(st.hist))
		copy(st.energy, img.energy)
	}
	st.estart = 0
	st.cross = img.cross
	if cap(st.cross) < p.maxCand {
		st.cross = make([]float64, len(img.cross), p.maxCand)
		copy(st.cross, img.cross)
	}
	st.eq = img.eq
}

// validateImage checks a decoded stream image against the profiler's shape
// for a window of m retained values, so restoreStream and every later sync
// stay in bounds whatever the image claims.
func (p *IncrementalProfiler) validateImage(img *incStreamImage, m int) error {
	L, l := p.winLen, p.l
	if img.start < 0 || img.start > 2*L-m || (m < L && img.start != 0) {
		return fmt.Errorf("history start %d does not fit a %d-value window in a %d-slot backing", img.start, m, 2*L)
	}
	if !img.valid {
		return nil
	}
	nCand := img.syncM - 2*l + 1
	switch {
	case img.syncM > m || nCand < 1 || nCand > p.maxCand:
		return fmt.Errorf("sync window of %d values does not fit the %d retained", img.syncM, m)
	case len(img.cross) != nCand || len(img.energy) != nCand:
		return fmt.Errorf("%d cross and %d energy aggregates, want %d", len(img.cross), len(img.energy), nCand)
	case img.deferred < 0 || img.deferred > maxSnapSection || img.sinceRebuild < 0 || img.sinceRebuild > maxSnapSection:
		return fmt.Errorf("implausible deferral counters (%d, %d)", img.deferred, img.sinceRebuild)
	case img.syncRel > 0 || img.syncRel < -maxSnapSection:
		return fmt.Errorf("sync start %d past the window start", img.syncRel)
	case img.start+img.syncRel >= 0 && len(img.pre) != -img.syncRel:
		return fmt.Errorf("%d values before the window, want %d", len(img.pre), -img.syncRel)
	case img.start+img.syncRel < 0 && len(img.pre) != 0:
		return fmt.Errorf("%d values before the window, want none", len(img.pre))
	}
	return nil
}

// syncContrib catches st up to the current tick and returns its contribution
// vector energy[j] + eq − 2·cross[j], computing it at most once per tick.
func (p *IncrementalProfiler) syncContrib(st *incStreamState) []float64 {
	p.sync(st)
	nCand := len(st.cross)
	if st.contribTick == st.ticks && len(st.contrib) == nCand {
		return st.contrib
	}
	if cap(st.contrib) < nCand {
		n := p.maxCand
		if n < nCand {
			n = nCand
		}
		st.contrib = make([]float64, n)
	}
	st.contrib = st.contrib[:nCand]
	contrib := st.contrib[:nCand:nCand]
	energy := st.energy[st.estart : st.estart+nCand : st.estart+nCand]
	cross := st.cross[:nCand:nCand]
	eq := st.eq
	j := 0
	for ; j+4 <= nCand; j += 4 {
		contrib[j] = energy[j] + eq - 2*cross[j]
		contrib[j+1] = energy[j+1] + eq - 2*cross[j+1]
		contrib[j+2] = energy[j+2] + eq - 2*cross[j+2]
		contrib[j+3] = energy[j+3] + eq - 2*cross[j+3]
	}
	for ; j < nCand; j++ {
		contrib[j] = energy[j] + eq - 2*cross[j]
	}
	st.contribTick = st.ticks
	return st.contrib
}

// syncContrib32 is syncContrib's Float32Profiles twin: the contribution
// vector is computed in float64 from the float64 accumulators but stored as
// float32 — one fresh rounding per entry per tick, never accumulated — so
// every profile assembly that reads it moves half the bytes.
func (p *IncrementalProfiler) syncContrib32(st *incStreamState) []float32 {
	p.sync(st)
	nCand := len(st.cross)
	if st.contribTick == st.ticks && len(st.contrib32) == nCand {
		return st.contrib32
	}
	if cap(st.contrib32) < nCand {
		n := p.maxCand
		if n < nCand {
			n = nCand
		}
		st.contrib32 = make([]float32, n)
	}
	st.contrib32 = st.contrib32[:nCand]
	contrib := st.contrib32[:nCand:nCand]
	energy := st.energy[st.estart : st.estart+nCand : st.estart+nCand]
	cross := st.cross[:nCand:nCand]
	eq := st.eq
	j := 0
	for ; j+4 <= nCand; j += 4 {
		contrib[j] = float32(energy[j] + eq - 2*cross[j])
		contrib[j+1] = float32(energy[j+1] + eq - 2*cross[j+1])
		contrib[j+2] = float32(energy[j+2] + eq - 2*cross[j+2])
		contrib[j+3] = float32(energy[j+3] + eq - 2*cross[j+3])
	}
	for ; j < nCand; j++ {
		contrib[j] = float32(energy[j] + eq - 2*cross[j])
	}
	st.contribTick = st.ticks
	return st.contrib32
}

// Prepare catches up every referenced stream and fills its per-tick
// contribution cache. The engine calls it serially before fanning a tick's
// imputations out across workers, so the concurrent ProfileWindow calls are
// pure reads of the cached vectors.
func (p *IncrementalProfiler) Prepare(refIdx []int) {
	for _, ri := range refIdx {
		if p.f32 {
			p.syncContrib32(p.states[ri])
		} else {
			p.syncContrib(p.states[ri])
		}
	}
}

// ProfileWindow assembles the L2 dissimilarity profile over the reference
// streams refIdx from the maintained aggregates, writing into dst (allocated
// when nil). Streams not yet consulted this tick are caught up on demand
// (catch-up mutates state — concurrent callers must Prepare their reference
// streams first, as the engine does). All referenced states must be advanced
// to the same tick and hold the same candidate count; it panics otherwise
// (an engine sequencing bug, not a data condition).
func (p *IncrementalProfiler) ProfileWindow(refIdx []int, dst []float64) []float64 {
	if len(refIdx) == 0 {
		panic("core: ProfileWindow needs at least one reference stream")
	}
	if p.f32 {
		return p.profileWindow32(refIdx, dst)
	}
	first := p.states[refIdx[0]]
	c0 := p.syncContrib(first)
	nCand := len(c0)
	tick := first.ticks
	if dst == nil {
		dst = make([]float64, nCand)
	}
	dst = dst[:nCand:nCand]
	copy(dst, c0)
	for _, ri := range refIdx[1:] {
		st := p.states[ri]
		c := p.syncContrib(st)
		if st.ticks != tick || len(c) != nCand {
			panic(fmt.Sprintf("core: incremental state for stream %d out of sync (tick %d/%d, candidates %d/%d)",
				ri, st.ticks, tick, len(c), nCand))
		}
		c = c[:nCand:nCand]
		j := 0
		for ; j+4 <= nCand; j += 4 {
			dst[j] += c[j]
			dst[j+1] += c[j+1]
			dst[j+2] += c[j+2]
			dst[j+3] += c[j+3]
		}
		for ; j < nCand; j++ {
			dst[j] += c[j]
		}
	}
	for j, v := range dst {
		if v < 0 {
			v = 0 // guard incremental rounding below zero
		}
		dst[j] = math.Sqrt(v)
	}
	return dst
}

// profileWindow32 assembles the profile from float32 contribution vectors:
// the d-way sum loads half the bytes of the float64 path, accumulating into
// the caller-owned float64 dst (so concurrent workers stay race-free after
// Prepare, exactly like the float64 path). Same contract as ProfileWindow.
func (p *IncrementalProfiler) profileWindow32(refIdx []int, dst []float64) []float64 {
	first := p.states[refIdx[0]]
	c0 := p.syncContrib32(first)
	nCand := len(c0)
	tick := first.ticks
	if dst == nil {
		dst = make([]float64, nCand)
	}
	dst = dst[:nCand:nCand]
	c0 = c0[:nCand:nCand]
	j := 0
	for ; j+4 <= nCand; j += 4 {
		dst[j] = float64(c0[j])
		dst[j+1] = float64(c0[j+1])
		dst[j+2] = float64(c0[j+2])
		dst[j+3] = float64(c0[j+3])
	}
	for ; j < nCand; j++ {
		dst[j] = float64(c0[j])
	}
	for _, ri := range refIdx[1:] {
		st := p.states[ri]
		c := p.syncContrib32(st)
		if st.ticks != tick || len(c) != nCand {
			panic(fmt.Sprintf("core: incremental state for stream %d out of sync (tick %d/%d, candidates %d/%d)",
				ri, st.ticks, tick, len(c), nCand))
		}
		c = c[:nCand:nCand]
		j := 0
		for ; j+4 <= nCand; j += 4 {
			dst[j] += float64(c[j])
			dst[j+1] += float64(c[j+1])
			dst[j+2] += float64(c[j+2])
			dst[j+3] += float64(c[j+3])
		}
		for ; j < nCand; j++ {
			dst[j] += float64(c[j])
		}
	}
	for j, v := range dst {
		if v < 0 {
			v = 0 // guard rounding below zero
		}
		dst[j] = math.Sqrt(v)
	}
	return dst
}

// sliceProfiler resolves the profiler used for one-shot slice imputations
// (Impute). The deprecated FastExtraction flag is an alias for ProfilerFFT.
func (c Config) sliceProfiler() Profiler {
	switch c.Profiler {
	case ProfilerNaive:
		return NaiveProfiler{}
	case ProfilerFFT, ProfilerIncremental:
		return FFTProfiler{}
	default:
		if c.FastExtraction {
			return FFTProfiler{}
		}
		return NaiveProfiler{}
	}
}

// engineProfilerKind resolves the streaming engine's extraction strategy.
// Auto prefers the incremental profiler under L2 (the norm it supports);
// every kind degrades to naive for non-L2 norms, matching the slice path.
func (c Config) engineProfilerKind() ProfilerKind {
	k := c.Profiler
	if k == ProfilerAuto {
		if c.FastExtraction {
			k = ProfilerFFT
		} else {
			k = ProfilerIncremental
		}
	}
	if c.Norm != L2 && k != ProfilerNaive {
		return ProfilerNaive
	}
	return k
}
