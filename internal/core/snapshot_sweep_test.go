package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// sweepShape is a small serving shape (L=1024, l=16, k=3, d=2, width 4, one
// target with 5% i.i.d. gaps): long enough that restored engines see both
// replayed and rebuilt aggregates, small enough to restore hundreds of times.
func sweepShape() (Config, []string, map[string]ReferenceSet) {
	cfg := DefaultConfig()
	cfg.K, cfg.PatternLength, cfg.D, cfg.WindowLength = 3, 16, 2, 1024
	cfg.SkipDiagnostics = true
	names := []string{"s00", "s01", "s02", "s03"}
	refs := map[string]ReferenceSet{"s00": {Stream: "s00", Candidates: []string{"s01", "s02"}}}
	return cfg, names, refs
}

// TestSnapshotPointSweepBitIdentical snapshots one engine at many points of
// a stream, restores each image through both the streaming and the file
// (memory-mapped) decoder, and requires every later output of the restored
// engines to be bit-identical to the uninterrupted run. Near-tie anchor
// selections make this a test of the profiler state a snapshot carries:
// aggregates rebuilt on restore round differently from the replayed ones an
// uninterrupted engine holds, and at some snapshot points that flips an
// anchor.
func TestSnapshotPointSweepBitIdentical(t *testing.T) {
	cfg, names, refs := sweepShape()
	const warm, n, every = 1024, 1024 + 640, 3
	dir := t.TempDir()
	// Stream (4, 106) restored from row 1038 with rebuilt aggregates flips
	// an anchor at row 1041; (7, 1) is a second, arbitrary stream.
	for _, src := range [][2]uint64{{4, 106}, {7, 1}} {
		seed := src[0]
		rows := seasonalRows(seed, src[1], rowShape{width: len(names), targets: 1, period: 96, warm: warm, n: n, missing: 0.05})

		// Pass 1: the uninterrupted reference outputs.
		ref, err := NewEngine(cfg, names, refs)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]float64, n)
		for i, row := range rows {
			out, _, err := ref.Tick(row)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append([]float64(nil), out...)
		}
		ref.Close()

		// Pass 2: snapshot a second uninterrupted run at every `every`-th
		// point and run restored copies to the end of the stream.
		live, err := NewEngine(cfg, names, refs)
		if err != nil {
			t.Fatal(err)
		}
		diverged := 0
		for i, row := range rows {
			if i >= warm-16 && i%every == 0 {
				var img bytes.Buffer
				if err := live.Snapshot(&img); err != nil {
					t.Fatal(err)
				}
				fromReader, err := RestoreEngine(bytes.NewReader(img.Bytes()))
				if err != nil {
					t.Fatalf("seed %d point %d: %v", seed, i, err)
				}
				path := filepath.Join(dir, "img.tkcm")
				if err := os.WriteFile(path, img.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				fromFile, err := RestoreEngineFile(path)
				if err != nil {
					t.Fatalf("seed %d point %d: %v", seed, i, err)
				}
				for path, r := range map[string]*Engine{"RestoreEngine": fromReader, "RestoreEngineFile": fromFile} {
					requireSameProfilerState(t, r, live)
					if at := firstDivergence(t, r, rows[i:], want[i:]); at >= 0 {
						diverged++
						t.Errorf("seed %d: %s image at row %d diverges at row %d", seed, path, i, i+at)
					}
					r.Close()
				}
			}
			if _, _, err := live.Tick(row); err != nil {
				t.Fatal(err)
			}
		}
		live.Close()
		if diverged > 0 {
			t.Fatalf("seed %d: %d restored engines diverged from the uninterrupted run", seed, diverged)
		}
	}
}

// firstDivergence ticks e through rows and returns the index of the first
// output that is not bit-identical to want, or -1.
func firstDivergence(t *testing.T, e *Engine, rows, want [][]float64) int {
	t.Helper()
	for i, row := range rows {
		out, _, err := e.Tick(row)
		if err != nil {
			t.Fatal(err)
		}
		for c, v := range out {
			if math.Float64bits(v) != math.Float64bits(want[i][c]) {
				return i
			}
		}
	}
	return -1
}

// requireSameProfilerState asserts that got's incremental profiler holds
// bit-identical state to want's: history geometry, deferral counters and
// aggregates, stream by stream.
func requireSameProfilerState(t *testing.T, got, want *Engine) {
	t.Helper()
	if (got.inc == nil) != (want.inc == nil) {
		t.Fatalf("incremental profiler present %v, want %v", got.inc != nil, want.inc != nil)
	}
	if want.inc == nil {
		return
	}
	same := func(a, b []float64) bool {
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
	for i := range want.inc.states {
		g, w := got.inc.image(i), want.inc.image(i)
		gs, ws := got.inc.states[i], want.inc.states[i]
		switch {
		case g.start != w.start || g.valid != w.valid || gs.m != ws.m:
			t.Fatalf("stream %d: start/valid/m (%d,%v,%d), want (%d,%v,%d)", i, g.start, g.valid, gs.m, w.start, w.valid, ws.m)
		case !same(gs.hist[gs.start:gs.start+gs.m], ws.hist[ws.start:ws.start+ws.m]):
			t.Fatalf("stream %d: history differs", i)
		case g.deferred != w.deferred || g.syncM != w.syncM || g.sinceRebuild != w.sinceRebuild || g.syncRel != w.syncRel:
			t.Fatalf("stream %d: counters %+v, want %+v", i, g, w)
		case !same(g.pre, w.pre) || !same(g.cross, w.cross) || !same(g.energy, w.energy) ||
			math.Float64bits(g.eq) != math.Float64bits(w.eq):
			t.Fatalf("stream %d: aggregates differ", i)
		}
	}
}
