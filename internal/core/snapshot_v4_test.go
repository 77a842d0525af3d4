package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// imageWith frames e as a version-tagged image whose profiler section (v4+)
// carries imgs instead of e's own state; v3 images carry no section.
func imageWith(t testing.TB, e *Engine, version uint32, imgs []incStreamImage) []byte {
	t.Helper()
	enc := &snapEncoder{}
	e.encodeSnapMeta(enc)
	if version >= 4 {
		encodeProfilerState(enc, imgs)
	}
	var buf bytes.Buffer
	if err := e.writeImage(&buf, version, enc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// firstValidStream returns the index of a stream of e with valid profiler
// aggregates and at least one value between its last sync and its window.
func firstValidStream(t testing.TB, imgs []incStreamImage) int {
	t.Helper()
	for i, img := range imgs {
		if img.valid && len(img.pre) > 0 {
			return i
		}
	}
	t.Fatal("donor engine has no stream with deferred, valid aggregates")
	return -1
}

// TestRestoreAcceptsV3Image: a version-3 image (no profiler section)
// restores the way it always has — the windows bulk-loaded from the start of
// each history backing and every aggregate left to the first consult's
// rebuild — through both decoders.
func TestRestoreAcceptsV3Image(t *testing.T) {
	e := warmSnapEngine(t)
	defer e.Close()
	v3 := imageWith(t, e, 3, nil)
	for name, restore := range map[string]func([]byte) (*Engine, error){
		"reader": func(b []byte) (*Engine, error) { return RestoreEngine(bytes.NewReader(b)) },
		"bytes":  RestoreEngineBytes,
	} {
		r, err := restore(v3)
		if err != nil {
			t.Fatalf("%s: v3 image rejected: %v", name, err)
		}
		requireSameEngineState(t, r, e)
		for i, st := range r.inc.states {
			if st.start != 0 || st.aggOK || st.m != e.w.Filled() {
				t.Fatalf("%s: stream %d restored with start %d, aggregates %v, m %d; want a bulk load", name, i, st.start, st.aggOK, st.m)
			}
		}
		r.Close()
	}
}

// TestRestoreRejectsCraftedProfilerState drives CRC-valid v4 images whose
// profiler section disagrees with the engine shape through both decoders:
// each must fail with a descriptive error, never index out of bounds later.
func TestRestoreRejectsCraftedProfilerState(t *testing.T) {
	e := warmSnapEngine(t)
	defer e.Close()
	v := firstValidStream(t, e.profilerImages())
	craft := func(mut func(imgs []incStreamImage) []incStreamImage) []byte {
		return imageWith(t, e, snapVersion, mut(slices.Clone(e.profilerImages())))
	}
	L := e.cfg.WindowLength
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"stream-count", craft(func(imgs []incStreamImage) []incStreamImage { return imgs[1:] }), "profiler state for"},
		{"start-past-backing", craft(func(imgs []incStreamImage) []incStreamImage {
			imgs[0].start = 2*L - e.w.Filled() + 1
			return imgs
		}), "history start"},
		{"sync-window", craft(func(imgs []incStreamImage) []incStreamImage {
			imgs[v].syncM = e.w.Filled() + 1
			return imgs
		}), "sync window"},
		{"cross-length", craft(func(imgs []incStreamImage) []incStreamImage {
			n := len(imgs[v].cross) - 1
			imgs[v].cross, imgs[v].energy = imgs[v].cross[:n], imgs[v].energy[:n]
			return imgs
		}), "aggregates"},
		{"deferral", craft(func(imgs []incStreamImage) []incStreamImage {
			imgs[v].deferred = 1 << 40
			return imgs
		}), "deferral"},
		{"sync-after-start", craft(func(imgs []incStreamImage) []incStreamImage {
			imgs[v].syncRel = 1
			return imgs
		}), "past the window start"},
		{"pre-length", craft(func(imgs []incStreamImage) []incStreamImage {
			imgs[v].pre = append(slices.Clone(imgs[v].pre), 1)
			return imgs
		}), "before the window"},
		{"truncated-section", func() []byte {
			// A section that ends right after claiming 2^20 cross values.
			enc := &snapEncoder{}
			e.encodeSnapMeta(enc)
			enc.uint(uint64(e.w.Width()))
			enc.uint(0)
			enc.bool(true)
			for range 4 {
				enc.uint(0)
			}
			enc.uint(1 << 20)
			var buf bytes.Buffer
			if err := e.writeImage(&buf, snapVersion, enc); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}(), "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for name, restore := range map[string]func([]byte) (*Engine, error){
				"reader": func(b []byte) (*Engine, error) { return RestoreEngine(bytes.NewReader(b)) },
				"bytes":  RestoreEngineBytes,
			} {
				r, err := restore(tc.data)
				if err == nil {
					r.Close()
					t.Fatalf("%s path accepted the crafted image", name)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s path error %q does not mention %q", name, err, tc.want)
				}
			}
		})
	}
}

// TestRestoreRefusesProfilerStateForStatelessProfiler: profiler state in an
// image whose config runs a stateless profiler is a crafted or mismatched
// image, not something to ignore.
func TestRestoreRefusesProfilerStateForStatelessProfiler(t *testing.T) {
	e := warmSnapEngine(t)
	defer e.Close()
	cfg := snapTestConfig()
	cfg.Profiler = ProfilerNaive
	naive, err := NewEngine(cfg, snapTestNames(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer naive.Close()
	var row []float64
	for tk := 0; tk < 150; tk++ {
		row = snapTestRow(tk, 5, row)
		if _, _, err := naive.Tick(row); err != nil {
			t.Fatal(err)
		}
	}
	img := imageWith(t, naive, snapVersion, e.profilerImages())
	if _, err := RestoreEngineBytes(img); err == nil || !strings.Contains(err.Error(), "naive profiler") {
		t.Fatalf("restore error = %v, want a refusal naming the naive profiler", err)
	}
}

// TestFloatsCapacityHintBounded: the decoder honours a capacity hint only
// within 4× the decoded length, so a crafted image whose config claims a
// huge window cannot turn a one-value aggregate into a window-sized
// allocation.
func TestFloatsCapacityHintBounded(t *testing.T) {
	enc := &snapEncoder{}
	enc.floats([]float64{1.5})
	enc.floats([]float64{1, 2, 3, 4})
	dec := &snapDecoder{b: enc.buf.Bytes()}
	if got := dec.floats(1 << 24); len(got) != 1 || cap(got) != 1 || got[0] != 1.5 {
		t.Fatalf("one value with a 2^24 hint: len %d cap %d, want a 1-value slice", len(got), cap(got))
	}
	if got := dec.floats(16); len(got) != 4 || cap(got) != 16 {
		t.Fatalf("four values with a 16 hint: len %d cap %d, want cap 16", len(got), cap(got))
	}
	if dec.err != nil {
		t.Fatal(dec.err)
	}
}
