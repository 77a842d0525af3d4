package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"tkcm/internal/core"
	"tkcm/internal/shard"
	"tkcm/internal/wal"
	"tkcm/internal/wire"
)

// traceRows caps the rows a traced replay times after the warm window, so
// a traced run stays within the benchmark's time budget.
const traceRows = 6000

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no spans).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span; -1 for a root
	Batch  int    `json:"batch"`  // replayed batch the span belongs to
}

// tracer keeps spans in memory. When off (during the untimed warm window)
// it records nothing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, batch int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Batch: batch})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// selfTimes sums each span name's duration minus the part of it that its
// child spans cover.
func selfTimes(spans []span) (self map[string]int64, count map[string]int) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, count = map[string]int64{}, map[string]int{}
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - child[i]
		count[s.Name]++
	}
	return self, count
}

// replayStats is what one in-process replay measured.
type replayStats struct {
	rows, imputations int
	wall              time.Duration
	spans             []span
}

// traceLayers replays tenant 0's rows of the run in process, single
// threaded, through the public functions of each layer — wire parse, the
// shard manager, a twin engine, the WAL manager, ack encoding — with spans
// around each call, and adds the per-layer metrics to m. Batches have
// the size the server observed during the open loop.
func traceLayers(w spec, seed uint64, ts []*tenant, runDir, out string, m map[string]metric) error {
	batch := int(math.Round(m["loadgen.batch_rows_mean"].Value))
	batch = min(max(batch, 1), max(w.batch, 1))
	perSync := max(int(math.Round(m["wal.rows_per_sync"].Value)), 1)
	rows := ts[0].rows
	if len(rows) > w.L+traceRows {
		rows = rows[:w.L+traceRows]
	}
	dir := filepath.Join(runDir, "trace")
	traced, err := replay(w, rows, batch, perSync, filepath.Join(dir, "replay"), &tracer{on: true, t0: time.Now()})
	if err != nil {
		return err
	}
	self, count := selfTimes(traced.spans)
	n := float64(max(traced.rows, 1))
	base := fmt.Sprintf("%d rows of tenant %s in batches of %d, after a %d-row warm window", traced.rows, ts[0].id, batch, w.L)
	perRow := func(name string) float64 { return float64(self[name]) / n }
	m["wire.parse_ns_per_row"] = metric{Value: perRow("wire.parse"), Unit: "ns", Samples: count["wire.parse"], Base: base}
	m["wire.ack_encode_ns_per_row"] = metric{Value: perRow("wire.ack_encode"), Unit: "ns", Samples: count["wire.ack_encode"], Base: base}
	m["core.tick_ns_per_row"] = metric{Value: perRow("core.tick"), Unit: "ns", Samples: count["core.tick"], Base: base}
	m["core.imputations_per_row"] = metric{Value: float64(traced.imputations) / n, Unit: "count", Base: base}
	m["shard.tick_self_ns_per_row"] = metric{Value: perRow("shard.tick") - perRow("core.tick"), Unit: "ns", Samples: count["shard.tick"],
		Base: base + "; Manager.TickBatch minus the twin engine's TickColumns"}
	m["wal.append_ns_per_row"] = metric{Value: perRow("wal.append"), Unit: "ns", Samples: count["wal.append"], Base: base}
	m["wal.sync_ms_mean"] = metric{Value: float64(self["wal.sync"]) / float64(max(count["wal.sync"], 1)) / 1e6, Unit: "ms", Samples: count["wal.sync"],
		Base: fmt.Sprintf("Log.Sync every %d rows, the observed rows per group commit", perSync)}
	// The overhead is what recording the spans cost: the same number of
	// begin/end pairs, timed alone, as a share of the replay's wall time.
	// Timing a bare replay against a traced one instead measures mostly the
	// difference between their fsyncs.
	probe := &tracer{on: true, t0: time.Now(), spans: make([]span, 0, len(traced.spans))}
	t0 := time.Now()
	for range traced.spans {
		probe.end(probe.begin("probe", -1, 0))
	}
	cost := time.Since(t0)
	m["trace.overhead_pct"] = metric{Value: 100 * cost.Seconds() / traced.wall.Seconds(), Unit: "%", Samples: len(traced.spans),
		Base: fmt.Sprintf("%d spans recorded in %.3f ms, against a %.1f ms traced replay", len(traced.spans), cost.Seconds()*1e3, traced.wall.Seconds()*1e3)}

	if err := coldPathMetrics(w, rows, dir, m); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(out, "traces"), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(traced.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed)), raw, 0o644)
}

// replay feeds rows through the layers, warming untimed first.
func replay(w spec, rows [][]float64, batch, perSync int, dir string, tr *tracer) (replayStats, error) {
	var st replayStats
	ctx := context.Background()
	const id = "replay"
	mgr := shard.New(shard.Options{Shards: 1})
	defer mgr.Close()
	if err := mgr.Create(ctx, id, w.engineConfig(), w.streamNames(), w.engineRefs()); err != nil {
		return st, err
	}
	twin, err := core.NewEngine(w.engineConfig(), w.streamNames(), w.engineRefs())
	if err != nil {
		return st, err
	}
	defer twin.Close()
	// A group-commit interval no run reaches: the replay syncs explicitly.
	wm := wal.NewManager(dir, wal.Options{SyncInterval: time.Hour})
	defer wm.Close()
	log, err := wm.Open(id)
	if err != nil {
		return st, err
	}
	walSeq := log.NextSeq()

	var (
		in       wire.TickIn
		brsp     shard.BatchResponse
		line     []byte
		ack      []byte
		cols     core.Columns
		unsynced int
	)
	toCols := func(rs [][]float64) core.Columns {
		cols = cols[:0]
		for c := 0; c < w.width; c++ {
			col := make([]float64, len(rs))
			for r, row := range rs {
				col[r] = row[c]
			}
			cols = append(cols, col)
		}
		return cols
	}
	start := time.Now()
	for lo, b := 0, 0; lo < len(rows); b++ {
		warm := lo < w.L
		size := batch
		if warm {
			size = min(warmBatch, w.L-lo)
		}
		hi := min(lo+size, len(rows))
		rs := rows[lo:hi]
		seq := uint64(lo + 1)
		if !warm && st.rows == 0 {
			start = time.Now()
		}
		on := tr.on
		tr.on = on && !warm
		root := tr.begin("replay.batch", -1, b)

		line = appendBatchLine(line[:0], seq, rs)
		sp := tr.begin("wire.parse", root, b)
		ok := wire.ParseTickIn(line, &in)
		tr.end(sp)
		if !ok {
			return st, fmt.Errorf("wire rejected a generated line")
		}
		parsed := in.Rows
		if in.HasValues {
			parsed = [][]float64{in.Values}
		}

		sp = tr.begin("shard.tick", root, b)
		err := mgr.TickBatch(ctx, id, seq, parsed, &brsp)
		tr.end(sp)
		if err != nil {
			return st, err
		}

		cs := toCols(rs)
		sp = tr.begin("core.tick", root, b)
		_, _, err = twin.TickColumns(cs)
		tr.end(sp)
		if err != nil {
			return st, err
		}

		sp = tr.begin("wal.append", root, b)
		_, err = wm.AppendBatch(id, walSeq, rs)
		tr.end(sp)
		if err != nil {
			return st, err
		}
		walSeq += uint64(len(rs))
		unsynced += len(rs)
		if unsynced >= perSync || warm {
			unsynced = 0
			sp = tr.begin("wal.sync", root, b)
			err = log.Sync()
			tr.end(sp)
			if err != nil {
				return st, err
			}
		}

		sp = tr.begin("wire.ack_encode", root, b)
		for i := range brsp.Rows {
			r := &brsp.Rows[i]
			ack, _ = wire.AppendAck(ack[:0], r.Tick, r.Seq, r.Row, r.Imputed, r.Duplicate)
		}
		tr.end(sp)
		tr.end(root)
		tr.on = on

		if !warm {
			st.rows += len(rs)
			for _, row := range rs {
				for _, v := range row {
					if math.IsNaN(v) {
						st.imputations++
					}
				}
			}
		}
		lo = hi
	}
	st.wall = time.Since(start)
	st.spans = tr.spans
	return st, nil
}

// coldPathMetrics times the cold path on the workload's shape: snapshot
// and mmap restore of an engine holding the replayed rows, and replay of
// the rows' WAL tail, each the median of several repetitions.
func coldPathMetrics(w spec, rows [][]float64, dir string, m map[string]metric) error {
	eng, err := core.NewEngine(w.engineConfig(), w.streamNames(), w.engineRefs())
	if err != nil {
		return err
	}
	defer eng.Close()
	for lo := 0; lo < len(rows); lo += warmBatch {
		hi := min(lo+warmBatch, len(rows))
		if _, _, err := eng.TickBatch(rows[lo:hi]); err != nil {
			return err
		}
	}
	const reps = 5
	var snapMs, restoreMs, tailMs []float64
	var snapBytes int64
	path := filepath.Join(dir, "engine.tkcm")
	for i := 0; i < reps; i++ {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		t0 := time.Now()
		err = eng.Snapshot(bw)
		if err == nil {
			err = bw.Flush()
		}
		snapMs = append(snapMs, float64(time.Since(t0))/1e6)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		snapBytes = fi.Size()
		t0 = time.Now()
		r, err := core.RestoreEngineFile(path)
		restoreMs = append(restoreMs, float64(time.Since(t0))/1e6)
		if err != nil {
			return err
		}
		r.Close()
	}

	// A parked tenant's tail: every row logged since its base checkpoint.
	const id = "tail"
	wm := wal.NewManager(filepath.Join(dir, "tail-wal"), wal.Options{SyncInterval: time.Hour})
	defer wm.Close()
	log, err := wm.Open(id)
	if err != nil {
		return err
	}
	first := log.NextSeq()
	for lo := 0; lo < len(rows); lo += w.batch {
		hi := min(lo+w.batch, len(rows))
		if _, err := wm.AppendBatch(id, first+uint64(lo), rows[lo:hi]); err != nil {
			return err
		}
	}
	if err := log.Sync(); err != nil {
		return err
	}
	for i := 0; i < reps; i++ {
		n := 0
		t0 := time.Now()
		_, err := wm.ReplayTenantTail(id, first, func(uint64, []float64) error { n++; return nil })
		tailMs = append(tailMs, float64(time.Since(t0))/1e6)
		if err != nil {
			return err
		}
		if n != len(rows) {
			return fmt.Errorf("tail replay returned %d rows, want %d", n, len(rows))
		}
	}
	shape := fmt.Sprintf("engine of L=%d l=%d width %d after %d rows; median of %d", w.L, w.l, w.width, len(rows), reps)
	m["core.snapshot_ms"] = metric{Value: median(snapMs), Unit: "ms", Samples: reps, Base: shape}
	m["core.restore_ms"] = metric{Value: median(restoreMs), Unit: "ms", Samples: reps, Base: shape + "; RestoreEngineFile"}
	m["core.snapshot_bytes"] = metric{Value: float64(snapBytes), Unit: "B", Base: shape}
	m["core.engine_bytes"] = metric{Value: float64(eng.MemoryBytes()), Unit: "B", Base: shape + "; Engine.MemoryBytes"}
	m["wal.replay_tail_ms"] = metric{Value: median(tailMs), Unit: "ms", Samples: reps,
		Base: fmt.Sprintf("ReplayTenantTail over %d rows in batches of %d; median of %d", len(rows), w.batch, reps)}
	return nil
}
