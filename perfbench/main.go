// Command perfbench is the repository's serving benchmark. It builds nothing
// itself: run it through run.sh, which builds tkcm-serve and this command
// from the source tree and passes the build directory.
//
//	bash perfbench/run.sh --workload paper-steady --seed 1 --seconds 10 --trace 0
//
// One run launches a real tkcm-serve (one shard per CPU, real checkpoint and
// write-ahead-log directories, default group commit), sets it up several
// times to time set-up, then drives it from this single process over two
// HTTP connections:
//
//   - an open-loop phase of --seconds at the workload's fixed offered rate,
//     each row timed from its scheduled due time;
//   - a closed-loop phase on the same inputs, for the highest acked rate;
//   - a SIGKILL and restart on the same directories, timed until every
//     tenant has acked its next row.
//
// Off the clock, every acked row is then checked bit for bit against an
// in-process tkcm.Engine fed the same rows; any mismatch fails the run.
// With --trace 1 the run also reports per-layer metrics: server stage
// histograms scraped around the open-loop phase, and an in-process,
// single-threaded replay of the workload's inputs through the wire, shard,
// core and WAL layers with spans recorded around each call.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"tkcm/client"
	"tkcm/internal/obs"
)

const (
	// A run sets the server up from scratch at least minSetups times, and
	// up to maxSetups times while set-up has taken less than setupBudget;
	// setup_s is their median and the last server is measured.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 3 * time.Second
	// nconns is the generator's HTTP connection count.
	nconns = 2
	// warmBatch is the batch size set-up warms windows with.
	warmBatch = 256
	// latencyWindow and rateWindow (seconds) split the open- and
	// closed-loop phases; latency is the median of the windows' quantiles
	// and the closed-loop rate the upper quartile of the windows' rates, so
	// a few seconds in which other processes took the machine do not move
	// the figures.
	latencyWindow = 1.0
	rateWindow    = 0.25
)

type options struct {
	root, out string
	workload  string
	seed      uint64
	seconds   int
	trace     int
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
	Base    string  `json:"-"` // what the sample count or ratio is taken over
}

// result is the run's outcome; the final stdout line is its JSON form.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.root, "root", ".", "root of the tkcm source tree")
	flag.StringVar(&o.out, "out", ".bench_build", "build and scratch directory (holds bin/tkcm-serve)")
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "open-loop phase length in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = report per-layer metrics instead of end-to-end ones")
	flag.Parse()
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed")
		os.Exit(1)
	}
}

// report is everything one run prints.
type report struct {
	prov    map[string]any
	windows map[string][]float64 // per-window figures behind windowed metrics
	all     map[string]metric    // every metric measured
	res     result
	check   checkResult
}

func (r *report) print(w io.Writer) {
	pj, _ := json.Marshal(r.prov)
	fmt.Fprintf(w, "provenance %s\n", pj)
	names := make([]string, 0, len(r.all))
	for n := range r.all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.all[n]
		extra := ""
		if m.Samples > 0 {
			extra = fmt.Sprintf("  n=%d", m.Samples)
		}
		if m.Base != "" {
			extra += fmt.Sprintf("  (%s)", m.Base)
		}
		fmt.Fprintf(w, "metric %-34s %14.6g %-8s%s\n", n, m.Value, m.Unit, extra)
	}
	fmt.Fprintf(w, "check rows=%d compared=%d duplicate_only=%d errors=%d\n", r.check.rows, r.check.compared, r.check.dupOnly, len(r.check.errs))
	for _, e := range r.check.errs {
		fmt.Fprintf(w, "check error: %s\n", e)
	}
	line, _ := json.Marshal(r.res)
	fmt.Fprintf(w, "%s\n", line)
}

// run is one benchmark invocation; the server is always stopped on return.
func run(o options) (*report, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	bin := filepath.Join(o.out, "bin", "tkcm-serve")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("tkcm-serve binary: %w (run through run.sh)", err)
	}
	runDir, err := filepath.Abs(filepath.Join(o.out, "runs", fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	conns := []*conn{newConn(), newConn()}
	m := map[string]metric{} // every metric measured; the final line picks some
	began := time.Now()
	progress := func(what string) {
		fmt.Fprintf(os.Stderr, "perfbench: %-10s done at %6.2fs\n", what, time.Since(began).Seconds())
	}
	closedFor := time.Duration(max(3, o.seconds/3)) * time.Second

	// Set-up, several times from scratch; the last server is measured.
	var setups []float64
	var srv *serverProc
	var ts []*tenant
	var dir string
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	setupStart := time.Now()
	for i := 0; ; i++ {
		dir = filepath.Join(runDir, fmt.Sprintf("setup%d", i))
		s, tenants, secs, err := setup(ctx, w, o.seed, bin, dir, nproc, conns)
		if s != nil {
			srv = s
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, secs)
		ts = tenants
		if i+1 >= maxSetups || (i+1 >= minSetups && time.Since(setupStart) >= setupBudget) {
			break
		}
		srv.kill()
		srv = nil
		for _, c := range conns {
			c.closeIdle()
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	progress("set-up")
	api := conns[0].api(srv.base)

	// Open-loop phase, bracketed by /metrics scrapes and CPU readings taken
	// while the connections are idle.
	before, err := scrapeMetrics(ctx, api)
	if err != nil {
		return nil, err
	}
	dials := func() int64 { return conns[0].dials.Load() + conns[1].dials.Load() }
	dials0 := dials()
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(time.Duration(o.seconds) * time.Second)
	open := newPhase(start)
	drive(ctx, w, o.seed, conns, srv.base, ts, w.rate, start, end, open)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	reconnects := dials() - dials0
	after, err := scrapeMetrics(ctx, api)
	if err != nil {
		return nil, err
	}
	progress("open loop")

	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Crash and recovery on the same directories, right after the open
	// loop, so the log a restart replays holds exactly the seeded set-up
	// and open-loop rows.
	srv.kill()
	srv = nil
	for _, c := range conns {
		c.closeIdle()
	}
	recov := newPhase(time.Now())
	s2, err := startServer(ctx, bin, serverArgs(w, dir, nproc))
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	srv = s2
	recovered := recover1(ctx, w, conns, srv.base, ts, recov)
	recoverySecs := recovered.Sub(srv.started).Seconds()
	restoreLog := srv.restoredLines()
	progress("recovery")

	// Closed-loop phase on the restarted server: the same tenants and input
	// streams, as fast as the connections carry them.
	ccpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	dials1 := dials()
	cstart := time.Now()
	closed := newPhase(cstart)
	drive(ctx, w, o.seed, conns, srv.base, ts, 0, cstart, cstart.Add(closedFor), closed)
	reconnects += dials() - dials1
	ccpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	srv.kill()
	srv = nil
	progress("closed")

	// The output check, off the clock.
	chk := checkOutputs(w, ts)
	progress("check")

	attempted := open.attempted + closed.attempted + recov.attempted
	acked := open.acked + closed.acked + recov.acked
	failed := attempted - acked
	p50s, p99s := open.windows(latencyWindow, 0.50), open.windows(latencyWindow, 0.99)
	base := fmt.Sprintf("median over %d windows of %.0f s; %d rows, %d tenants, open loop at %.0f rows/s; whole-phase p50 %.3f ms, p99 %.3f ms",
		len(p50s), latencyWindow, len(open.lat), w.tenants, w.rate, quantile(open.lat, 0.5), quantile(open.lat, 0.99))
	m["ack_p50_ms"] = metric{Value: median(p50s), Unit: "ms", Samples: len(open.lat), Base: base}
	m["ack_p99_ms"] = metric{Value: median(p99s), Unit: "ms", Samples: len(open.lat), Base: base}
	rates := closed.rates(rateWindow)
	m["max_rows_per_s"] = metric{Value: quantile(rates, 0.75), Unit: "rows/s", Samples: len(rates),
		Base: fmt.Sprintf("upper quartile of %d windows of %.2f s; %d rows acked closed loop over %d connections", len(rates), rateWindow, closed.acked, nconns)}
	m["cpu_us_per_row"] = metric{Value: (cpu1 - cpu0) * 1e6 / float64(max(open.acked, 1)), Unit: "us",
		Base: fmt.Sprintf("%.2f CPU-s of tkcm-serve over %d rows acked open loop", cpu1-cpu0, open.acked)}
	m["cpu_us_per_row_closed"] = metric{Value: (ccpu1 - ccpu0) * 1e6 / float64(max(closed.acked, 1)), Unit: "us",
		Base: fmt.Sprintf("%.2f CPU-s of tkcm-serve over %d rows acked closed loop", ccpu1-ccpu0, closed.acked)}
	m["rss_mb"] = metric{Value: rss, Unit: "MB", Base: "tkcm-serve VmHWM after the open-loop phase"}
	m["failed_frac"] = metric{Value: float64(failed) / float64(max(attempted, 1)), Unit: "ratio",
		Base: fmt.Sprintf("%d of %d rows attempted", failed, attempted)}
	m["acked_frac"] = metric{Value: float64(acked) / float64(max(attempted, 1)), Unit: "ratio",
		Base: fmt.Sprintf("%d of %d rows attempted", acked, attempted)}
	m["setup_s"] = metric{Value: median(setups), Unit: "s",
		Base: fmt.Sprintf("median of %d set-ups: %s", len(setups), fmtFloats(setups))}
	m["recovery_s"] = metric{Value: recoverySecs, Unit: "s",
		Base: fmt.Sprintf("SIGKILL after the open loop, restart, next row acked by all %d tenants", w.tenants)}

	// Generator-side health and server-side attribution.
	layerMetricsFromScrapes(m, before, after, open)
	m["client.duplicate_acks"] = metric{Value: float64(open.dups + closed.dups + recov.dups), Unit: "count", Base: "all phases"}
	m["client.reconnects"] = metric{Value: float64(reconnects), Unit: "count", Base: "connections dialed during the open- and closed-loop phases"}
	m["loadgen.late_ms_p99"] = metric{Value: quantile(open.late, 0.99), Unit: "ms", Samples: len(open.late), Base: "generator send time minus due time, open loop"}
	if o.trace == 1 {
		if err := traceLayers(w, o.seed, ts, runDir, o.out, m); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		progress("trace")
	}

	if len(chk.errs) > 0 {
		chk.restoreLog = restoreLog
	}
	rep := &report{all: m, check: chk, prov: provenance(o, w, nproc, closedFor), windows: map[string][]float64{
		"ack_p50_ms": p50s, "ack_p99_ms": p99s, "max_rows_per_s": rates}}
	rep.res = result{Correct: len(chk.errs) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, n := range reportedMetrics(o.trace == 1) {
		v, ok := m[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		rep.res.Metrics[n] = v
	}
	if err := writeReport(o, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// reportedMetrics are the final line's metric names: the gated end-to-end
// metrics, or with --trace 1 the per-layer metrics plus the end-to-end
// figures that move with the machine's load and so are not gated.
func reportedMetrics(trace bool) []string {
	if !trace {
		return []string{"cpu_us_per_row", "rss_mb", "acked_frac", "setup_s"}
	}
	out := []string{
		"wire.parse_ns_per_row", "wire.ack_encode_ns_per_row",
		"core.tick_ns_per_row", "core.imputations_per_row",
		"shard.tick_self_ns_per_row",
		"wal.append_ns_per_row", "wal.sync_ms_mean", "wal.rows_per_sync", "wal.bytes_per_row",
	}
	for _, st := range stageNames() {
		out = append(out, "server."+st+"_ms_mean", "server."+st+"_ms_p99")
	}
	out = append(out, "server.e2e_ms_p99", "server.unattributed_ms_mean",
		"shard.hydrate_ms_mean", "shard.hydrate_ms_p99", "shard.hydrations_per_krow", "shard.evictions_per_krow",
		"shard.resident_hit_ratio", "shard.backpressure_per_krow",
		"core.restore_ms", "core.snapshot_ms", "core.snapshot_bytes", "core.engine_bytes",
		"wal.replay_tail_ms",
		"client.duplicate_acks", "client.reconnects",
		"loadgen.late_ms_p99", "loadgen.batch_rows_mean",
		"trace.overhead_pct",
		"ack_p50_ms", "ack_p99_ms", "max_rows_per_s", "recovery_s", "failed_frac", "cpu_us_per_row_closed")
	return out
}

func stageNames() []string {
	out := make([]string, obs.NumStages)
	for i := range out {
		out[i] = obs.Stage(i).String()
	}
	return out
}

// setup starts a server in a fresh dir, creates every tenant, warms every
// window with L complete rows and returns once all of them are acked
// (acks are durable; creation already wrote each base checkpoint). The
// server is returned even on error so the caller can stop it.
func setup(ctx context.Context, w spec, seed uint64, bin, dir string, shards int, conns []*conn) (*serverProc, []*tenant, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	s, err := startServer(ctx, bin, serverArgs(w, dir, shards))
	if err != nil {
		return nil, nil, 0, err
	}
	ts := make([]*tenant, w.tenants)
	for i := range ts {
		ts[i] = newTenant(w, seed, i)
	}
	err = perConn(conns, func(c int, cn *conn) error {
		api := cn.api(s.base)
		for i := c; i < len(ts); i += len(conns) {
			if err := api.CreateTenant(ctx, ts[i].id, client.CreateTenantRequest{
				Streams: w.streamNames(), Config: w.clientConfig(), Refs: w.refs(),
			}); err != nil {
				return fmt.Errorf("creating %s: %w", ts[i].id, err)
			}
		}
		return nil
	})
	if err == nil && !w.posts {
		err = placeOnShards(ctx, conns[0].api(s.base), ts, shards)
	}
	if err != nil {
		return s, nil, 0, err
	}
	err = perConn(conns, func(c int, cn *conn) error {
		for i := c; i < len(ts); i += len(conns) {
			if w.posts {
				p := &poster{c: cn, base: s.base}
				for sent := 0; sent < w.L; sent += warmBatch {
					if _, _, err := p.post(ctx, ts[i], min(warmBatch, w.L-sent)); err != nil {
						return err
					}
				}
			} else if err := runStream(ctx, cn.api(s.base), ts[i], streamOptions(warmBatch), 0, time.Now(), time.Now().Add(time.Hour), w.L, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return s, nil, 0, err
	}
	return s, ts, time.Since(s.started).Seconds(), nil
}

// placeOnShards pins tenant i to shard i mod shards and verifies the
// placement through the routing document.
func placeOnShards(ctx context.Context, api *client.Client, ts []*tenant, shards int) error {
	for i, t := range ts {
		if _, err := api.MigrateTenant(ctx, t.id, i%shards); err != nil {
			return fmt.Errorf("placing %s: %w", t.id, err)
		}
	}
	rt, err := api.Routing(ctx)
	if err != nil {
		return err
	}
	for i, t := range ts {
		got, ok := rt.Assignments[t.id]
		if !ok {
			info, err := api.GetTenant(ctx, t.id)
			if err != nil {
				return err
			}
			got = info.Shard
		}
		if got != i%shards {
			return fmt.Errorf("tenant %s routes to shard %d, want %d", t.id, got, i%shards)
		}
	}
	return nil
}

// perConn runs fn once per connection, concurrently, and joins the errors.
func perConn(conns []*conn, fn func(c int, cn *conn) error) error {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for c, cn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(c, cn)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// provenance identifies what was measured and how.
func provenance(o options, w spec, nproc int, closedFor time.Duration) map[string]any {
	p := map[string]any{
		"workload": w.name, "seed": o.seed, "trace": o.trace,
		"nproc": nproc, "go": runtime.Version(),
		"open_loop_seconds": o.seconds, "closed_loop_seconds": closedFor.Seconds(),
		"offered_rows_per_s": w.rate, "connections": nconns, "min_setups": minSetups,
		"source_sha256": treeHash(o.root, o.out),
	}
	if _, err := os.Stat(filepath.Join(o.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
			p["commit"] = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "-C", o.root, "status", "--porcelain").Output(); err == nil {
			p["dirty"] = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return p
}

// treeHash digests every regular file under root except the .git and build
// directories, so a checkout without git history still names its source.
func treeHash(root, out string) string {
	h := sha256.New()
	absOut, _ := filepath.Abs(out)
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			abs, _ := filepath.Abs(path)
			if d.Name() == ".git" || abs == absOut {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// writeReport keeps the full report, provenance included, next to the build.
func writeReport(o options, rep *report) error {
	dir := filepath.Join(o.out, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	all := map[string]any{}
	for n, m := range rep.all {
		all[n] = map[string]any{"value": m.Value, "unit": m.Unit, "samples": m.Samples, "base": m.Base}
	}
	raw, err := json.MarshalIndent(map[string]any{
		"provenance": rep.prov, "metrics": all, "windows": rep.windows, "result": rep.res,
		"check": map[string]any{"rows": rep.check.rows, "compared": rep.check.compared, "duplicate_only": rep.check.dupOnly,
			"errors": rep.check.errs, "restart_restore_log": rep.check.restoreLog},
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace)), raw, 0o644)
}

func fmtFloats(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}
