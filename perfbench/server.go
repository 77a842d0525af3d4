package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tkcm/client"
	"tkcm/internal/obs"
)

// clockTicksPerSec is USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicksPerSec = 100

// serverProc is one tkcm-serve process started by the benchmark.
type serverProc struct {
	cmd     *exec.Cmd
	base    string    // http://host:port once ready
	started time.Time // just before exec
	exited  chan struct{}

	mu       sync.Mutex
	tail     []string // last stderr lines, for error reports
	restored []string // "tenant restored" lines: checkpoint ticks and WAL rows replayed
}

// startServer execs bin with args plus a loopback listen address on a free
// port, and returns once the server logs that it is listening.
func startServer(ctx context.Context, bin string, args []string) (*serverProc, error) {
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	// The server dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, exited: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "tkcm-serve listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						select {
						case addr <- a:
						default:
						}
					}
				}
			}
			p.mu.Lock()
			if strings.Contains(line, "tenant restored") {
				p.restored = append(p.restored, line)
			}
			p.tail = append(p.tail, line)
			if len(p.tail) > 40 {
				p.tail = p.tail[len(p.tail)-40:]
			}
			p.mu.Unlock()
		}
		// Wait only after stderr is drained: Wait closes the pipe.
		_ = cmd.Wait()
		close(p.exited)
	}()
	timeout := time.NewTimer(90 * time.Second)
	defer timeout.Stop()
	select {
	case a := <-addr:
		p.base = "http://" + a
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("tkcm-serve exited before listening: %s", p.stderrTail())
	case <-timeout.C:
	case <-ctx.Done():
	}
	p.kill()
	return nil, fmt.Errorf("tkcm-serve did not start listening: %s", p.stderrTail())
}

func (p *serverProc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// kill SIGKILLs the server and waits for it to exit.
func (p *serverProc) kill() {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.exited
}

// cpuSeconds is the process's user plus system CPU time so far.
func (p *serverProc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14, utime
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15, stime
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicksPerSec, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// serverArgs are the flags every workload's server runs with: one shard per
// CPU, real checkpoint and WAL directories, and the default group commit.
func serverArgs(w spec, dir string, shards int) []string {
	args := []string{
		"-shards", strconv.Itoa(shards),
		"-checkpoint-dir", filepath.Join(dir, "ck"),
		"-wal-dir", filepath.Join(dir, "wal"),
	}
	if w.resident > 0 {
		args = append(args, "-resident-engines", strconv.Itoa(w.resident))
	}
	if w.ckEvery > 0 {
		args = append(args, "-checkpoint-every", w.ckEvery.String())
	}
	return args
}

// scrape is one parsed /metrics exposition.
type scrape struct{ *obs.Scrape }

// value sums every series of a counter or gauge.
func (s scrape) value(name string) float64 {
	t := 0.0
	for _, sm := range s.Samples {
		if sm.Name == name {
			t += sm.Value
		}
	}
	return t
}

// histogram is one histogram family summed over its matching series.
type histogram struct {
	les   []float64
	cums  []uint64
	sum   float64
	count float64
}

// hist sums one histogram family's series matching match (nil = all).
func (s scrape) hist(family string, match map[string]string) histogram {
	byLE := map[float64]uint64{}
	var h histogram
	for _, sm := range s.Samples {
		ok := true
		for k, v := range match {
			if sm.LabelMap[k] != v {
				ok = false
			}
		}
		if !ok {
			continue
		}
		switch sm.Name {
		case family + "_bucket":
			le, err := strconv.ParseFloat(sm.LabelMap["le"], 64)
			if sm.LabelMap["le"] == "+Inf" {
				le, err = math.Inf(1), nil
			}
			if err == nil {
				byLE[le] += uint64(sm.Value)
			}
		case family + "_sum":
			h.sum += sm.Value
		case family + "_count":
			h.count += sm.Value
		}
	}
	for le := range byLE {
		h.les = append(h.les, le)
	}
	sort.Float64s(h.les)
	for _, le := range h.les {
		h.cums = append(h.cums, byLE[le])
	}
	return h
}

// minus is the histogram of the observations between two scrapes.
func (h histogram) minus(before histogram) histogram {
	out := histogram{les: h.les, cums: make([]uint64, len(h.cums)), sum: h.sum - before.sum, count: h.count - before.count}
	for i, c := range h.cums {
		out.cums[i] = c
		if i < len(before.cums) {
			out.cums[i] = c - before.cums[i]
		}
	}
	return out
}

func (h histogram) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}

func (h histogram) quantile(q float64) float64 {
	if h.count <= 0 || len(h.les) == 0 {
		return 0
	}
	return obs.Quantile(q, h.les, h.cums)
}

func (p *serverProc) restoredLines() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.restored...)
}

func scrapeMetrics(ctx context.Context, api *client.Client) (scrape, error) {
	text, err := api.Metrics(ctx)
	if err != nil {
		return scrape{}, fmt.Errorf("scraping /metrics: %w", err)
	}
	s, err := obs.ParseProm(text)
	if err != nil {
		return scrape{}, fmt.Errorf("parsing /metrics: %w", err)
	}
	return scrape{s}, nil
}

// layerMetricsFromScrapes derives the server-side per-layer metrics from
// the counter and histogram deltas across the open-loop phase.
func layerMetricsFromScrapes(m map[string]metric, before, after scrape, open *phase) {
	d := func(name string) float64 { return after.value(name) - before.value(name) }
	rows := d("tkcm_ticks_total")
	lines := after.hist("tkcm_ack_seconds", nil).minus(before.hist("tkcm_ack_seconds", nil))
	rowBase := fmt.Sprintf("%.0f rows, %.0f tick lines ingested during the open loop", rows, lines.count)
	perKrow := func(v float64) float64 { return v * 1000 / math.Max(rows, 1) }
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	syncs := d("tkcm_wal_syncs_total")
	m["wal.rows_per_sync"] = metric{Value: ratio(rows, syncs), Unit: "rows", Base: fmt.Sprintf("%.0f rows over %.0f group commits", rows, syncs)}
	m["wal.bytes_per_row"] = metric{Value: ratio(d("tkcm_wal_bytes_total"), rows), Unit: "B", Base: fmt.Sprintf("%.0f WAL bytes over %.0f rows", d("tkcm_wal_bytes_total"), rows)}
	m["loadgen.batch_rows_mean"] = metric{Value: ratio(d("tkcm_tick_rows_total"), lines.count), Unit: "rows", Base: rowBase}
	stageSum := 0.0
	for _, st := range stageNames() {
		h := after.hist("tkcm_tick_stage_seconds", map[string]string{"stage": st}).minus(before.hist("tkcm_tick_stage_seconds", map[string]string{"stage": st}))
		stageSum += h.mean() * 1e3
		b := fmt.Sprintf("%.0f tick lines", h.count)
		m["server."+st+"_ms_mean"] = metric{Value: h.mean() * 1e3, Unit: "ms", Samples: int(h.count), Base: b}
		m["server."+st+"_ms_p99"] = metric{Value: h.quantile(0.99) * 1e3, Unit: "ms", Samples: int(h.count), Base: b}
	}
	m["server.e2e_ms_p99"] = metric{Value: lines.quantile(0.99) * 1e3, Unit: "ms", Samples: int(lines.count), Base: fmt.Sprintf("%.0f tick lines, wire decode to ack write", lines.count)}
	m["server.unattributed_ms_mean"] = metric{Value: mean(open.lat) - stageSum, Unit: "ms",
		Base: fmt.Sprintf("client mean from due time over %d rows minus the sum of the server stage means per line", len(open.lat))}
	hyd := after.hist("tkcm_hydration_seconds", nil).minus(before.hist("tkcm_hydration_seconds", nil))
	hb := fmt.Sprintf("%.0f hydrations", hyd.count)
	m["shard.hydrate_ms_mean"] = metric{Value: hyd.mean() * 1e3, Unit: "ms", Samples: int(hyd.count), Base: hb}
	m["shard.hydrate_ms_p99"] = metric{Value: hyd.quantile(0.99) * 1e3, Unit: "ms", Samples: int(hyd.count), Base: hb}
	m["shard.hydrations_per_krow"] = metric{Value: perKrow(d("tkcm_engine_hydrations_total")), Unit: "count", Base: rowBase}
	m["shard.evictions_per_krow"] = metric{Value: perKrow(d("tkcm_engine_evictions_total")), Unit: "count", Base: rowBase}
	m["shard.backpressure_per_krow"] = metric{Value: perKrow(d("tkcm_shard_backpressure_total")), Unit: "count", Base: rowBase}
	m["shard.resident_hit_ratio"] = metric{Value: 1 - ratio(d("tkcm_engine_hydrations_total"), lines.count), Unit: "ratio",
		Base: fmt.Sprintf("tick lines that found their engine resident, of %.0f", lines.count)}
}
