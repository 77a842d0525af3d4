package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tkcm"
	"tkcm/internal/wire"
)

// inputBytes encodes the first n rows of every tenant of w under seed, plus
// the open-loop request schedule, as the bytes the generator would send.
func inputBytes(w spec, seed uint64, n int) []byte {
	var out []byte
	for i := 0; i < min(w.tenants, 3); i++ {
		t := newTenant(w, seed, i)
		seq, rows := t.nextRows(n)
		out = appendBatchLine(out, seq, rows)
	}
	if w.posts {
		start := time.Unix(0, 0)
		for c, evs := range postSchedule(w, seed, start, start.Add(2*time.Second), nconns) {
			for _, ev := range evs {
				out = fmt.Appendf(out, "%d %d %d\n", c, ev.due.UnixNano(), ev.tenant)
			}
		}
	}
	return out
}

func TestInputsDependOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		n := w.L + 2000
		a, b := inputBytes(w, 7, n), inputBytes(w, 7, n)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed produced different inputs", w.name)
		}
		if bytes.Equal(a, inputBytes(w, 8, n)) {
			t.Errorf("%s: seeds 7 and 8 produced identical inputs", w.name)
		}
		if !bytes.Contains(a, []byte("null")) {
			t.Errorf("%s: no missing values in %d rows", w.name, n)
		}
	}
}

// smallSpec is a quick shape for tests of the harness itself.
var smallSpec = spec{
	name: "small", tenants: 2, width: 4, L: 64, l: 4, k: 2, d: 2, period: 16,
	targets: 1, missing: 0.2, batch: 1,
}

// servedCorrectly builds tenants whose acks are exactly what a correct
// server answers: the reference engine's outputs.
func servedCorrectly(t *testing.T, w spec, rows int) []*tenant {
	t.Helper()
	var ts []*tenant
	for i := 0; i < w.tenants; i++ {
		tn := newTenant(w, 3, i)
		eng, err := tkcm.NewEngine(w.engineConfig(), w.streamNames(), w.engineRefs())
		if err != nil {
			t.Fatal(err)
		}
		seq, rs := tn.nextRows(rows)
		for j, row := range rs {
			out, _, err := eng.Tick(row)
			if err != nil {
				t.Fatal(err)
			}
			var imp []int
			for c, v := range row {
				if math.IsNaN(v) {
					imp = append(imp, c)
				}
			}
			if err := tn.record(seq+uint64(j), append([]float64(nil), out...), imp, false); err != nil {
				t.Fatal(err)
			}
		}
		eng.Close()
		ts = append(ts, tn)
	}
	return ts
}

func TestOutputCheck(t *testing.T) {
	if res := checkOutputs(smallSpec, servedCorrectly(t, smallSpec, 300)); len(res.errs) != 0 || res.compared != 600 {
		t.Fatalf("correct acks: compared %d, errors %v", res.compared, res.errs)
	}

	// One imputed value off by one ulp must fail the check.
	ts := servedCorrectly(t, smallSpec, 300)
	doctored := false
	for i := range ts[1].acks {
		a := &ts[1].acks[i]
		if len(a.imputed) > 0 {
			c := a.imputed[0]
			a.values[c] = math.Nextafter(a.values[c], math.Inf(1))
			doctored = true
			break
		}
	}
	if !doctored {
		t.Fatal("no imputed value to doctor")
	}
	if res := checkOutputs(smallSpec, ts); len(res.errs) != 1 || !strings.Contains(res.errs[0], "column 0") {
		t.Fatalf("doctored imputed value: errors %v", res.errs)
	}

	// A row never acked, and a row applied twice, must fail it too.
	ts = servedCorrectly(t, smallSpec, 300)
	ts[0].acks[100] = ackRec{}
	if res := checkOutputs(smallSpec, ts); len(res.errs) == 0 {
		t.Fatal("a lost ack passed the check")
	}
	ts = servedCorrectly(t, smallSpec, 300)
	ts[0].acks[10].fresh = 2
	if res := checkOutputs(smallSpec, ts); len(res.errs) == 0 {
		t.Fatal("a row acked twice as applied passed the check")
	}

	// Rows after a counted failure are not required to be acked.
	ts = servedCorrectly(t, smallSpec, 300)
	ts[0].acks = ts[0].acks[:200]
	ts[0].broken = fmt.Errorf("stream broke")
	if res := checkOutputs(smallSpec, ts); len(res.errs) != 0 {
		t.Fatalf("failed tenant: errors %v", res.errs)
	}
}

// stallServer is a fake tkcm-serve that acks every row at once, except that
// it stops reading for stall once the row with seq stallAt arrives.
func stallServer(t *testing.T, stallAt uint64, stall time.Duration) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tenants/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":%q,"shard":0,"streams":["a"],"ticks":0,"seq":0}`, r.PathValue("id"))
	})
	mux.HandleFunc("POST /v1/tenants/{id}/ticks", func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		if err := rc.EnableFullDuplex(); err != nil {
			t.Error(err)
			return
		}
		w.WriteHeader(http.StatusOK)
		sc := bufio.NewScanner(r.Body)
		var in wire.TickIn
		var buf []byte
		stalled := false
		for sc.Scan() {
			if !wire.ParseTickIn(sc.Bytes(), &in) {
				t.Errorf("fake server: bad line %q", sc.Text())
				return
			}
			rows := in.Rows
			if in.HasValues {
				rows = [][]float64{in.Values}
			}
			for i, row := range rows {
				seq := in.Seq + uint64(i)
				if seq >= stallAt && !stalled {
					stalled = true
					time.Sleep(stall)
				}
				buf, _ = wire.AppendAck(buf[:0], int(seq), seq, row, nil, false)
				if _, err := w.Write(buf); err != nil {
					return
				}
			}
			_ = rc.Flush()
		}
	})
	return httptest.NewServer(mux)
}

func TestStallRaisesOpenLoopLatency(t *testing.T) {
	const (
		rate     = 500.0 // rows per second
		dur      = time.Second
		stallAt  = 200 // due 400 ms into the run
		stall    = 200 * time.Millisecond
		inflight = 16 // small, so the generator itself blocks in the stall
	)
	srv := stallServer(t, stallAt, stall)
	defer srv.Close()
	w := spec{name: "fake", tenants: 1, width: 1, L: 1, period: 10, batch: 1}
	tn := newTenant(w, 1, 0)
	cn := newConn()
	opts := streamOptions(1)
	opts.MaxInFlight = inflight
	start := time.Now().Add(10 * time.Millisecond)
	ph := newPhase(start)
	if err := runStream(context.Background(), cn.api(srv.URL), tn, opts, rate, start, start.Add(dur), 0, ph); err != nil {
		t.Fatal(err)
	}
	// The schedule does not bend to the stall: every row due was sent, the
	// ones due while the generator was blocked as soon as it could.
	if want := int(rate * dur.Seconds()); ph.attempted != want || ph.acked != want {
		t.Fatalf("attempted %d, acked %d, want %d each", ph.attempted, ph.acked, want)
	}
	// Rows due during the stall wait for its end, and the wait is charged
	// to each of them from its due time — including the rows the blocked
	// generator could only send after the stall — so latency falls off
	// linearly across the stall.
	perRow := float64(time.Second) / rate
	for i := stallAt; i < stallAt+int(stall/time.Duration(perRow)); i++ {
		waited := float64(stall) - float64(i-stallAt)*perRow
		if got := ph.lat[i] * 1e6; got < waited-20e6 {
			t.Errorf("row %d due %.0f ms into the stall: latency %.1f ms, want ≥ %.1f ms",
				i, float64(i-stallAt)*perRow/1e6, ph.lat[i], (waited-20e6)/1e6)
		}
	}
	if med := median(ph.lat[:stallAt-10]); med > 20 {
		t.Errorf("median latency before the stall %.1f ms, want a few ms", med)
	}
	if late := quantile(ph.late, 0.99); late < float64(stall)/1e6/2 {
		t.Errorf("generator lateness p99 %.1f ms does not show it blocked in the stall", late)
	}
}
