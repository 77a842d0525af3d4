package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tkcm/client"
	"tkcm/internal/wire"
)

// streamInFlight bounds a stream's unacknowledged rows. It is large enough
// that an open-loop sender at the workloads' rates never blocks on it
// while the server keeps up, so a stall shows as latency, not as a lower
// offered rate.
const streamInFlight = 4096

// tenant is one tenant's generator and everything the benchmark recorded
// about it: every row sent (rows[seq-1]) and every ack received.
type tenant struct {
	id  string
	gen *rowGen

	mu     sync.Mutex
	rows   [][]float64
	acks   []ackRec
	broken error // first failure; the tenant sends nothing after it
}

// ackRec collects the acks received for one sequence number.
type ackRec struct {
	values  []float64
	imputed []int
	fresh   int // non-duplicate acks
	dup     int // duplicate acks (the row was replayed after being applied)
}

func newTenant(w spec, seed uint64, i int) *tenant {
	return &tenant{id: w.tenantID(i), gen: newRowGen(w, seed, i)}
}

// nextRows generates n rows and returns them with the seq of the first.
func (t *tenant) nextRows(n int) (uint64, [][]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	seq := uint64(len(t.rows)) + 1
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, t.gen.w.width)
		t.gen.next(out[i])
	}
	t.rows = append(t.rows, out...)
	return seq, out
}

// record stores one ack. Values and imputed must not be reused by the caller.
func (t *tenant) record(seq uint64, values []float64, imputed []int, dup bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq == 0 || seq > uint64(len(t.rows)) {
		return fmt.Errorf("tenant %s: ack for seq %d, but only %d rows were sent", t.id, seq, len(t.rows))
	}
	for len(t.acks) < len(t.rows) {
		t.acks = append(t.acks, ackRec{})
	}
	r := &t.acks[seq-1]
	if dup {
		r.dup++
		return nil
	}
	r.fresh++
	r.values, r.imputed = values, imputed
	return nil
}

func (t *tenant) fail(err error) {
	t.mu.Lock()
	if t.broken == nil {
		t.broken = err
	}
	t.mu.Unlock()
}

func (t *tenant) failed() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.broken
}

// phase accumulates one measured phase across tenants and connections.
type phase struct {
	mu        sync.Mutex
	lat       []float64 // ms from each acked row's due time to its ack
	due       []float64 // s from the phase start to each acked row's due time
	late      []float64 // ms each row was sent after its due time
	attempted int
	acked     int
	dups      int
	start     time.Time
	lastAck   time.Time
}

func newPhase(start time.Time) *phase { return &phase{start: start, lastAck: start} }

func (p *phase) sent(late time.Duration, n int) {
	p.mu.Lock()
	p.attempted += n
	for i := 0; i < n; i++ {
		p.late = append(p.late, float64(late)/1e6)
	}
	p.mu.Unlock()
}

func (p *phase) ack(lat time.Duration, at time.Time, dup bool) {
	p.mu.Lock()
	p.due = append(p.due, at.Add(-lat).Sub(p.start).Seconds())
	p.acked++
	if dup {
		p.dups++
	}
	p.lat = append(p.lat, float64(lat)/1e6)
	if at.After(p.lastAck) {
		p.lastAck = at
	}
	p.mu.Unlock()
}

// windows splits the acked rows into consecutive windows of width seconds
// by due time and returns each non-empty window's q-quantile latency.
func (p *phase) windows(width, q float64) []float64 {
	var buckets [][]float64
	for i, d := range p.due {
		k := int(math.Max(d, 0) / width)
		for len(buckets) <= k {
			buckets = append(buckets, nil)
		}
		buckets[k] = append(buckets[k], p.lat[i])
	}
	var out []float64
	for _, b := range buckets {
		if len(b) > 0 {
			out = append(out, quantile(b, q))
		}
	}
	return out
}

// rates splits the phase into windows of width seconds by ack time and
// returns each full window's acked rows per second.
func (p *phase) rates(width float64) []float64 {
	var n []int
	for i, d := range p.due {
		k := int(math.Max(d+p.lat[i]/1e3, 0) / width)
		for len(n) <= k {
			n = append(n, 0)
		}
		n[k]++
	}
	var out []float64
	for k, c := range n {
		if float64(k+1)*width <= p.lastAck.Sub(p.start).Seconds() {
			out = append(out, float64(c)/width)
		}
	}
	return out
}

// conn is one of the generator's HTTP connections. Its transport keeps at
// most one connection open, so the generator's connection count is the
// number of conns.
type conn struct {
	hc    *http.Client
	dials atomic.Int64
}

func newConn() *conn {
	c := &conn{}
	d := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	c.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}}
	return c
}

func (c *conn) api(base string) *client.Client { return client.New(base, client.WithHTTPClient(c.hc)) }

func (c *conn) closeIdle() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// sleepUntil sleeps until t or ctx ends.
func sleepUntil(ctx context.Context, t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
	case <-ctx.Done():
	}
}

// streamOptions are the options of every stream the generator opens.
func streamOptions(batch int) client.StreamOptions {
	return client.StreamOptions{Sequenced: true, Batch: batch, MaxInFlight: streamInFlight, MaxAttempts: 8}
}

// runStream drives one tenant over one sequenced tick stream until end (or
// limit rows, when limit > 0). With rate > 0 it is open-loop: row i is due
// at start + i/rate whatever happened to earlier rows, and its latency runs
// from that due time, so a stall is charged to every row queued behind it.
// With rate 0 it is closed-loop: each row is due when the stream accepts
// it. ph may be nil for unmeasured traffic.
func runStream(ctx context.Context, api *client.Client, t *tenant, opts client.StreamOptions, rate float64, start, end time.Time, limit int, ph *phase) error {
	// Open-loop rows the stream cannot send still count as attempted: the
	// schedule wanted them sent.
	unsent := func(from int) {
		if ph != nil && rate > 0 {
			ph.sent(0, max(int(math.Ceil(end.Sub(start).Seconds()*rate))-from, 0))
		}
	}
	if err := t.failed(); err != nil {
		unsent(0)
		return nil
	}
	st, err := api.OpenStream(ctx, t.id, opts)
	if err != nil {
		unsent(0)
		t.fail(err)
		return err
	}
	// Acks arrive in send order; dues carries each accepted row's due time
	// to the receiver. Its capacity exceeds the in-flight bound, so the
	// sender never blocks on it.
	dues := make(chan time.Time, opts.MaxInFlight+1)
	recvDone := make(chan error, 1)
	go func() {
		for {
			a, err := st.Recv(ctx)
			if err == io.EOF {
				recvDone <- nil
				return
			}
			if err != nil {
				recvDone <- err
				return
			}
			var due time.Time
			select {
			case due = <-dues:
			case <-ctx.Done():
				recvDone <- ctx.Err()
				return
			}
			now := time.Now()
			if err := t.record(a.Seq, a.Values, a.Imputed, a.Duplicate); err != nil {
				recvDone <- err
				return
			}
			if ph != nil {
				ph.ack(now.Sub(due), now, a.Duplicate)
			}
		}
	}()
	var sendErr error
	interval := 0.0
	if rate > 0 {
		interval = float64(time.Second) / rate
	}
	for i := 0; limit == 0 || i < limit; i++ {
		var due time.Time
		if rate > 0 {
			due = start.Add(time.Duration(float64(i) * interval))
			if !due.Before(end) {
				break
			}
			sleepUntil(ctx, due)
		} else {
			due = time.Now()
			if !due.Before(end) {
				break
			}
		}
		_, rows := t.nextRows(1)
		late := time.Since(due)
		if ph != nil {
			ph.sent(late, 1)
		}
		if sendErr = st.Send(ctx, rows[0]); sendErr != nil {
			unsent(i + 1)
			break
		}
		dues <- due
	}
	cerr := st.Close()
	rerr := <-recvDone
	if err := errors.Join(sendErr, cerr, rerr); err != nil {
		t.fail(err)
		return fmt.Errorf("tenant %s: %w", t.id, err)
	}
	return nil
}

// poster sends one sequenced batch line per plain HTTP POST.
type poster struct {
	c    *conn
	base string
	buf  []byte
	wa   wire.Ack
}

// post generates n rows for t, sends them as one batch line and records
// the acks. It returns the rows acked and how many of those were duplicates.
func (p *poster) post(ctx context.Context, t *tenant, n int) (acked, dups int, err error) {
	if err := t.failed(); err != nil {
		return 0, 0, err
	}
	seq, rows := t.nextRows(n)
	p.buf = appendBatchLine(p.buf[:0], seq, rows)
	acked, dups, err = p.send(ctx, t, seq, n)
	if err != nil {
		t.fail(err)
	}
	return acked, dups, err
}

func (p *poster) send(ctx context.Context, t *tenant, seq uint64, n int) (acked, dups int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+"/v1/tenants/"+url.PathEscape(t.id)+"/ticks", bytes.NewReader(p.buf))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := p.c.hc.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("tenant %s: %w", t.id, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !wire.ParseAck(line, &p.wa) {
			var e struct {
				Error string `json:"error"`
			}
			_ = json.Unmarshal(line, &e)
			return acked, dups, fmt.Errorf("tenant %s: status %d: %s", t.id, resp.StatusCode, e.Error)
		}
		if want := seq + uint64(acked); p.wa.Seq != want {
			return acked, dups, fmt.Errorf("tenant %s: ack seq %d, want %d", t.id, p.wa.Seq, want)
		}
		vals := append([]float64(nil), p.wa.Values...)
		imp := append([]int(nil), p.wa.Imputed...)
		if err := t.record(p.wa.Seq, vals, imp, p.wa.Duplicate); err != nil {
			return acked, dups, err
		}
		acked++
		if p.wa.Duplicate {
			dups++
		}
	}
	if err := sc.Err(); err != nil {
		return acked, dups, fmt.Errorf("tenant %s: reading acks: %w", t.id, err)
	}
	if acked != n {
		return acked, dups, fmt.Errorf("tenant %s: %d of %d rows acked (status %d)", t.id, acked, n, resp.StatusCode)
	}
	return acked, dups, nil
}

// postEvent is one scheduled request of a posts workload.
type postEvent struct {
	due    time.Time
	tenant int
}

// runPosts replays one connection's schedule: each request goes out at its
// due time, or as soon as the connection is free when it runs late, and
// each row's latency runs from its request's due time.
func runPosts(ctx context.Context, p *poster, ts []*tenant, events []postEvent, batch int, ph *phase) {
	for _, ev := range events {
		sleepUntil(ctx, ev.due)
		p.postTimed(ctx, ph, ts[ev.tenant], batch, ev.due)
	}
}

// postTimed posts one batch of n rows for t and records it in ph, each
// row's latency running from due.
func (p *poster) postTimed(ctx context.Context, ph *phase, t *tenant, n int, due time.Time) {
	ph.sent(time.Since(due), n)
	acked, dups, _ := p.post(ctx, t, n)
	now := time.Now()
	for i := 0; i < acked; i++ {
		ph.ack(now.Sub(due), now, i < dups)
	}
}

// appendBatchLine encodes a sequenced batch line exactly as the client
// package does: shortest round-tripping floats, null for missing.
func appendBatchLine(dst []byte, seq uint64, rows [][]float64) []byte {
	if len(rows) == 1 {
		dst = append(dst, `{"seq":`...)
		dst = strconv.AppendUint(dst, seq, 10)
		dst = append(dst, `,"values":`...)
		dst = appendValues(dst, rows[0])
		return append(dst, "}\n"...)
	}
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, seq, 10)
	dst = append(dst, `,"rows":[`...)
	for j, row := range rows {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = appendValues(dst, row)
	}
	return append(dst, "]}\n"...)
}

func appendValues(dst []byte, row []float64) []byte {
	dst = append(dst, '[')
	for i, v := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		if math.IsNaN(v) {
			dst = append(dst, "null"...)
		} else {
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
	}
	return append(dst, ']')
}

// drive runs one measured phase: open-loop at rate rows/s between start
// and end, or closed-loop until end when rate is 0. Tenant i uses
// connection i mod nconns. Failures are counted in ph, not returned.
func drive(ctx context.Context, w spec, seed uint64, conns []*conn, base string, ts []*tenant, rate float64, start, end time.Time, ph *phase) {
	if !w.posts {
		var wg sync.WaitGroup
		for i, t := range ts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = runStream(ctx, conns[i%len(conns)].api(base), t, streamOptions(w.batch), rate/float64(len(ts)), start, end, 0, ph)
			}()
		}
		wg.Wait()
		return
	}
	_ = perConn(conns, func(c int, cn *conn) error {
		p := &poster{c: cn, base: base}
		if rate > 0 {
			runPosts(ctx, p, ts, postSchedule(w, seed, start, end, len(conns))[c], w.batch, ph)
			return nil
		}
		// Closed loop: this connection's share of the same Zipf popularity,
		// one request after another.
		z := newZipfPicker(len(ts), w.zipf, rand.New(rand.NewPCG(seed, 1<<32+uint64(c))))
		for time.Now().Before(end) {
			if i := z.pick(); i%len(conns) == c {
				p.postTimed(ctx, ph, ts[i], w.batch, time.Now())
			}
		}
		return nil
	})
}

// postSchedule is the open-loop request schedule of a posts workload, split
// by connection: requests at a fixed interval, each to a Zipf-chosen tenant.
func postSchedule(w spec, seed uint64, start, end time.Time, nc int) [][]postEvent {
	z := newZipfPicker(w.tenants, w.zipf, rand.New(rand.NewPCG(seed, 1<<32)))
	interval := float64(time.Second) * float64(w.batch) / w.rate
	out := make([][]postEvent, nc)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if !due.Before(end) {
			return out
		}
		t := z.pick()
		out[t%nc] = append(out[t%nc], postEvent{due: due, tenant: t})
	}
}

// recover1 sends every tenant its next row (a batch for posts workloads)
// after a restart and returns when the last one is acked.
func recover1(ctx context.Context, w spec, conns []*conn, base string, ts []*tenant, ph *phase) time.Time {
	_ = perConn(conns, func(c int, cn *conn) error {
		p := &poster{c: cn, base: base}
		for i := c; i < len(ts); i += len(conns) {
			if w.posts {
				p.postTimed(ctx, ph, ts[i], w.batch, time.Now())
			} else {
				_ = runStream(ctx, cn.api(base), ts[i], streamOptions(1), 0, time.Now(), time.Now().Add(time.Hour), 1, ph)
			}
		}
		return nil
	})
	return ph.lastAck
}
