package main

import (
	"fmt"
	"math"

	"tkcm"
)

// checkResult summarises the output check of one run.
type checkResult struct {
	rows     int // rows replayed through the reference engines
	compared int // fresh acks compared bit for bit
	dupOnly  int // rows acked only as duplicates (applied before a lost ack)
	errs     []string
	// restoreLog is the restarted server's restore lines, kept when the
	// check fails: which checkpoint each tenant came back from.
	restoreLog []string
}

func (c *checkResult) errorf(format string, args ...any) {
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// checkOutputs replays every row each tenant sent through an in-process
// tkcm.Engine with the tenant's configuration and references, and compares
// each acked row with the engine's output. It runs after the timed phases.
//
// Every row sent must have been acked, exactly once as a fresh ack, unless
// it was counted as failed: for a tenant whose traffic failed, the replay
// stops at the first row without an ack, since the server's state beyond it
// is unknown. A fresh ack must match the reference bit for bit, and list
// exactly the missing indices as imputed.
func checkOutputs(w spec, ts []*tenant) checkResult {
	var res checkResult
	cfg, names, refs := w.engineConfig(), w.streamNames(), w.engineRefs()
	for _, t := range ts {
		eng, err := tkcm.NewEngine(cfg, names, refs)
		if err != nil {
			res.errorf("reference engine: %v", err)
			return res
		}
		checkTenant(eng, t, &res)
		eng.Close()
	}
	return res
}

func checkTenant(eng *tkcm.Engine, t *tenant, res *checkResult) {
	broken := t.broken != nil
	for i, row := range t.rows {
		var a ackRec
		if i < len(t.acks) {
			a = t.acks[i]
		}
		seq := i + 1
		if a.fresh+a.dup == 0 {
			if !broken {
				res.errorf("tenant %s: seq %d was never acked", t.id, seq)
			}
			return
		}
		if a.fresh > 1 {
			res.errorf("tenant %s: seq %d acked %d times as applied", t.id, seq, a.fresh)
		}
		out, _, err := eng.Tick(row)
		if err != nil {
			res.errorf("tenant %s: reference tick %d: %v", t.id, seq, err)
			return
		}
		res.rows++
		if a.fresh == 0 {
			res.dupOnly++
			continue
		}
		res.compared++
		if len(a.values) != len(out) {
			res.errorf("tenant %s: seq %d: %d values, reference has %d", t.id, seq, len(a.values), len(out))
			continue
		}
		for c, v := range out {
			if math.Float64bits(v) != math.Float64bits(a.values[c]) {
				res.errorf("tenant %s: seq %d column %d: served %v, reference %v", t.id, seq, c, a.values[c], v)
				break
			}
		}
		var want []int
		for c, v := range row {
			if math.IsNaN(v) {
				want = append(want, c)
			}
		}
		if !equalInts(want, a.imputed) {
			res.errorf("tenant %s: seq %d: imputed %v, want %v", t.id, seq, a.imputed, want)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
