package wal

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// collect replays dir from fromSeq into memory.
func collect(t *testing.T, dir string, fromSeq uint64) (seqs []uint64, rows [][]float64) {
	t.Helper()
	_, err := Replay(dir, fromSeq, func(seq uint64, values []float64) error {
		seqs = append(seqs, seq)
		rows = append(rows, append([]float64(nil), values...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, rows
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{1, 2, 3},
		{4, math.NaN(), 6},
		{},
		{7.5},
	}
	var commits []Commit
	for i, row := range want {
		c, err := l.Append(uint64(i+1), row)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		commits = append(commits, c)
	}
	for i, c := range commits {
		if err := c.Wait(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seqs, rows := collect(t, dir, 1)
	if len(rows) != len(want) {
		t.Fatalf("replayed %d rows, want %d", len(rows), len(want))
	}
	for i := range want {
		if seqs[i] != uint64(i+1) {
			t.Fatalf("row %d: seq %d, want %d", i, seqs[i], i+1)
		}
		if len(rows[i]) != len(want[i]) {
			t.Fatalf("row %d: %d values, want %d", i, len(rows[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.IsNaN(want[i][j]) != math.IsNaN(rows[i][j]) ||
				(!math.IsNaN(want[i][j]) && rows[i][j] != want[i][j]) {
				t.Fatalf("row %d value %d: got %v, want %v", i, j, rows[i][j], want[i][j])
			}
		}
	}
}

func TestAppendEnforcesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(5, []float64{1}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("append seq 5 on fresh log: err = %v, want ErrOutOfOrder", err)
	}
	if _, err := l.Append(1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []float64{1}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("duplicate seq: err = %v, want ErrOutOfOrder", err)
	}
	if err := l.SetNextSeq(1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("lowering next seq: err = %v, want ErrOutOfOrder", err)
	}
	if err := l.SetNextSeq(100); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(100, []float64{2}); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := l.Append(uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 11 {
		t.Fatalf("reopened NextSeq = %d, want 11", got)
	}
	if _, err := l.Append(11, []float64{11}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, dir, 1)
	if len(seqs) != 11 || seqs[10] != 11 {
		t.Fatalf("replayed seqs %v, want 1..11", seqs)
	}
}

func TestRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every few records rotate.
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 1; i <= n; i++ {
		if _, err := l.Append(uint64(i), []float64{float64(i), float64(-i)}); err != nil {
			t.Fatal(err)
		}
	}
	if segs := l.Segments(); segs < 3 {
		t.Fatalf("expected multiple segments, got %d", segs)
	}
	seqs, _ := collect(t, dir, 1)
	if len(seqs) != n {
		t.Fatalf("replayed %d rows across segments, want %d", len(seqs), n)
	}

	// Truncating at seq 30 must drop early segments but keep everything > 30.
	before := l.Segments()
	if err := l.Truncate(30); err != nil {
		t.Fatal(err)
	}
	if after := l.Segments(); after >= before {
		t.Fatalf("truncate reclaimed nothing: %d -> %d segments", before, after)
	}
	seqs, _ = collect(t, dir, 31)
	if len(seqs) == 0 || seqs[0] != 31 || seqs[len(seqs)-1] != n {
		t.Fatalf("post-truncate replay from 31: seqs %v", seqs)
	}
	// Records below the truncation point that share a surviving segment may
	// remain; a replay from 1 must still be contiguous from its first seq.
	if _, err := Replay(dir, 1, func(uint64, []float64) error { return nil }); err != nil {
		t.Fatalf("full replay after truncate: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTornFinalRecordIsHealed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := l.Append(uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon the log WITHOUT Close — a crash. (A clean Close anchors the
	// durable watermark in the head, after which a shortened segment is
	// tampering, not a torn tail, and is rejected as ErrCorrupt.)

	// Tear the tail: chop a few bytes off the segment, shearing the last
	// commit frame mid-write.
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	path := filepath.Join(dir, segs[0].name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	// Replay tolerates the torn tail: rows 1..4 survive, row 5 is gone.
	seqs, _ := collect(t, dir, 1)
	if len(seqs) != 4 || seqs[3] != 4 {
		t.Fatalf("replay after torn tail: seqs %v, want 1..4", seqs)
	}

	// Reopen heals the tail and appending seq 5 again works.
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 5 {
		t.Fatalf("NextSeq after torn tail = %d, want 5", got)
	}
	if _, err := l.Append(5, []float64{55}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, rows := collect(t, dir, 1)
	if len(seqs) != 5 || rows[4][0] != 55 {
		t.Fatalf("replay after heal: seqs %v rows %v", seqs, rows)
	}
}

func TestCorruptMidSegmentFailsReplay(t *testing.T) {
	dir := t.TempDir()
	// Force several segments, then flip a payload byte in the FIRST one:
	// acknowledged data in later segments becomes unreachable, which must be
	// an error, not a silent skip.
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if _, err := l.Append(uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %v (%v)", segs, err)
	}
	path := filepath.Join(dir, segs[0].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, 1, func(uint64, []float64) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over corrupt first segment: err = %v, want ErrCorrupt", err)
	}
	// A replay starting past the corrupt segment still works.
	if _, err := Replay(dir, segs[1].firstSeq, func(uint64, []float64) error { return nil }); err != nil {
		t.Fatalf("replay from %d: %v", segs[1].firstSeq, err)
	}
}

func TestGroupCommitBatchesSyncs(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, Options{SyncInterval: 20 * time.Millisecond})
	l, err := m.Open("t")
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	commits := make([]Commit, 0, n)
	for i := 1; i <= n; i++ {
		c, err := l.Append(uint64(i), []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, c)
	}
	for _, c := range commits {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Appends != n {
		t.Fatalf("appends = %d, want %d", st.Appends, n)
	}
	// All appends landed within one 20ms window, so the batch count must be
	// far below the record count (tolerate a few windows for slow CI).
	if st.Syncs >= n/2 {
		t.Fatalf("group commit did not batch: %d syncs for %d appends", st.Syncs, n)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestManagerRemoveDeletesDir(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, Options{})
	l, err := m.Open("gone")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "gone")); !os.IsNotExist(err) {
		t.Fatalf("tenant dir survived Remove: %v", err)
	}
	if err := m.Remove("never-existed"); err != nil {
		t.Fatalf("removing unknown tenant: %v", err)
	}
	tenants, err := m.Tenants()
	if err != nil || len(tenants) != 0 {
		t.Fatalf("tenants after remove: %v (%v)", tenants, err)
	}
	m.Close()
}

// TestTornTailBadLength covers a tear that lands in the framing itself,
// leaving an implausible length field rather than a short read.
func TestTornTailBadLength(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Garbage header claiming a huge payload.
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<31)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	seqs, _ := collect(t, dir, 1)
	if len(seqs) != 1 {
		t.Fatalf("replay past bad-length tail: seqs %v, want just 1", seqs)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 2 {
		t.Fatalf("NextSeq = %d, want 2", got)
	}
	l.Close()
}

// TestSetNextSeqReopenPreservesAckedRecords pins the checkpoint-newer-than-
// log recovery path: raising the sequence past the tail of a NON-empty
// active segment (e.g. after a kill -9 between a checkpoint rename and the
// covering fsync) must not leave a sequence gap inside that segment — the
// next Open would read the jump as a torn tail and truncate every record
// after it, silently dropping fsynced, acknowledged ticks.
func TestSetNextSeqReopenPreservesAckedRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}) // strict: every append is synced
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint covering seq 99 justified the jump.
	if err := l.SetNextSeq(100); err != nil {
		t.Fatal(err)
	}
	if segs := l.Segments(); segs != 2 {
		t.Fatalf("segments after raise over non-empty tail = %d, want 2 (rotation)", segs)
	}
	for i := 100; i <= 102; i++ {
		if _, err := l.Append(uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.DurableThrough(); got != 102 {
		t.Fatalf("DurableThrough = %d, want 102", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: nothing acked may have been truncated away.
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 103 {
		t.Fatalf("reopened NextSeq = %d, want 103", got)
	}
	if _, err := l.Append(103, []float64{103}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Replay from the checkpoint boundary — the only fromSeq recovery uses.
	seqs, rows := collect(t, dir, 100)
	if len(seqs) != 4 || seqs[0] != 100 || seqs[3] != 103 || rows[3][0] != 103 {
		t.Fatalf("replay from 100 after reopen: seqs %v", seqs)
	}
	// The pre-jump records also survived in their own segment.
	seqs, _ = collect(t, dir, 101)
	if len(seqs) != 3 {
		t.Fatalf("replay from 101: seqs %v", seqs)
	}
}

// TestSetNextSeqEmptySegmentNoRotation: raising inside an empty active
// segment needs no new file — the segment name is only a lower bound.
func TestSetNextSeqEmptySegmentNoRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetNextSeq(50); err != nil {
		t.Fatal(err)
	}
	if segs := l.Segments(); segs != 1 {
		t.Fatalf("segments after raise in empty log = %d, want 1", segs)
	}
	if _, err := l.Append(50, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 51 {
		t.Fatalf("reopened NextSeq = %d, want 51", got)
	}
	l.Close()
}

// TestDurableCommitVerifies: the duplicate-ack handle forces the pending
// batch out when the seq is not yet covered, and refuses to promise
// durability for a record the log never made stable.
func TestDurableCommitVerifies(t *testing.T) {
	dir := t.TempDir()
	// A long interval so the batch is still pending when Wait runs.
	l, err := Open(dir, Options{SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableThrough(); got != 0 {
		t.Fatalf("DurableThrough before sync = %d, want 0", got)
	}
	if err := l.DurableCommit(1).Wait(); err != nil {
		t.Fatalf("DurableCommit(1).Wait: %v", err)
	}
	if got := l.DurableThrough(); got != 1 {
		t.Fatalf("DurableThrough after verify = %d, want 1", got)
	}
	// Already-covered seqs wait for nothing and never error.
	if err := l.DurableCommit(1).Wait(); err != nil {
		t.Fatal(err)
	}
	// A seq the log has never seen cannot be promised durable.
	if err := l.DurableCommit(5).Wait(); err == nil {
		t.Fatal("DurableCommit(5).Wait() = nil for a record that was never appended")
	}
}

// TestReplayDetectsMissingMiddleSegment: a deleted middle segment is a hole
// in acked history, never a silent skip.
func TestReplayDetectsMissingMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 40; i++ {
		if _, err := l.Append(uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %v (%v)", segs, err)
	}
	if err := os.Remove(filepath.Join(dir, segs[1].name)); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, 1, func(uint64, []float64) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay across a missing segment: err = %v, want ErrCorrupt", err)
	}
}

// TestAppendBatchReplayRoundtrip: a batch record replays as its individual
// rows — same seqs, same values — indistinguishable from per-row appends,
// including when plain and batch records interleave in one segment.
func TestAppendBatchReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []float64{1, -1}); err != nil {
		t.Fatal(err)
	}
	c, err := l.AppendBatch(2, [][]float64{{2, -2}, {3, math.NaN()}, {4, -4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(5, []float64{5, -5}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(6, [][]float64{{6, -6}, {7, -7}}); err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 8 {
		t.Fatalf("NextSeq after batches = %d, want 8", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seqs, rows := collect(t, dir, 1)
	if len(seqs) != 7 {
		t.Fatalf("replayed %d rows, want 7 (seqs %v)", len(seqs), seqs)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("row %d: seq %d, want %d", i, seq, i+1)
		}
		if len(rows[i]) != 2 || rows[i][0] != float64(i+1) {
			t.Fatalf("row %d: values %v", i, rows[i])
		}
		if i == 2 {
			if !math.IsNaN(rows[i][1]) {
				t.Fatalf("row 3 second value %v, want NaN", rows[i][1])
			}
		} else if rows[i][1] != -float64(i+1) {
			t.Fatalf("row %d second value %v, want %v", i, rows[i][1], -float64(i+1))
		}
	}

	// Replay from the middle of a batch record delivers only the tail rows.
	seqs, _ = collect(t, dir, 3)
	if len(seqs) != 5 || seqs[0] != 3 {
		t.Fatalf("replay from 3: seqs %v, want 3..7", seqs)
	}

	// Reopen continues the sequence past the batched rows.
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 8 {
		t.Fatalf("reopened NextSeq = %d, want 8", got)
	}
	l.Close()
}

// TestAppendBatchValidates: sequence, shape, and emptiness checks reject the
// batch without mutating the log.
func TestAppendBatchValidates(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendBatch(1, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := l.AppendBatch(2, [][]float64{{1}}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("batch at seq 2 on fresh log: err = %v, want ErrOutOfOrder", err)
	}
	if _, err := l.AppendBatch(1, [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged batch accepted")
	}
	if got := l.NextSeq(); got != 1 {
		t.Fatalf("NextSeq moved to %d by rejected batches", got)
	}
	// A single-row batch is a plain append on disk and in sequence terms.
	if _, err := l.AppendBatch(1, [][]float64{{9}}); err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 2 {
		t.Fatalf("NextSeq after 1-row batch = %d, want 2", got)
	}
}

// TestTornBatchTailIsHealed: a batch frame torn mid-write loses the WHOLE
// batch (it had one unacknowledged commit slot), and the log heals to the
// last complete record — exactly the single-record torn-tail contract.
func TestTornBatchTailIsHealed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(uint64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.AppendBatch(4, [][]float64{{4}, {5}, {6}}); err != nil {
		t.Fatal(err)
	}
	// Abandon WITHOUT Close — a crash (see TestTornFinalRecordIsHealed).
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the batch's commit frame: the batch loses its covering
	// commit and with it the whole (never-acknowledged) batch.
	if err := os.Truncate(path, fi.Size()-9); err != nil {
		t.Fatal(err)
	}

	seqs, _ := collect(t, dir, 1)
	if len(seqs) != 3 || seqs[2] != 3 {
		t.Fatalf("replay after torn batch: seqs %v, want 1..3", seqs)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.NextSeq(); got != 4 {
		t.Fatalf("NextSeq after torn batch heal = %d, want 4", got)
	}
	// Re-appending the lost batch works and the log is whole again.
	if _, err := l.AppendBatch(4, [][]float64{{4}, {5}, {6}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, rows := collect(t, dir, 1)
	if len(seqs) != 6 || rows[5][0] != 6 {
		t.Fatalf("replay after re-append: seqs %v", seqs)
	}
}

// TestAppendBatchDurability: DurableCommit covers every row of a synced
// batch, and a batch straddling rotation thresholds stays replayable.
func TestAppendBatchDurability(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncInterval: time.Hour, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]float64, 40)
	for i := range batch {
		batch[i] = []float64{float64(i + 1), float64(-(i + 1))}
	}
	if _, err := l.AppendBatch(1, batch); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableThrough(); got != 0 {
		t.Fatalf("DurableThrough before sync = %d", got)
	}
	// DurableCommit must force the hour-long pending batch out and then
	// cover every row of it.
	if err := l.DurableCommit(40).Wait(); err != nil {
		t.Fatalf("DurableCommit(40): %v", err)
	}
	if got := l.DurableThrough(); got != 40 {
		t.Fatalf("DurableThrough = %d, want 40", got)
	}
	// More batches force rotation (one frame exceeds SegmentBytes).
	for seq := uint64(41); seq <= 200; seq += 40 {
		rows := make([][]float64, 40)
		for i := range rows {
			rows[i] = []float64{float64(seq) + float64(i)}
		}
		if _, err := l.AppendBatch(seq, rows); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if segs := l.Segments(); segs < 2 {
		t.Fatal("no rotation across the batched appends")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, dir, 1)
	if len(seqs) != 200 || seqs[199] != 200 {
		t.Fatalf("replayed %d rows, want 200", len(seqs))
	}
}

// TestIdleSyncThenConcurrentGroupCommit pins the double-buffer ownership
// rule: a Sync on an idle log must not swap the append buffer, or buf and
// spare end up sharing one backing array and the next group commit writes
// bytes that appenders are overwriting. The failWrite seam runs appends on
// another goroutine after the batch is hashed and before it is written, so
// the overlap happens on every run, not only under an unlucky schedule.
func TestIdleSyncThenConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	var l *Log
	armed := false
	opts := Options{SyncInterval: time.Hour, failWrite: func() error {
		if !armed {
			return nil
		}
		armed = false
		done := make(chan error)
		go func() {
			for seq := uint64(3); seq <= 5; seq++ {
				if _, err := l.Append(seq, []float64{float64(seq)}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		return <-done
	}}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil { // leaves a recycled spare buffer
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil { // idle: nothing buffered, nothing pending
		t.Fatal(err)
	}
	// One record, so the batch plus its commit frame fits the recycled
	// buffer without growing it: the swap is what decides whether the
	// batch and the next appends share memory.
	if _, err := l.Append(2, []float64{2}); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := l.Sync(); err != nil { // group commit of 2 races appends of 3..5
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seqs, rows := collect(t, dir, 1)
	if len(seqs) != 5 {
		t.Fatalf("replayed seqs %v, want 1..5", seqs)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) || rows[i][0] != float64(seq) {
			t.Fatalf("record %d = seq %d values %v, want seq %d value %d", i, seq, rows[i], i+1, i+1)
		}
	}
	rep, err := VerifyTenant(dir, nil)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if rep.DurableThrough != 5 {
		t.Fatalf("DurableThrough = %d, want 5", rep.DurableThrough)
	}
}
