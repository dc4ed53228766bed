package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"faure/internal/budget"
	"faure/internal/faultinject"
	"faure/internal/faurelog"
	"faure/internal/rewrite"
)

func testProg(t *testing.T) *faurelog.Program {
	t.Helper()
	return faurelog.MustParse(`
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
	`)
}

const testBaseSrc = `
	var $x in {0, 1}.
	fwd(F0, 1, 2)[$x = 1].
	fwd(F0, 1, 3)[$x = 0].
	fwd(F0, 2, 4).
	fwd(F0, 3, 4).
`

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	db, err := faurelog.ParseDatabase(testBaseSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Program: testProg(t), Base: db,
		Log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func mustUpdate(t *testing.T, src string) rewrite.Update {
	t.Helper()
	u, err := rewrite.ParseUpdate(src)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// insertUpdate extends the chain: +fwd(F0, n, n+1).
func insertUpdate(t *testing.T, n int) rewrite.Update {
	t.Helper()
	return mustUpdate(t, fmt.Sprintf("+fwd(F0, %d, %d).", n, n+1))
}

func TestServeBasics(t *testing.T) {
	s := newTestServer(t, nil)
	gen := s.Current()
	if gen.Seq != 0 {
		t.Fatalf("initial generation = %d, want 0", gen.Seq)
	}
	if gen.DB.Table("reach") == nil {
		t.Fatal("warm generation lacks the derived reach relation")
	}
	before := gen.DB.Table("reach").Len()

	g1, applied, err := s.Apply(context.Background(), "u1", insertUpdate(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !applied || g1.Seq != 1 {
		t.Fatalf("apply: applied=%v seq=%d", applied, g1.Seq)
	}
	if got := s.Current().DB.Table("reach").Len(); got <= before {
		t.Fatalf("reach did not grow: %d -> %d", before, got)
	}
	// The old generation is untouched (MVCC: readers holding it keep a
	// consistent view).
	if gen.DB.Table("reach").Len() != before {
		t.Fatal("published update mutated a previous generation")
	}

	// Idempotent re-submission.
	g2, applied, err := s.Apply(context.Background(), "u1", insertUpdate(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if applied || g2.Seq != 1 {
		t.Fatalf("duplicate id reapplied: applied=%v seq=%d", applied, g2.Seq)
	}

	// A delete update takes the full re-evaluation path.
	g3, _, err := s.Apply(context.Background(), "u2", mustUpdate(t, "-fwd(F0, 2, 4)."))
	if err != nil {
		t.Fatal(err)
	}
	if g3.Seq != 2 {
		t.Fatalf("delete update seq = %d, want 2", g3.Seq)
	}
	if s.Applies() != 2 || s.Rollbacks() != 0 {
		t.Fatalf("applies=%d rollbacks=%d", s.Applies(), s.Rollbacks())
	}
}

// applyStream drives the same update sequence used across the
// determinism tests: three chain inserts and one delete.
func applyStream(t *testing.T, s *Server) {
	t.Helper()
	for i, u := range streamUpdates(t) {
		if _, _, err := s.Apply(context.Background(), fmt.Sprintf("s%d", i), u); err != nil {
			t.Fatalf("stream update %d: %v", i, err)
		}
	}
}

func streamUpdates(t *testing.T) []rewrite.Update {
	t.Helper()
	return []rewrite.Update{
		insertUpdate(t, 4),
		insertUpdate(t, 5),
		mustUpdate(t, "-fwd(F0, 3, 4)."),
		insertUpdate(t, 6),
	}
}

// TestRestartConvergesBitIdentical is the WAL acceptance check without
// a crash: a restart from the WAL alone reproduces the exact database.
func TestRestartConvergesBitIdentical(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "serve.wal")
	s1 := newTestServer(t, func(c *Config) { c.WALPath = wal })
	applyStream(t, s1)
	want := s1.Current().CanonicalDump()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, func(c *Config) { c.WALPath = wal })
	if got := s2.Current().CanonicalDump(); got != want {
		t.Errorf("restart diverged:\n--- pre-restart ---\n%s--- post-restart ---\n%s", want, got)
	}
	if s2.Replayed() != 4 {
		t.Errorf("replayed = %d, want 4", s2.Replayed())
	}
	if s2.Current().Seq != 4 {
		t.Errorf("post-replay generation = %d, want 4", s2.Current().Seq)
	}

	// And the WAL-less run over the same stream agrees too.
	s3 := newTestServer(t, nil)
	applyStream(t, s3)
	if got := s3.Current().CanonicalDump(); got != want {
		t.Error("in-memory run and WAL replay diverged")
	}
}

// TestCrashRecovery kills the server at every injected fault point on
// the update path and asserts the restart + idempotent re-submission
// converges to the bit-identical database of an uninterrupted run.
func TestCrashRecovery(t *testing.T) {
	// The uninterrupted run's final state.
	ref := newTestServer(t, nil)
	applyStream(t, ref)
	want := ref.Current().CanonicalDump()

	points := []faultinject.Point{
		faultinject.RewriteApply,
		faultinject.FaurelogIncrementCommit,
		faultinject.ServeWALAppend,
		faultinject.ServeWALSync,
		faultinject.ServePublish,
	}
	for _, pt := range points {
		t.Run(string(pt), func(t *testing.T) {
			defer faultinject.Disarm()
			wal := filepath.Join(t.TempDir(), "serve.wal")
			s := newTestServer(t, func(c *Config) { c.WALPath = wal })
			updates := streamUpdates(t)

			// First two updates apply cleanly; the third (a delete, except
			// for the increment-commit point which only fires on the
			// insert-only path) fails at the armed point.
			crashAt := 2
			if pt == faultinject.FaurelogIncrementCommit {
				crashAt = 1
			}
			for i := 0; i < crashAt; i++ {
				if _, _, err := s.Apply(context.Background(), fmt.Sprintf("s%d", i), updates[i]); err != nil {
					t.Fatalf("update %d: %v", i, err)
				}
			}
			faultinject.Arm(pt, 1, errors.New("injected crash"))
			_, _, err := s.Apply(context.Background(), fmt.Sprintf("s%d", crashAt), updates[crashAt])
			if err == nil {
				t.Fatalf("armed %s: apply succeeded", pt)
			}
			// Every pre-durability failure is a rollback; a publish crash
			// is not (the record is already durable, only the ack is lost).
			wantRollbacks := uint64(1)
			if pt == faultinject.ServePublish {
				wantRollbacks = 0
			}
			if s.Rollbacks() != wantRollbacks {
				t.Fatalf("rollbacks = %d, want %d", s.Rollbacks(), wantRollbacks)
			}
			// The failure degraded, not corrupted: the last good generation
			// still serves.
			if got := s.Current().Seq; got != uint64(crashAt) {
				t.Fatalf("generation after failed apply = %d, want %d", got, crashAt)
			}
			faultinject.Disarm()
			s.Kill()

			// Restart: replay whatever was durable, then the client
			// re-submits everything it never got an ack for (same ids — the
			// WAL-backed dedup makes the double submission safe for the
			// serve.publish case, where the crash lost the ack but not the
			// record).
			s2 := newTestServer(t, func(c *Config) { c.WALPath = wal })
			for i := crashAt; i < len(updates); i++ {
				if _, _, err := s2.Apply(context.Background(), fmt.Sprintf("s%d", i), updates[i]); err != nil {
					t.Fatalf("re-submit update %d: %v", i, err)
				}
			}
			if got := s2.Current().CanonicalDump(); got != want {
				t.Errorf("recovery diverged:\n--- uninterrupted ---\n%s--- recovered ---\n%s", want, got)
			}
			if got := s2.Current().Seq; got != uint64(len(updates)) {
				t.Errorf("final generation = %d, want %d", got, len(updates))
			}
		})
	}
}

// TestWALTornTail exercises the replay scanner's crash-tolerance
// directly on crafted files.
func TestWALTornTail(t *testing.T) {
	rec1 := "#begin 1 a\n+fwd(F0, 4, 5).\n#commit 1\n"
	cases := []struct {
		name    string
		content string
		records int
		corrupt bool
	}{
		{"empty", "", 0, false},
		{"one", rec1, 1, false},
		{"torn begin", rec1 + "#begin 2", 1, false},
		{"torn body", rec1 + "#begin 2 b\n+fwd(F0, 5,", 1, false},
		{"missing commit", rec1 + "#begin 2 b\n+fwd(F0, 5, 6).\n", 1, false},
		{"mismatched commit", rec1 + "#begin 2 b\n+fwd(F0, 5, 6).\n#commit 7\n", 1, false},
		{"foreign tail", rec1 + "garbage\n", 1, false},
		{"blank lines", rec1 + "\n" + strings.ReplaceAll(rec1, " 1", " 2"), 2, false},
		{"gap in sequence", rec1 + "#begin 3 c\n+fwd(F0, 5, 6).\n#commit 3\n", 0, true},
		{"unparsable committed body", "#begin 1 a\nnot an update\n#commit 1\n", 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "w.wal")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			w, recs, err := openWAL(path)
			if tc.corrupt {
				if err == nil {
					t.Fatal("corrupt WAL opened cleanly")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			if len(recs) != tc.records {
				t.Fatalf("records = %d, want %d", len(recs), tc.records)
			}
			// The torn tail was truncated: appending the next record and
			// re-reading yields records+1 committed entries.
			next := walRecord{Seq: uint64(tc.records + 1), ID: "n", Text: "+fwd(F0, 9, 10).\n"}
			if err := w.append(next); err != nil {
				t.Fatal(err)
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			_, recs2, err := openWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs2) != tc.records+1 {
				t.Fatalf("after append: records = %d, want %d", len(recs2), tc.records+1)
			}
		})
	}
}

// TestWALFailureDegradesReadOnly: an append failure (here injected at
// the sync point) is sticky — later updates are refused, reads keep
// serving — and no repair happens in-process.
func TestWALFailureDegradesReadOnly(t *testing.T) {
	defer faultinject.Disarm()
	wal := filepath.Join(t.TempDir(), "serve.wal")
	s := newTestServer(t, func(c *Config) { c.WALPath = wal })
	if _, _, err := s.Apply(context.Background(), "a", insertUpdate(t, 4)); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.ServeWALAppend, 1, errors.New("disk gone"))
	if _, _, err := s.Apply(context.Background(), "b", insertUpdate(t, 5)); err == nil {
		t.Fatal("append fault did not fail the update")
	}
	faultinject.Disarm()
	// Sticky: the next update is refused even though injection is off.
	if _, _, err := s.Apply(context.Background(), "c", insertUpdate(t, 6)); err == nil {
		t.Fatal("failed WAL accepted another update")
	} else if !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("unexpected refusal: %v", err)
	}
	// Reads still serve the last good generation.
	if got := s.Current().Seq; got != 1 {
		t.Fatalf("generation = %d, want 1", got)
	}
	s.Kill()
	// The restart's truncation pass is the repair.
	s2 := newTestServer(t, func(c *Config) { c.WALPath = wal })
	if s2.Replayed() != 1 {
		t.Fatalf("replayed = %d, want 1", s2.Replayed())
	}
	if _, _, err := s2.Apply(context.Background(), "b", insertUpdate(t, 5)); err != nil {
		t.Fatalf("update after restart: %v", err)
	}
}

// TestBudgetTripRollsBack: an update whose apply exhausts its budget
// is rolled back; the server keeps serving and stays consistent.
func TestBudgetTripRollsBack(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.UpdateLimits = budget.Limits{Tuples: 1} // any real derivation trips
		c.UpdateRetries = 1
	})
	before := s.Current().CanonicalDump()
	_, _, err := s.Apply(context.Background(), "big", insertUpdate(t, 4))
	if err == nil {
		t.Fatal("budget-tripped update applied")
	}
	if _, ok := budget.As(err); !ok {
		t.Fatalf("rollback error does not carry the budget trip: %v", err)
	}
	if s.Rollbacks() != 1 {
		t.Fatalf("rollbacks = %d, want 1", s.Rollbacks())
	}
	if got := s.Current().CanonicalDump(); got != before {
		t.Error("failed update left a trace in the published generation")
	}
	// A truncated partial fixpoint must never have been published.
	if s.Current().Seq != 0 {
		t.Fatalf("generation advanced to %d on a failed update", s.Current().Seq)
	}
}

// TestTransientTripRetries: deadline trips are retried with backoff;
// the retry counter moves even though the update ultimately fails.
func TestTransientTripRetries(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.UpdateLimits = budget.Limits{Timeout: time.Nanosecond}
		c.UpdateRetries = 2
		c.RetryBackoff = time.Millisecond
	})
	_, _, err := s.Apply(context.Background(), "slow", insertUpdate(t, 4))
	if err == nil {
		t.Skip("nanosecond deadline did not trip on this machine")
	}
	if got := s.retries.Load(); got != 2 {
		t.Errorf("retries = %d, want 2", got)
	}
	if s.Rollbacks() != 1 {
		t.Errorf("rollbacks = %d, want 1", s.Rollbacks())
	}
}

// TestConcurrentReadersSeeConsistentGenerations is the -race MVCC
// check: N readers continuously load the current generation and verify
// its checksum while the writer streams updates; every observed
// snapshot must be internally consistent and sequence numbers must
// never move backwards.
func TestConcurrentReadersSeeConsistentGenerations(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Checksum = true })
	const (
		readers = 8
		updates = 12
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				gen := s.Current()
				if gen.Seq < last {
					errCh <- fmt.Errorf("generation went backwards: %d after %d", gen.Seq, last)
					return
				}
				last = gen.Seq
				if got := gen.checksum(); got != gen.Checksum {
					errCh <- fmt.Errorf("generation %d checksum mismatch (torn snapshot)", gen.Seq)
					return
				}
			}
		}()
	}
	for i := 0; i < updates; i++ {
		if _, _, err := s.Apply(context.Background(), fmt.Sprintf("c%d", i), insertUpdate(t, 4+i)); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := s.Current().Seq; got != updates {
		t.Fatalf("final generation = %d, want %d", got, updates)
	}
}

// TestStreamParity: two independently booted servers fed the same
// update stream hold bit-identical databases — evaluation is a
// deterministic function of the boot state and the stream.
func TestStreamParity(t *testing.T) {
	a, b := newTestServer(t, nil), newTestServer(t, nil)
	applyStream(t, a)
	applyStream(t, b)
	if d1, d2 := a.Current().CanonicalDump(), b.Current().CanonicalDump(); d1 != d2 {
		t.Errorf("servers fed the same stream diverged:\n--- first ---\n%s--- second ---\n%s", d1, d2)
	}
}

// TestShutdownDrainsQueue: updates accepted before Shutdown are
// applied and journaled; updates after are refused.
func TestShutdownDrains(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "serve.wal")
	s := newTestServer(t, func(c *Config) { c.WALPath = wal })
	if _, _, err := s.Apply(context.Background(), "a", insertUpdate(t, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Apply(context.Background(), "b", insertUpdate(t, 5)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-shutdown apply: %v, want ErrDraining", err)
	}
	// The WAL was fsynced and closed; a fresh server sees the update.
	s2 := newTestServer(t, func(c *Config) { c.WALPath = wal })
	if s2.Replayed() != 1 {
		t.Fatalf("replayed = %d, want 1", s2.Replayed())
	}
}

// TestNegatedProgramFallsBackToFullEval: a program with negation still
// serves and applies updates (via from-scratch re-evaluation).
func TestNegatedProgramFallsBackToFullEval(t *testing.T) {
	db, err := faurelog.ParseDatabase(`
		fwd(F0, 1, 2).
		fwd(F0, 2, 3).
		node(1). node(2). node(3).
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog := faurelog.MustParse(`
		reach(f, a, b) :- fwd(f, a, b).
		reach(f, a, c) :- fwd(f, a, b), reach(f, b, c).
		unreachable(n) :- node(n), not reach(F0, 1, n).
	`)
	s, err := New(Config{Program: prog, Base: db})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if s.positive {
		t.Fatal("program with negation classified positive")
	}
	if got := s.Current().DB.Table("unreachable").Len(); got != 1 {
		t.Fatalf("unreachable = %d, want 1 (node 1 itself)", got)
	}
	if _, _, err := s.Apply(context.Background(), "", mustUpdate(t, "+node(4).")); err != nil {
		t.Fatal(err)
	}
	if got := s.Current().DB.Table("unreachable").Len(); got != 2 {
		t.Fatalf("after +node(4): unreachable = %d, want 2", got)
	}
}
