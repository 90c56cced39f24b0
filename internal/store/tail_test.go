package store

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"incdb/internal/relation"
)

func openTestLog(t *testing.T) *SessionLog {
	t.Helper()
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	l, err := s.Session("main")
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	return l
}

// TestGroupCommitBatchesBufferedRecords: records buffered before a single
// Sync become durable together through one fsync, and replay sees them all
// in sequence order.
func TestGroupCommitBatchesBufferedRecords(t *testing.T) {
	l := openTestLog(t)
	var last uint64
	for i := 0; i < 8; i++ {
		seq, err := l.BufferTrace(OpAppend, "row R x\n", map[string]uint64{"R": uint64(i + 1)}, "")
		if err != nil {
			t.Fatalf("buffer %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("buffer %d assigned seq %d", i, seq)
		}
		last = seq
	}
	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("durable seq %d before any sync", got)
	}
	if err := l.Sync(last); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if got := l.DurableSeq(); got != last {
		t.Fatalf("durable seq %d after sync, want %d", got, last)
	}
	st := l.Stats()
	if st.Syncs != 1 {
		t.Fatalf("8 buffered records took %d fsyncs, want 1 (group commit)", st.Syncs)
	}
	if st.WalRecords != 8 {
		t.Fatalf("wal records %d, want 8", st.WalRecords)
	}
}

// TestConcurrentAppendsGroupCommit hammers one log with concurrent Appends
// (run under -race): every record must end durable with strictly monotonic
// sequence numbers on replay, and batching must never lose or duplicate
// one. Fewer fsyncs than records is the group-commit payoff but is timing-
// dependent, so only the correctness properties are asserted.
func TestConcurrentAppendsGroupCommit(t *testing.T) {
	l := openTestLog(t)
	const writers, per = 8, 20
	var wg sync.WaitGroup
	var mu sync.Mutex
	seen := map[uint64]bool{}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := l.Append(OpAppend, "row R x\n", nil)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				if seen[seq] {
					t.Errorf("duplicate seq %d", seq)
				}
				seen[seq] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if l.DurableSeq() != writers*per {
		t.Fatalf("durable seq %d, want %d", l.DurableSeq(), writers*per)
	}
	st := l.Stats()
	t.Logf("group commit: %d records in %d fsyncs", st.WalRecords, st.Syncs)
}

// TestTailStreamsAndWakes: a tailer sees already-durable records
// immediately, blocks at the head, and wakes when a new record commits;
// context cancellation unblocks it.
func TestTailStreamsAndWakes(t *testing.T) {
	l := openTestLog(t)
	for i := 0; i < 3; i++ {
		if _, err := l.Append(OpAppend, "row R a\n", nil); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	tail, err := l.TailFrom(1) // skip the first record
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	defer tail.Close()
	ctx := context.Background()
	for want := uint64(2); want <= 3; want++ {
		frame, rec, err := tail.Next(ctx)
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if rec.Seq != want {
			t.Fatalf("tail yielded seq %d, want %d", rec.Seq, want)
		}
		// The frame must round-trip through the stream decoder.
		if got, err := ReadFrame(bytes.NewReader(frame)); err != nil || got.Seq != want {
			t.Fatalf("frame round-trip: %v (seq %d)", err, got.Seq)
		}
	}

	// Blocked at the head: a concurrent append wakes it.
	go func() {
		time.Sleep(20 * time.Millisecond)
		l.Append(OpAppend, "row R b\n", nil)
	}()
	_, rec, err := tail.Next(ctx)
	if err != nil || rec.Seq != 4 {
		t.Fatalf("woken next: %v (seq %v)", err, rec)
	}

	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, _, err := tail.Next(cctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled next: %v", err)
	}
}

// TestTailAcrossCompaction: a caught-up tailer survives a snapshot
// compaction (the truncated log continues where it was), while a lagging
// tailer — and a new TailFrom behind the snapshot — get ErrWALGap.
func TestTailAcrossCompaction(t *testing.T) {
	l := openTestLog(t)
	for i := 0; i < 3; i++ {
		if _, err := l.Append(OpAppend, "row R a\n", nil); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	caught, err := l.TailFrom(0)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	defer caught.Close()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := caught.Next(ctx); err != nil {
			t.Fatalf("drain %d: %v", i, err)
		}
	}
	lagging, err := l.TailFrom(0) // has not delivered anything yet
	if err != nil {
		t.Fatalf("lagging tail: %v", err)
	}
	defer lagging.Close()

	snap, err := TakeSnapshot("main", relation.NewDatabase(), l.Seq(), nil)
	if err != nil {
		t.Fatalf("take snapshot: %v", err)
	}
	if err := l.InstallSnapshot(snap); err != nil {
		t.Fatalf("install: %v", err)
	}
	if _, err := l.Append(OpAppend, "row R z\n", nil); err != nil {
		t.Fatalf("post-compaction append: %v", err)
	}

	// The caught-up tailer re-bases onto the truncated file and delivers
	// the new record.
	_, rec, err := caught.Next(ctx)
	if err != nil || rec.Seq != 4 {
		t.Fatalf("caught-up tailer after compaction: %v (rec %v)", err, rec)
	}
	// The lagging tailer's records are gone.
	if _, _, err := lagging.Next(ctx); !errors.Is(err, ErrWALGap) {
		t.Fatalf("lagging tailer: %v, want ErrWALGap", err)
	}
	// A fresh tail behind the snapshot is refused up front.
	if _, err := l.TailFrom(0); !errors.Is(err, ErrWALGap) {
		t.Fatalf("TailFrom(0) after compaction: %v, want ErrWALGap", err)
	}
	// At the snapshot boundary it is fine.
	ok, err := l.TailFrom(3)
	if err != nil {
		t.Fatalf("TailFrom(3): %v", err)
	}
	ok.Close()
}

// awaitHits spins until the failpoint site has fired n times.
func awaitHits(t *testing.T, op string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); FailpointHits(op) < n; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("failpoint %s fired %d time(s), want %d", op, FailpointHits(op), n)
		}
	}
}

// TestSyncLostWakeup pins the window in which Sync used to lose a wake-up.
// A flush leader is held (FpWALFlushed) after its batch is durable and
// before it hands the log on; a second record is buffered — too late for
// that batch — and its Sync finds the lock taken and goes to wait
// (FpWALPark) for a broadcast that, before the fix, had already happened:
// it then slept until some later append happened to flush. Now the leader
// broadcasts after it has released the lock, so the waiter wakes, takes the
// lock and flushes its own record — with no further append.
func TestSyncLostWakeup(t *testing.T) {
	defer ClearFailpoints()
	l := openTestLog(t)
	hold := make(chan struct{})
	SetFailpoint(FpWALFlushed, FailRule{Count: 1, Wait: hold})
	SetFailpoint(FpWALPark, FailRule{})

	first, err := l.BufferTrace(OpAppend, "row R x\n", map[string]uint64{"R": 1}, "")
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2) // one per Sync below
	go func() { errs <- l.Sync(first) }()
	awaitHits(t, FpWALFlushed, 1) // the leader's batch is durable; it still holds the log

	second, err := l.BufferTrace(OpAppend, "row R y\n", map[string]uint64{"R": 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	go func() { errs <- l.Sync(second) }()
	awaitHits(t, FpWALPark, 1) // the waiter has subscribed, seen the lock held, and parks

	close(hold)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("sync: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("a Sync is still parked with record %d buffered and nobody flushing (durable %d): lost wake-up", second, l.DurableSeq())
		}
	}
	if got := l.DurableSeq(); got != second {
		t.Fatalf("durable seq %d, want %d", got, second)
	}
	if st := l.Stats(); st.Syncs != 2 {
		t.Fatalf("%d fsyncs, want 2: the waiter's record missed the leader's batch", st.Syncs)
	}
}
