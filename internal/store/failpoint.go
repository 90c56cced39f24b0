package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// Failpoints are an errfs-style fault-injection layer for tests: named I/O
// sites in the durability path (WAL append, fsync, snapshot write/rename,
// compaction truncate) consult a process-wide rule table before touching
// the disk. A rule can inject an error, tear a write after a chosen number
// of bytes, or add latency — enough to script "the fsync fails during
// snapshot compaction" or "the primary dies mid-append with a torn frame"
// without a custom filesystem.
//
// The table is global (the sites are free functions on *os.File), so tests
// that set failpoints must not run in parallel with each other; each test
// defers ClearFailpoints. Production never sets rules, and the fast path
// is a single atomic load.

// Failpoint site names.
const (
	FpWALWrite       = "wal.write"       // the group-commit batch write
	FpWALSync        = "wal.sync"        // the group-commit fsync
	FpWALFlushed     = "wal.flushed"     // a flush leader, its batch durable, about to hand the log on
	FpWALPark        = "wal.park"        // a Sync waiter about to park on the broadcast
	FpWALTruncate    = "wal.truncate"    // post-snapshot WAL compaction
	FpSnapshotWrite  = "snapshot.write"  // snapshot tmp-file body write
	FpSnapshotSync   = "snapshot.sync"   // snapshot tmp-file fsync
	FpSnapshotRename = "snapshot.rename" // atomic rename into place
)

// ErrInjected is the default error a firing failpoint returns when its
// rule does not supply one.
var ErrInjected = errors.New("store: injected fault")

// FailRule describes when and how one failpoint site misbehaves.
type FailRule struct {
	// SkipFirst lets this many hits pass unharmed before the rule fires.
	SkipFirst int
	// Count fires the rule this many times, then disarms; 0 means forever.
	Count int
	// Err is the injected error; nil uses ErrInjected.
	Err error
	// TornBytes, when > 0 on a write site, writes that prefix of the buffer
	// to the real file before failing — a torn write. Zero (the default)
	// fails without writing anything.
	TornBytes int
	// Delay is added latency before the operation proceeds (applied whether
	// or not the rule ultimately fires an error on this hit).
	Delay time.Duration
	// Wait, when non-nil, holds a firing hit at the site until the channel
	// is closed: a test parks one goroutine at a named point while it
	// arranges the others (FailpointHits tells it the point was reached).
	Wait <-chan struct{}
}

type failState struct {
	rule  FailRule
	hits  int
	fired int
}

var failpoints struct {
	mu    sync.Mutex
	armed bool // fast-path hint: any rule set at all
	rules map[string]*failState
}

// SetFailpoint arms (or replaces) the rule for a site.
func SetFailpoint(op string, rule FailRule) {
	failpoints.mu.Lock()
	defer failpoints.mu.Unlock()
	if failpoints.rules == nil {
		failpoints.rules = make(map[string]*failState)
	}
	failpoints.rules[op] = &failState{rule: rule}
	failpoints.armed = true
}

// ClearFailpoints disarms every site; tests defer this.
func ClearFailpoints() {
	failpoints.mu.Lock()
	defer failpoints.mu.Unlock()
	failpoints.rules = nil
	failpoints.armed = false
}

// FailpointHits reports how many times a site has fired — tests assert the
// fault actually happened rather than silently not reaching the site.
func FailpointHits(op string) int {
	failpoints.mu.Lock()
	defer failpoints.mu.Unlock()
	if st := failpoints.rules[op]; st != nil {
		return st.fired
	}
	return 0
}

// failpointCheck decides whether the site fires on this hit. It returns
// the (possibly defaulted) injected error and the torn-write prefix length
// (-1 when the write should not happen at all, or when not firing).
func failpointCheck(op string) (fire bool, err error, torn int) {
	failpoints.mu.Lock()
	if !failpoints.armed {
		failpoints.mu.Unlock()
		return false, nil, -1
	}
	st := failpoints.rules[op]
	if st == nil {
		failpoints.mu.Unlock()
		return false, nil, -1
	}
	st.hits++
	r := st.rule
	if st.hits <= r.SkipFirst || (r.Count > 0 && st.fired >= r.Count) {
		failpoints.mu.Unlock()
		if r.Delay > 0 {
			time.Sleep(r.Delay)
		}
		return false, nil, -1
	}
	st.fired++
	failpoints.mu.Unlock()
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	if r.Wait != nil {
		<-r.Wait
	}
	err = r.Err
	if err == nil {
		err = fmt.Errorf("%w at %s", ErrInjected, op)
	}
	return true, err, r.TornBytes
}

// fpErr returns the injected error if the op failpoint fires, else nil —
// for sites that are not a single syscall (e.g. the snapshot body write).
func fpErr(op string) error {
	_, err, _ := failpointCheck(op)
	return err
}

// fpPoint marks a site that does no I/O of its own: a firing rule counts the
// hit and may hold it (Delay, Wait); its error is not used.
func fpPoint(op string) { failpointCheck(op) }

// fpWrite is f.Write(buf) behind the op failpoint: a firing rule may first
// write a torn prefix of buf to the real file, then returns its error.
func fpWrite(op string, f *os.File, buf []byte) (int, error) {
	if fire, err, torn := failpointCheck(op); fire {
		n := 0
		if torn > 0 {
			if torn > len(buf) {
				torn = len(buf)
			}
			n, _ = f.Write(buf[:torn])
		}
		return n, err
	}
	return f.Write(buf)
}

// fpSync is f.Sync() behind the op failpoint.
func fpSync(op string, f *os.File) error {
	if fire, err, _ := failpointCheck(op); fire {
		return err
	}
	return f.Sync()
}

// fpRename is os.Rename behind the op failpoint.
func fpRename(op, oldpath, newpath string) error {
	if fire, err, _ := failpointCheck(op); fire {
		return err
	}
	return os.Rename(oldpath, newpath)
}

// fpTruncate is f.Truncate behind the op failpoint.
func fpTruncate(op string, f *os.File, size int64) error {
	if fire, err, _ := failpointCheck(op); fire {
		return err
	}
	return f.Truncate(size)
}
