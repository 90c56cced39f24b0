package plan

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Trace accumulates execution statistics across one or more plan
// executions (an EXPLAIN ANALYZE run, or every per-world execution of one
// oracle call — the oracle worker pools share a Trace across shards, so
// all fields are atomics).
//
// Execs and FrozenReuse are always counted — two atomic adds per plan
// execution, cheap enough that the server traces every query to report
// worlds enumerated. Per-node statistics (rows, batches, wall time) are
// collected only when the trace was created with detail=true: detail
// tracing adds a wrapper closure per operator, so it is reserved for
// EXPLAIN ANALYZE.
//
// The wrapper only observes batches on their way to the consumer — it
// never reorders, copies, or buffers them — so a traced execution is
// byte-identical to an untraced one.
type Trace struct {
	// Execs counts plan executions: for the oracles this is the number of
	// worlds enumerated (plus any candidate-producing base runs).
	Execs atomic.Int64
	// FrozenReuse counts frozen-part reuses: per execution, the number of
	// world-invariant artifacts (the root's frozen answer, join tables,
	// consolidated barrier and subquery inputs) served from the Prepared
	// instead of being recomputed.
	FrozenReuse atomic.Int64

	detail bool

	mu    sync.Mutex
	stats map[*Plan][]*NodeStat
}

// NodeStat holds one physical node's accumulated actuals. WallNs is
// inclusive: a node's time contains its children's (they execute inside
// its streaming pipeline).
type NodeStat struct {
	Rows    atomic.Int64
	Batches atomic.Int64
	WallNs  atomic.Int64
	// DeltaMax is the largest Δ the node emitted in any one world.
	DeltaMax atomic.Int64
}

// NewTrace returns an empty trace; detail enables per-node statistics.
func NewTrace(detail bool) *Trace {
	return &Trace{detail: detail, stats: map[*Plan][]*NodeStat{}}
}

// planStats returns (allocating on first use) the per-node stat slots for
// p, indexed by node id like the exec buffers.
func (t *Trace) planStats(p *Plan) []*NodeStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.stats[p]
	if !ok {
		st = make([]*NodeStat, len(p.nodes))
		for i := range st {
			st[i] = &NodeStat{}
		}
		t.stats[p] = st
	}
	return st
}

// stat returns the accumulated stats for node id of p, or nil when the
// trace is nil, not detailed, or never executed that plan.
func (t *Trace) stat(p *Plan, id int) *NodeStat {
	if t == nil || !t.detail {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stats[p]
	if st == nil || id >= len(st) {
		return nil
	}
	return st[id]
}

// NodeActual is one physical node's measured execution, flattened from a
// detail trace for consumers outside the package — the server turns them
// into per-node child spans of a traced query. For oracle procedures the
// numbers accumulate across every enumerated world, so WallNs is the
// node's total time over the whole oracle call.
type NodeActual struct {
	Depth   int
	Op      string
	Rows    int64
	Batches int64
	WallNs  int64
}

// NodeActuals flattens every plan this trace observed into pre-order
// node listings, slowest plan first (deterministic despite the map).
// Empty when the trace is nil or was not created with detail.
func (t *Trace) NodeActuals() []NodeActual {
	if t == nil || !t.detail {
		return nil
	}
	t.mu.Lock()
	plans := make([]*Plan, 0, len(t.stats))
	for p := range t.stats {
		plans = append(plans, p)
	}
	t.mu.Unlock()
	sort.Slice(plans, func(i, j int) bool { return t.rootWall(plans[i]) > t.rootWall(plans[j]) })
	var out []NodeActual
	for _, p := range plans {
		t.flatten(p, p.root, 0, &out)
	}
	return out
}

func (t *Trace) rootWall(p *Plan) int64 {
	if st := t.stat(p, p.root.base().id); st != nil {
		return st.WallNs.Load()
	}
	return 0
}

func (t *Trace) flatten(p *Plan, n pnode, depth int, out *[]NodeActual) {
	na := NodeActual{Depth: depth, Op: n.describe()}
	if st := t.stat(p, n.base().id); st != nil {
		na.Rows = st.Rows.Load()
		na.Batches = st.Batches.Load()
		na.WallNs = st.WallNs.Load()
	}
	*out = append(*out, na)
	for _, c := range children(n) {
		t.flatten(p, c, depth+1, out)
	}
}

// traced runs n under detail tracing: identical batch flow, plus row/batch
// counts on every emission, inclusive wall time around the node's execution
// and, in a Δ pass, the size of the pass's Δ.
func (x *exec) traced(n pnode, emit func(*vbatch)) {
	st := x.tstats[n.base().id]
	rows := int64(0)
	counted := func(b *vbatch) {
		st.Batches.Add(1)
		rows += int64(len(b.rows))
		emit(b)
	}
	start := time.Now()
	n.run(x, counted)
	st.WallNs.Add(time.Since(start).Nanoseconds())
	st.Rows.Add(rows)
	if x.delta {
		for {
			max := st.DeltaMax.Load()
			if rows <= max || st.DeltaMax.CompareAndSwap(max, rows) {
				break
			}
		}
	}
}
