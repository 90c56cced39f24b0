package plan

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"incdb/internal/algebra"
	"incdb/internal/relation"
)

// The process-wide plan cache: compiled plans keyed by the query rendering,
// evaluation mode, semantics, and the arities of the relations read (the
// only schema facts compilation consumes). Compiling the same query against
// the same schema shape therefore happens once, no matter how many times —
// or from how many goroutines — it is evaluated.
var planCache boundedCache[*Plan]

// planCacheCap bounds the process-wide caches; a workload cycling through
// more distinct queries than this simply recompiles (compilation is cheap,
// the cap only prevents unbounded growth under generated-query workloads).
const planCacheCap = 1024

// PlanFor returns the cached (or freshly compiled) plan for e.
func PlanFor(e algebra.Expr, cat algebra.Catalog, mode algebra.Mode, bag bool) *Plan {
	return planCache.get(cacheKey(e, cat, mode, bag, true), func() *Plan { return compile(e, cat, mode, bag) })
}

// The process-wide logical-optimization cache: Optimize is pure in the
// expression and the arities of the relations it mentions, so repeated
// evaluation of the same query — the planner compiling main plans and IN
// subplans, and ctable.Eval optimizing before its own row machinery —
// shares one rewrite.
var optCache boundedCache[algebra.Expr]

// OptimizedFor returns the cached (or freshly computed) logical
// optimization of e over cat.
func OptimizedFor(e algebra.Expr, cat algebra.Catalog) algebra.Expr {
	return optCache.get(cacheKey(e, cat, 0, false, false), func() algebra.Expr { return Optimize(e, cat) })
}

// boundedCache is a process-wide cache of at most planCacheCap values.
type boundedCache[T any] struct {
	m    sync.Map // string → T
	size atomic.Int64
}

// get returns the value under key, computing it on a miss and keeping it
// while there is room.
func (c *boundedCache[T]) get(key string, compute func() T) T {
	if v, ok := c.m.Load(key); ok {
		return v.(T)
	}
	v := compute()
	if c.size.Load() < planCacheCap {
		if _, loaded := c.m.LoadOrStore(key, v); !loaded {
			c.size.Add(1)
		}
	}
	return v
}

// cacheKey renders the facts a cached artifact depends on. Logical rewrites
// and PrepCache entries (withStats false) are keyed by the query and the
// relation arities. Physical plans (withStats true) additionally fold in
// each read relation's statistics epoch — its log₂ cardinality class — so a
// plan compiled for one data size is reused until a relation roughly doubles
// or halves, at which point the cost-based join order may flip and the plan
// recompiles (a PrepCache entry re-costs then: Prepared.recost). The coarse
// bucketing keeps per-row mutations from thrashing the cache.
func cacheKey(e algebra.Expr, cat algebra.Catalog, mode algebra.Mode, bag bool, withStats bool) string {
	// Appended by hand: this runs on every evaluation, before any cache can
	// help, and fmt costs more than the rest of a small query's execution.
	var b strings.Builder
	b.WriteString(e.String())
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(mode)))
	b.WriteByte('|')
	b.WriteString(strconv.FormatBool(bag))
	names, _ := algebra.RelationsOf(e)
	stats, _ := cat.(statsProvider)
	for _, n := range names {
		b.WriteByte('|')
		b.WriteString(n)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(cat.Arity(n)))
		if withStats && stats != nil {
			if rel := stats.Relation(n); rel != nil {
				b.WriteByte('@')
				b.WriteString(strconv.FormatUint(rel.StatsEpoch(), 10))
			}
		}
	}
	return b.String()
}

// Eval evaluates e on db under set semantics through the planner; it is the
// planned counterpart of algebra.Eval and produces identical results.
func Eval(db *relation.Database, e algebra.Expr, mode algebra.Mode) *relation.Relation {
	return PlanFor(e, db, mode, false).Exec(db)
}

// EvalBag evaluates e on db under bag semantics through the planner.
func EvalBag(db *relation.Database, e algebra.Expr, mode algebra.Mode) *relation.Relation {
	return PlanFor(e, db, mode, true).Exec(db)
}

func init() {
	// Installing the planner makes algebra.Eval/EvalBag planned-by-default
	// in every binary that (transitively) links this package; the
	// interpreter stays reachable as algebra.EvalInterp/EvalBagInterp.
	algebra.RegisterPlanner(func(db *relation.Database, e algebra.Expr, mode algebra.Mode, bag bool) *relation.Relation {
		return PlanFor(e, db, mode, bag).Exec(db)
	})
}
