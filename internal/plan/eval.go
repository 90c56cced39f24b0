package plan

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"incdb/internal/algebra"
	"incdb/internal/relation"
)

// The process-wide plan cache: compiled plans keyed by cacheKey. Compiling
// the same query against the same schema and size classes therefore happens
// once, no matter how many times — or from how many goroutines — it is
// evaluated.
var planCache boundedCache[*Plan]

// planCacheCap bounds the process-wide caches; a workload cycling through
// more distinct queries than this simply recompiles (compilation is cheap,
// the cap only prevents unbounded growth under generated-query workloads).
const planCacheCap = 1024

// PlanFor returns the cached (or freshly compiled) plan for e.
func PlanFor(e algebra.Expr, cat algebra.Catalog, mode algebra.Mode, bag bool) *Plan {
	key, _ := cacheKey(e, cat, mode, bag)
	return planCache.get(key, func() *Plan { return compile(e, cat, mode, bag) })
}

// The process-wide logical-optimization cache, keyed by cacheKey: Optimize
// is pure in the expression and the arities of the relations it mentions
// (the size classes in the key only split it once per class), so repeated
// evaluation of the same query — the planner compiling main plans and IN
// subplans, and ctable.Eval optimizing before its own row machinery —
// shares one rewrite.
var optCache boundedCache[algebra.Expr]

// OptimizedFor returns the cached (or freshly computed) logical
// optimization of e over cat.
func OptimizedFor(e algebra.Expr, cat algebra.Catalog) algebra.Expr {
	key, _ := cacheKey(e, cat, 0, false)
	return optCache.get(key, func() algebra.Expr { return Optimize(e, cat) })
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

// cacheKey renders the facts a cached artifact depends on: the query, the
// mode, the semantics, the arity of each relation read and, last, each one's
// statistics epoch — its log₂ cardinality class. Logical rewrites, physical
// plans and PrepCache entries all share it. A plan compiled for one data
// size is reused until a relation roughly doubles or halves, at which point
// the cost-based join order may flip and the plan recompiles; the coarse
// bucketing keeps per-row mutations from thrashing the caches. key[:n] is
// the key without the epochs, which a PrepCache keeps one entry under.
func cacheKey(e algebra.Expr, cat algebra.Catalog, mode algebra.Mode, bag bool) (key string, n int) {
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
	for _, name := range names {
		b.WriteByte('|')
		b.WriteString(name)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(cat.Arity(name)))
	}
	n = b.Len()
	if stats != nil {
		for _, name := range names {
			b.WriteByte('@')
			if rel := stats.Relation(name); rel != nil {
				b.WriteString(strconv.FormatUint(rel.StatsEpoch(), 10))
			}
		}
	}
	return b.String(), n
}

// Eval evaluates e on db under set semantics through the planner. It
// produces the same relation as the reference interpreter,
// algebra.EvalInterp.
func Eval(db *relation.Database, e algebra.Expr, mode algebra.Mode) *relation.Relation {
	return PlanFor(e, db, mode, false).Exec(db)
}

// EvalBag evaluates e on db under bag semantics through the planner; its
// reference is algebra.EvalBagInterp.
func EvalBag(db *relation.Database, e algebra.Expr, mode algebra.Mode) *relation.Relation {
	return PlanFor(e, db, mode, true).Exec(db)
}

// Naive is shorthand for Eval in ModeNaive — the Qnaïve(D) of Section 4.1.
func Naive(db *relation.Database, e algebra.Expr) *relation.Relation {
	return Eval(db, e, algebra.ModeNaive)
}

// SQL is shorthand for Eval in ModeSQL — what a SQL engine returns.
func SQL(db *relation.Database, e algebra.Expr) *relation.Relation {
	return Eval(db, e, algebra.ModeSQL)
}
