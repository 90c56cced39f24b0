package plan

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"incdb/internal/algebra"
)

// Plan is a physical query plan: compiled once from an algebra expression,
// executable any number of times — concurrently — against databases over
// the same schema. A Plan holds no per-execution state; the pool only
// recycles execution state between executions (exec.go).
type Plan struct {
	root  pnode
	nodes []pnode // every node, indexed by its id (Prepared slots)
	subs  []*Plan // IN-subquery plans, deduplicated by rendering
	mode  algebra.Mode
	bag   bool
	// subIdx is an IN subplan's position in the top-level plan's subs.
	subIdx int

	arity int
	// outName/outIsRel reproduce the reference interpreter's output naming:
	// the root operator's symbol, or the source relation's name (and
	// attribute labels) when the query is a bare relation reference.
	outName  string
	outIsRel bool

	// pool recycles execs — batch buffers, arena slabs, Δ sets — so that an
	// oracle worker shard evaluating worlds back to back, and a server
	// evaluating requests back to back, keep reusing warm state.
	pool sync.Pool
}

// Arity returns the plan's output arity.
func (p *Plan) Arity() int { return p.arity }

// readSet is the set of base relations a subtree reads, plus whether it
// reads the whole active domain (Dom): what a Prepared's version guards
// cover.
type readSet struct {
	names []string // sorted, distinct
	dom   bool
}

func (a readSet) union(b readSet) readSet {
	out := readSet{dom: a.dom || b.dom}
	out.names = append(append([]string{}, a.names...), b.names...)
	sort.Strings(out.names)
	j := 0
	for i, n := range out.names {
		if i == 0 || n != out.names[j-1] {
			out.names[j] = n
			j++
		}
	}
	out.names = out.names[:j]
	return out
}

// pnode is one physical operator. Concrete nodes embed pbase and implement
// run (batched emission of the current phase's part); callers go through
// the stream dispatcher in exec.go.
type pnode interface {
	base() *pbase
	run(x *exec, emit func(*vbatch))
	describe() string
}

// pbase carries the per-node compile-time facts: identity, output width
// (after column narrowing), read set, and the cost model's annotations —
// est is the estimated output cardinality (-1 unknown) and colDist the
// per-output-column distinct-value estimates (nil unknown). Estimates are
// advisory: they steer join ordering and explain output, never results.
type pbase struct {
	id    int
	width int
	reads readSet

	est     float64
	colDist []float64
}

func (b *pbase) base() *pbase { return b }

// Physical operators.

// pscan reads one base relation. cols, when non-nil, is the pruned column
// mask applied at the scan: only those columns (ascending) are emitted, so
// every downstream condition and key is already re-indexed through it.
type pscan struct {
	pbase
	name string
	cols []int
	// nullFrac holds per-emitted-column null fractions from the stats
	// block, feeding IsNull/IsConst selectivities for filters directly
	// above the scan.
	nullFrac []float64
}

type pfilter struct {
	pbase
	in    pnode
	conds []pcond
}

type pproject struct {
	pbase
	in   pnode
	cols []int
}

// pjoin is one step of a left-deep n-ary join: probe tuples stream out of
// left, the frozen part of the right input is built into a multi-key hash
// table once per Prepared (and the left one too, when Δr probes it). With
// no keys it
// degenerates into the nested-loop cross product. residual conditions are
// those decidable once left++right columns are available (indexed over the
// full left++right concatenation). cost is the cost model's step cost
// (estimated intermediate rows + build size; -1 unknown).
//
// outCols, when non-nil, is a projection folded into the join: instead of
// emitting the full concatenation and paying a separate projection pass,
// the join emits exactly those concatenation columns. width is then
// len(outCols), not left+right.
type pjoin struct {
	pbase
	left, right  pnode
	lkeys, rkeys []int
	residual     []pcond
	outCols      []int
	cost         float64
}

// pbinary is the shape of the two-input operators other than the join.
type pbinary struct {
	pbase
	l, r pnode
}

func (b *pbinary) operands() (l, r pnode) { return b.l, b.r }

type (
	punion     struct{ pbinary }
	pdiff      struct{ pbinary }
	pinter     struct{ pbinary }
	pdivide    struct{ pbinary }
	pantiunify struct{ pbinary }
)

// pdistinct eliminates duplicate tuples from its input stream, emitting
// each distinct tuple exactly once with multiplicity one. The compiler
// places it at the root of every IN subplan: IN only probes set
// membership on the probed columns, so the hash sides built from the
// subquery result (the membership set and the SQL-mode null split) are
// fed deduplicated rows instead of absorbing one insertion per duplicate
// the subplan emits — the semi-join reduction of wide subquery results.
type pdistinct struct {
	pbase
	in pnode
}

type pdom struct {
	pbase
	k int
}

// inputs returns a node's operator inputs: none, one (l) or two.
func inputs(n pnode) (l, r pnode) {
	switch n := n.(type) {
	case *pfilter:
		return n.in, nil
	case *pproject:
		return n.in, nil
	case *pdistinct:
		return n.in, nil
	case *pjoin:
		return n.left, n.right
	case interface{ operands() (l, r pnode) }:
		return n.operands()
	}
	return nil, nil
}

// children returns the inputs as a slice, for the tree walks of EXPLAIN.
func children(n pnode) []pnode {
	switch l, r := inputs(n); {
	case r != nil:
		return []pnode{l, r}
	case l != nil:
		return []pnode{l}
	}
	return nil
}

// Compile builds the physical plan for e under set semantics.
func Compile(e algebra.Expr, cat algebra.Catalog, mode algebra.Mode) *Plan {
	return compile(e, cat, mode, false)
}

// CompileBag builds the physical plan for e under bag semantics.
func CompileBag(e algebra.Expr, cat algebra.Catalog, mode algebra.Mode) *Plan {
	return compile(e, cat, mode, true)
}

func compile(e algebra.Expr, cat algebra.Catalog, mode algebra.Mode, bag bool) *Plan {
	p := &Plan{mode: mode, bag: bag, arity: algebra.Arity(e, cat)}
	p.outName, p.outIsRel = rootName(e)
	c := &compiler{p: p, top: p, cat: cat, subIdx: map[string]*Plan{}}
	c.stats, _ = cat.(statsProvider)
	p.root = c.compile(OptimizedFor(e, cat), nil)
	return p
}

// rootName maps the original root operator to the output relation name the
// reference interpreter would produce.
func rootName(e algebra.Expr) (string, bool) {
	switch e := e.(type) {
	case algebra.Rel:
		return e.Name, true
	case algebra.Select:
		return "σ", false
	case algebra.Project:
		return "π", false
	case algebra.Product:
		return "×", false
	case algebra.Union:
		return "∪", false
	case algebra.Diff:
		return "−", false
	case algebra.Intersect:
		return "∩", false
	case algebra.Divide:
		return "÷", false
	case algebra.AntiUnify:
		return "⋉⇑", false
	case algebra.Dom:
		return "Dom", false
	}
	return "q", false
}

type compiler struct {
	p     *Plan // plan whose node list this compiler fills
	top   *Plan // top-level plan: owns the flat subplan list
	cat   algebra.Catalog
	stats statsProvider // nil when the catalog carries no statistics
	// subIdx deduplicates IN subqueries by rendering across all nesting
	// levels, mirroring the interpreter's rendering-keyed subquery cache.
	subIdx map[string]*Plan
}

func (c *compiler) newBase(width int, reads readSet) pbase {
	return pbase{id: -1, width: width, reads: reads, est: -1}
}

// binary is the base of a two-input operator of width w over l and r.
func (c *compiler) binary(w int, l, r pnode) pbinary {
	return pbinary{c.newBase(w, l.base().reads.union(r.base().reads)), l, r}
}

// register assigns the node its id and records it on the plan.
func (c *compiler) register(n pnode) pnode {
	n.base().id = len(c.p.nodes)
	c.p.nodes = append(c.p.nodes, n)
	return n
}

// Column-mask helpers. A needed-column mask over an expression's syntactic
// output is nil when every column is needed; compile's contract is that the
// returned node emits exactly the needed columns in ascending syntactic
// order.

func isFullMask(need []bool) bool {
	for _, b := range need {
		if !b {
			return false
		}
	}
	return true
}

func keepCols(need []bool) []int {
	var out []int
	for i, b := range need {
		if b {
			out = append(out, i)
		}
	}
	return out
}

// rankOf maps each syntactic column to its position in the narrowed output
// (-1 when dropped).
func rankOf(need []bool) []int {
	out := make([]int, len(need))
	k := 0
	for i, b := range need {
		if b {
			out[i] = k
			k++
		} else {
			out[i] = -1
		}
	}
	return out
}

func isIdentity(cols []int) bool {
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// compile builds the physical node for e emitting exactly the columns of
// need (nil: all) in ascending syntactic order. Masks propagate through
// π, σ, ×, ∪ — the operators whose semantics are per-column — and stop at
// the whole-tuple operators (−, ∩, ÷, ⋉⇑, Dom), whose inputs compile full
// and whose output is narrowed above; that keeps multiplicities and
// three-valued behaviour byte-identical to the interpreter under both
// semantics, since narrowing never merges rows mid-stream (set-semantics
// duplicates collapse only at materialization boundaries, as before).
func (c *compiler) compile(e algebra.Expr, need []bool) pnode {
	if need != nil && isFullMask(need) {
		need = nil
	}
	switch e := e.(type) {
	case algebra.Select, algebra.Product:
		return c.compileCluster(e, need)
	case algebra.Rel:
		ar := c.cat.Arity(e.Name)
		if ar < 0 {
			panic("plan: unknown relation " + e.Name)
		}
		w := ar
		var cols []int
		if need != nil {
			// Non-nil even when the mask is empty (an input joined only for
			// its row count): nil cols means the full-width scan.
			cols = make([]int, 0, w)
			cols = append(cols, keepCols(need)...)
			w = len(cols)
		}
		n := &pscan{
			pbase: c.newBase(w, readSet{names: []string{e.Name}}),
			name:  e.Name, cols: cols,
		}
		c.annotateScan(n, ar)
		return c.register(n)
	case algebra.Project:
		inAr := algebra.Arity(e.In, c.cat)
		childNeed := make([]bool, inAr)
		for i, col := range e.Cols {
			if need == nil || need[i] {
				childNeed[col] = true
			}
		}
		in := c.compile(e.In, childNeed)
		rank := rankOf(childNeed)
		cols := make([]int, 0, len(e.Cols))
		for i, col := range e.Cols {
			if need == nil || need[i] {
				cols = append(cols, rank[col])
			}
		}
		return c.project(in, cols)
	case algebra.Union:
		l, r := c.compile(e.L, need), c.compile(e.R, need)
		n := &punion{c.binary(l.base().width, l, r)}
		lb, rb := l.base(), r.base()
		if lb.est >= 0 && rb.est >= 0 && lb.colDist != nil && rb.colDist != nil {
			n.est = lb.est + rb.est
			d := make([]float64, len(lb.colDist))
			for i := range d {
				d[i] = lb.colDist[i] + rb.colDist[i]
			}
			n.colDist = capDist(d, n.est)
		}
		return c.register(n)
	case algebra.Diff:
		l, r := c.compile(e.L, nil), c.compile(e.R, nil)
		n := &pdiff{c.binary(l.base().width, l, r)}
		c.annotateFromLeft(&n.pbase, l, l.base().width)
		return c.narrow(c.register(n), need)
	case algebra.Intersect:
		l, r := c.compile(e.L, nil), c.compile(e.R, nil)
		n := &pinter{c.binary(l.base().width, l, r)}
		c.annotateFromLeft(&n.pbase, l, l.base().width)
		if rb := r.base(); n.est >= 0 && rb.est >= 0 && rb.est < n.est {
			n.est = rb.est
			n.colDist = capDist(n.colDist, n.est)
		}
		return c.narrow(c.register(n), need)
	case algebra.Divide:
		l, r := c.compile(e.L, nil), c.compile(e.R, nil)
		w := l.base().width - r.base().width
		n := &pdivide{c.binary(w, l, r)}
		if lb, rb := l.base(), r.base(); lb.est >= 0 && rb.est >= 0 && lb.colDist != nil {
			n.est = lb.est / max(rb.est, 1)
			n.colDist = capDist(lb.colDist[:w], n.est)
		}
		return c.narrow(c.register(n), need)
	case algebra.AntiUnify:
		l, r := c.compile(e.L, nil), c.compile(e.R, nil)
		n := &pantiunify{c.binary(l.base().width, l, r)}
		c.annotateFromLeft(&n.pbase, l, l.base().width)
		return c.narrow(c.register(n), need)
	case algebra.Dom:
		n := &pdom{
			pbase: c.newBase(e.K, readSet{dom: true}),
			k:     e.K,
		}
		return c.narrow(c.register(n), need)
	}
	panic(fmt.Sprintf("plan: compile: unknown expression %T", e))
}

// annotateScan fills the scan's estimates from the relation's statistics
// snapshot: exact counts for the stored relation (hence exact for every
// frozen part), upper bounds for anything a valuation can still
// collapse.
func (c *compiler) annotateScan(n *pscan, ar int) {
	if c.stats == nil {
		return
	}
	rel := c.stats.Relation(n.name)
	if rel == nil {
		return
	}
	st := rel.Stats()
	n.est = float64(st.Size)
	cols := n.cols
	if cols == nil {
		cols = make([]int, ar)
		for i := range cols {
			cols[i] = i
		}
	}
	n.colDist = make([]float64, len(cols))
	n.nullFrac = make([]float64, len(cols))
	rows := max(float64(st.Rows), 1)
	for i, col := range cols {
		n.colDist[i] = max(float64(st.ColDistinct[col]), 1)
		n.nullFrac[i] = float64(st.ColNulls[col]) / rows
	}
}

// annotateFromLeft copies the left input's estimates onto a node whose
// output is (a subset of) its left input — diff, intersect, anti-unify.
func (c *compiler) annotateFromLeft(b *pbase, l pnode, w int) {
	if lb := l.base(); lb.est >= 0 && lb.colDist != nil {
		b.est = lb.est
		b.colDist = capDist(lb.colDist[:w], b.est)
	}
}

// project wraps in with a projection onto cols, eliding identities,
// composing with a projection directly underneath (one copy pass instead of
// two; the inner node stays registered but is never reached), and folding
// into a join directly underneath (the join emits the projected columns
// straight out of the probe/build tuples, skipping the full concatenation).
func (c *compiler) project(in pnode, cols []int) pnode {
	if ip, ok := in.(*pproject); ok {
		composed := make([]int, len(cols))
		for i, cc := range cols {
			composed[i] = ip.cols[cc]
		}
		cols, in = composed, ip.in
	}
	if len(cols) == in.base().width && isIdentity(cols) {
		return in
	}
	if j, ok := in.(*pjoin); ok {
		b := j.base()
		if b.colDist != nil {
			d := make([]float64, len(cols))
			for i, cc := range cols {
				d[i] = b.colDist[cc]
			}
			b.colDist = d
		}
		if j.outCols != nil {
			composed := make([]int, len(cols))
			for i, cc := range cols {
				composed[i] = j.outCols[cc]
			}
			j.outCols = composed
		} else {
			// Non-nil even when empty: a nil outCols emits every column.
			j.outCols = append(make([]int, 0, len(cols)), cols...)
		}
		b.width = len(cols)
		return j
	}
	p := &pproject{
		pbase: c.newBase(len(cols), in.base().reads),
		in:    in, cols: cols,
	}
	if b := in.base(); b.est >= 0 && b.colDist != nil {
		p.est = b.est
		d := make([]float64, len(cols))
		for i, cc := range cols {
			d[i] = b.colDist[cc]
		}
		p.colDist = d
	}
	return c.register(p)
}

// narrow wraps a full-width node in a projection keeping only the needed
// columns (ascending). Whole-tuple operators compile full and narrow here.
func (c *compiler) narrow(n pnode, need []bool) pnode {
	if need == nil {
		return n
	}
	return c.project(n, keepCols(need))
}

// filterNode wraps in with the (already re-indexed) conditions, estimating
// the result cardinality from the input's column statistics. Conjuncts that
// probe an IN subquery get a filter of their own above the others: when the
// subquery's result changes — with the world, or by an append — only they are
// decided again, over the rows the cheap conjuncts let through.
func (c *compiler) filterNode(in pnode, conds []algebra.Cond) pnode {
	var plain, probing []algebra.Cond
	for _, cond := range conds {
		if algebra.HasIn(cond) {
			probing = append(probing, cond)
		} else {
			plain = append(plain, cond)
		}
	}
	if plain != nil && probing != nil {
		return c.filterNode(c.filterNode(in, plain), probing)
	}
	pcs := make([]pcond, len(conds))
	for i, cond := range conds {
		pcs[i] = c.compileCond(cond)
	}
	n := &pfilter{
		pbase: c.newBase(in.base().width, in.base().reads.union(condReads(pcs))),
		in:    in, conds: pcs,
	}
	if b := in.base(); b.est >= 0 && b.colDist != nil {
		sel := 1.0
		dist, nulls := distOfNode(in), nullFracOfNode(in)
		for _, cond := range conds {
			sel *= selCond(cond, dist, nulls)
		}
		n.est = b.est * sel
		n.colDist = capDist(b.colDist, n.est)
	}
	return c.register(n)
}

// conjunct is one selection conjunct positioned over the flattened join
// cluster, with the columns it reads (already shifted to cluster-global
// positions).
type conjunct struct {
	cond algebra.Cond
	cols []int
}

// compileCluster normalizes a maximal σ/× cluster into an n-ary join graph:
// the cluster's product leaves become join inputs, its selection conjuncts
// become join keys (cross-input equalities), input-local filters, or
// residual conditions applied as soon as their columns are available.
// Inputs are narrowed to the columns the caller needs plus the columns any
// conjunct reads, then joined left-deep in the cost model's order (the
// syntactic order when estimates are unavailable); a final projection
// restores the needed syntactic column order when the join order or the
// conjunct-only columns perturbed it.
func (c *compiler) compileCluster(e algebra.Expr, need []bool) pnode {
	var inputs []algebra.Expr
	var offsets []int
	var widths []int
	var conjs []conjunct
	var flatten func(e algebra.Expr, off int) int // returns width
	flatten = func(e algebra.Expr, off int) int {
		switch e := e.(type) {
		case algebra.Select:
			w := flatten(e.In, off)
			for _, cj := range splitAnd(e.Cond) {
				shifted := shiftCond(cj, off)
				conjs = append(conjs, conjunct{cond: shifted, cols: condCols(shifted)})
			}
			return w
		case algebra.Product:
			lw := flatten(e.L, off)
			rw := flatten(e.R, off+lw)
			return lw + rw
		default:
			inputs = append(inputs, e)
			offsets = append(offsets, off)
			w := algebra.Arity(e, c.cat)
			widths = append(widths, w)
			return w
		}
	}
	width := flatten(e, 0)

	// The cluster-wide needed mask: the caller's needs plus every column a
	// conjunct reads (conjunct-only columns are dropped again by the final
	// projection).
	clusterNeed := make([]bool, width)
	if need == nil {
		for i := range clusterNeed {
			clusterNeed[i] = true
		}
	} else {
		copy(clusterNeed, need)
		for _, cj := range conjs {
			for _, col := range cj.cols {
				clusterNeed[col] = true
			}
		}
	}

	// Compile each input narrowed to its slice of the mask, wrapping
	// input-local conjuncts — re-indexed through the mask — as filters
	// below the join. ranks[i] maps an input-local syntactic column to its
	// narrowed position; owner maps a global column to its input.
	nodes := make([]pnode, len(inputs))
	ranks := make([][]int, len(inputs))
	owner := make([]int, width)
	used := make([]bool, len(conjs))
	for i, in := range inputs {
		lo, hi := offsets[i], offsets[i]+widths[i]
		for g := lo; g < hi; g++ {
			owner[g] = i
		}
		rank := rankOf(clusterNeed[lo:hi])
		n := c.compile(in, clusterNeed[lo:hi])
		var local []algebra.Cond
		for j, cj := range conjs {
			if used[j] || len(cj.cols) == 0 {
				continue
			}
			if cj.cols[0] >= lo && cj.cols[len(cj.cols)-1] < hi {
				local = append(local, mapCond(cj.cond, func(g int) int { return rank[g-lo] }))
				used[j] = true
			}
		}
		if local != nil {
			n = c.filterNode(n, local)
		}
		nodes[i] = n
		ranks[i] = rank
	}

	// Column-free conjuncts (False, constant comparisons after rewrites)
	// apply at the first step.
	var zeroCol []algebra.Cond
	for j, cj := range conjs {
		if !used[j] && len(cj.cols) == 0 {
			zeroCol = append(zeroCol, cj.cond)
			used[j] = true
		}
	}

	// Join ordering: cost-driven when every input carries estimates,
	// syntactic otherwise. The order never changes results — only which
	// intermediates exist and which sides build hash tables.
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	var stepEst, stepCost []float64
	if len(nodes) > 1 && costable(nodes) {
		rows := make([]float64, len(nodes))
		for i, n := range nodes {
			rows[i] = n.base().est
		}
		distGlobal := func(g int) float64 {
			i := owner[g]
			return distOfNode(nodes[i])(ranks[i][g-offsets[i]])
		}
		var cross []crossConj
		for j, cj := range conjs {
			if used[j] {
				continue
			}
			var m uint
			for _, col := range cj.cols {
				m |= uint(1) << owner[col]
			}
			cross = append(cross, crossConj{mask: m, sel: selCond(cj.cond, distGlobal, noNullFrac)})
		}
		order, stepEst, stepCost = orderJoins(rows, cross)
	}

	// Assemble the left-deep chain in the chosen order. pos maps a global
	// syntactic column to its position in the accumulated output.
	pos := make([]int, width)
	for i := range pos {
		pos[i] = -1
	}
	setPos := func(i, base int) {
		lo := offsets[i]
		for cc := 0; cc < widths[i]; cc++ {
			if ranks[i][cc] >= 0 {
				pos[lo+cc] = base + ranks[i][cc]
			}
		}
	}
	acc := nodes[order[0]]
	setPos(order[0], 0)
	if zeroCol != nil {
		acc = c.filterNode(acc, zeroCol)
	}
	accWidth := acc.base().width
	for s := 1; s < len(order); s++ {
		i := order[s]
		right := nodes[i]
		lo, hi := offsets[i], offsets[i]+widths[i]
		// Join keys: unused cross-input equalities with one side in the
		// accumulated prefix and the other in this input. Several keys form
		// one composite hash key — the multi-equality extension of the old
		// single-conjunct hash join.
		var lkeys, rkeys []int
		for j, cj := range conjs {
			if used[j] {
				continue
			}
			eq, ok := cj.cond.(algebra.Eq)
			if !ok {
				continue
			}
			li, ri := eq.I, eq.J
			if ri < lo || ri >= hi {
				li, ri = ri, li
			}
			if pos[li] >= 0 && ri >= lo && ri < hi {
				lkeys = append(lkeys, pos[li])
				rkeys = append(rkeys, ranks[i][ri-lo])
				used[j] = true
			}
		}
		// Residuals: every remaining conjunct decidable once the prefix and
		// this input's columns are concatenated. Conjuncts with an IN atom
		// stay out: a join distributes over its input rows only if its
		// conditions do not vary with the world, and an IN subquery's result
		// can; they guard the top as a filter, which can be a barrier.
		var residual []pcond
		for j, cj := range conjs {
			if used[j] || len(cj.cols) == 0 || algebra.HasIn(cj.cond) {
				continue
			}
			avail := true
			for _, col := range cj.cols {
				if pos[col] < 0 && (col < lo || col >= hi) {
					avail = false
					break
				}
			}
			if !avail {
				continue
			}
			re := mapCond(cj.cond, func(g int) int {
				if p := pos[g]; p >= 0 {
					return p
				}
				return accWidth + ranks[i][g-lo]
			})
			residual = append(residual, c.compileCond(re))
			used[j] = true
		}
		reads := acc.base().reads.union(right.base().reads).union(condReads(residual))
		j := &pjoin{
			pbase: c.newBase(accWidth+right.base().width, reads),
			left:  acc, right: right,
			lkeys: lkeys, rkeys: rkeys,
			residual: residual,
			cost:     -1,
		}
		if stepEst != nil {
			j.est = stepEst[s]
			j.cost = stepCost[s]
			if lb, rb := acc.base(), right.base(); lb.colDist != nil && rb.colDist != nil {
				d := make([]float64, 0, j.width)
				d = append(d, lb.colDist...)
				d = append(d, rb.colDist...)
				j.colDist = capDist(d, j.est)
			}
		}
		acc = c.register(j)
		setPos(i, accWidth)
		accWidth += right.base().width
	}
	// What is left — cross-input conjuncts with an IN atom — guards the top.
	var top []algebra.Cond
	for j, cj := range conjs {
		if !used[j] {
			top = append(top, mapCond(cj.cond, func(g int) int { return pos[g] }))
		}
	}
	if top != nil {
		acc = c.filterNode(acc, top)
	}
	// Restore the needed syntactic column order, dropping conjunct-only
	// columns; elided when the chain already emits it.
	outCols := make([]int, 0, accWidth)
	for g := 0; g < width; g++ {
		if need == nil || need[g] {
			outCols = append(outCols, pos[g])
		}
	}
	return c.project(acc, outCols)
}

// condReads collects the read-sets of compiled conditions (IN subqueries
// make the enclosing operator depend on the subplan's reads).
func condReads(cs []pcond) readSet {
	var out readSet
	for _, c := range cs {
		eachSub(c, func(sub *Plan) { out = out.union(sub.root.base().reads) })
	}
	return out
}

// subFor compiles (or reuses) the plan of an uncorrelated IN subquery.
// Subqueries are compared set-wise by IN, so the subplan always uses set
// semantics; textually identical subqueries share one subplan, mirroring
// the interpreter's rendering-keyed cache. Nested subplans land on the
// top-level plan's flat list so that Prepare can freeze them all. The
// subplan compiles with a full mask: IN probes every output column.
func (c *compiler) subFor(e algebra.Expr) *Plan {
	key := e.String()
	if s, ok := c.subIdx[key]; ok {
		return s
	}
	sub := &Plan{mode: c.top.mode, bag: false, arity: algebra.Arity(e, c.cat)}
	sub.outName, sub.outIsRel = "in", false
	c.subIdx[key] = sub
	sub.subIdx = len(c.top.subs)
	c.top.subs = append(c.top.subs, sub)
	sc := &compiler{p: sub, top: c.top, cat: c.cat, stats: c.stats, subIdx: c.subIdx}
	inner := sc.compile(OptimizedFor(e, c.cat), nil)
	// Semi-join reduction: IN probes only set membership over the probed
	// columns, so dedup the subplan's stream before any hash side is built
	// from it (membership set, SQL null split, frozen materialization).
	sub.root = sc.register(&pdistinct{
		pbase: sc.newBase(inner.base().width, inner.base().reads),
		in:    inner,
	})
	return sub
}

// describe renders one operator for EXPLAIN output.
func (n *pscan) describe() string {
	if n.cols == nil {
		return "scan " + n.name
	}
	return "scan " + n.name + "[" + joinInts(n.cols) + "]"
}
func (n *pfilter) describe() string  { return "filter " + joinConds(n.conds) }
func (n *pproject) describe() string { return "project [" + joinInts(n.cols) + "]" }
func (n *pjoin) describe() string {
	var s string
	if len(n.lkeys) == 0 {
		s = "cross-join"
	} else {
		lw := n.left.base().width
		keys := make([]string, len(n.lkeys))
		for i := range n.lkeys {
			keys[i] = fmt.Sprintf("#%d=#%d", n.lkeys[i], lw+n.rkeys[i])
		}
		s = "hash-join " + strings.Join(keys, ",")
	}
	if len(n.residual) > 0 {
		s += " residual " + joinConds(n.residual)
	}
	if n.outCols != nil {
		s += " emit [" + joinInts(n.outCols) + "]"
	}
	return s
}
func (n *punion) describe() string     { return "union" }
func (n *pdiff) describe() string      { return "diff" }
func (n *pinter) describe() string     { return "intersect" }
func (n *pdivide) describe() string    { return "divide" }
func (n *pantiunify) describe() string { return "anti-unify" }
func (n *pdistinct) describe() string  { return "distinct (semi-join dedup)" }
func (n *pdom) describe() string       { return fmt.Sprintf("dom^%d", n.k) }

// joinInts renders column indices as "0,1,2".
func joinInts(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = strconv.Itoa(c)
	}
	return strings.Join(parts, ",")
}

// joinConds renders a conjunction.
func joinConds(conds []pcond) string {
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = c.String()
	}
	return strings.Join(parts, " ∧ ")
}
