package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"incdb/internal/algebra"
	"incdb/internal/relation"
)

// ExplainNode is one physical operator in a structured plan rendering.
// Against a prepared base every node's result in a world is
// frozen part ∪ Δ(world). Frozen marks a node whose whole result is
// world-invariant (Δ always empty); Barrier marks a node that does not
// distribute over its inputs, whose frozen part is empty and which
// re-emits its whole output per world; BuildFrozen marks a varying join
// whose right input is frozen whole; Rederived marks a node whose frozen
// part the last advance of the Prepared could not fold the appended rows
// into and dropped, to be re-derived on next use. FrozenRows is the size of
// the node's
// frozen part (known for scans, and for every node once it has executed),
// DeltaRows the largest per-world Δ: the number of null rows for a scan,
// otherwise the maximum seen under ANALYZE. Children are always populated —
// text rendering elides them below frozen nodes, JSON consumers see the
// full tree.
// EstRows is the cost model's estimated output cardinality (absent when the
// catalog carries no statistics), Cost a join step's estimated cost
// (intermediate rows plus hash-build size), and Columns the pruned column
// mask a narrowed scan emits.
type ExplainNode struct {
	Op          string         `json:"op"`
	Frozen      bool           `json:"frozen,omitempty"`
	BuildFrozen bool           `json:"build_frozen,omitempty"`
	Barrier     bool           `json:"barrier,omitempty"`
	Rederived   bool           `json:"rederived,omitempty"`
	FrozenRows  *int64         `json:"frozen_rows,omitempty"`
	DeltaRows   *int64         `json:"delta_rows,omitempty"`
	EstRows     *float64       `json:"est_rows,omitempty"`
	Cost        float64        `json:"cost,omitempty"`
	Columns     []int          `json:"columns,omitempty"`
	ActualRows  *int64         `json:"actual_rows,omitempty"`
	Batches     int64          `json:"batches,omitempty"`
	WallMs      float64        `json:"wall_ms,omitempty"`
	Children    []*ExplainNode `json:"children,omitempty"`
}

// ExplainInfo is the structured form of EXPLAIN output: the one rendering
// path shared by the incdbctl explain subcommand (text and -format json)
// and the server's /v1/explain endpoint.
type ExplainInfo struct {
	Query       string           `json:"query"`
	Logical     string           `json:"logical"`
	Mode        string           `json:"mode"`
	Semantics   string           `json:"semantics"`
	Physical    *ExplainNode     `json:"physical"`
	Subqueries  []*ExplainNode   `json:"subqueries,omitempty"`
	UsedColumns map[string][]int `json:"used_columns,omitempty"`
	// AppendsAbsorbed counts the appended rows the prepared state has been
	// advanced across since it was prepared (zero for a fresh one).
	AppendsAbsorbed int `json:"appends_absorbed,omitempty"`

	// Analyze fields: populated by Describe with analyze after an instrumented
	// execution. Actual per-node rows/batches/wall time land on the
	// ExplainNodes; the totals below summarize the run.
	Analyzed    bool    `json:"analyzed,omitempty"`
	ResultRows  int64   `json:"result_rows,omitempty"`
	TotalMs     float64 `json:"total_ms,omitempty"`
	Execs       int64   `json:"execs,omitempty"`
	FrozenReuse int64   `json:"frozen_reuse,omitempty"`
}

// Describe returns the structured explain information for q against db:
// the optimized logical expression and the physical operator tree, every
// node marked with its (frozen, Δ) split — frozen parts are computed once
// and shared across all valuations. The prepared state comes from cache,
// so the markers reflect exactly the Prepared a subsequent query through
// the same cache reuses (and describing warms it); a nil cache prepares
// afresh. The used columns are read off the plan's scans: they are the
// columns whose nulls a certain-answer oracle binds (Prepared.NullIDs).
// With analyze, Describe is EXPLAIN ANALYZE: it executes the prepared plan
// once under detail tracing and reports per-node actual rows, batches and
// inclusive wall time beside the cost model's estimates. The traced
// execution streams exactly the batches an untraced run would (trace.go),
// so the answer the operator inspects is the answer a query would return.
func Describe(q algebra.Expr, db *relation.Database, mode algebra.Mode, bag bool, cache *PrepCache, analyze bool) *ExplainInfo {
	prep := cache.Get(db, q, mode, bag)
	if !analyze {
		return describeInfo(q, db, prep, nil)
	}
	tr := NewTrace(true)
	start := time.Now()
	out := prep.ExecTraced(db, tr)
	elapsed := time.Since(start)
	info := describeInfo(q, db, prep, tr)
	info.Analyzed = true
	info.ResultRows = int64(out.Len())
	info.TotalMs = float64(elapsed.Nanoseconds()) / 1e6
	info.Execs = tr.Execs.Load()
	info.FrozenReuse = tr.FrozenReuse.Load()
	return info
}

func describeInfo(q algebra.Expr, cat algebra.Catalog, prep *Prepared, tr *Trace) *ExplainInfo {
	p := prep.p
	info := &ExplainInfo{
		Query:           q.String(),
		Logical:         OptimizedFor(q, cat).String(),
		Mode:            p.mode.String(),
		Semantics:       "set",
		AppendsAbsorbed: prep.absorbed,
		UsedColumns:     usedColumns(p),
	}
	if p.bag {
		info.Semantics = "bag"
	}
	info.Physical = describeTree(p, p.root, prep, tr)
	for _, sub := range p.subs {
		info.Subqueries = append(info.Subqueries, describeTree(sub, sub.root, prep, tr))
	}
	return info
}

// usedColumns collects, per relation, the columns the scans of the main
// plan and of its IN subplans read — the scans whose partitions
// Prepared.NullIDs draws the nulls to bind from. A plan reading the active
// domain reads every column and reports none.
func usedColumns(p *Plan) map[string][]int {
	if p.root.base().reads.dom {
		return nil
	}
	used := map[string][]int{}
	for _, q := range append([]*Plan{p}, p.subs...) {
		for _, n := range q.nodes {
			s, ok := n.(*pscan)
			if !ok {
				continue
			}
			cols := s.cols
			if cols == nil {
				cols = make([]int, s.width)
				for i := range cols {
					cols[i] = i
				}
			}
			if used[s.name] == nil {
				used[s.name] = []int{} // a scan kept only for its row count
			}
			used[s.name] = append(used[s.name], cols...)
		}
	}
	for name, cols := range used {
		slices.Sort(cols)
		used[name] = slices.Compact(cols)
	}
	return used
}

func describeTree(q *Plan, n pnode, prep *Prepared, tr *Trace) *ExplainNode {
	out := &ExplainNode{Op: n.describe()}
	if b := n.base(); b.est >= 0 {
		est := b.est
		out.EstRows = &est
	}
	if j, ok := n.(*pjoin); ok && j.cost >= 0 {
		out.Cost = j.cost
	}
	if s, ok := n.(*pscan); ok {
		out.Columns = s.cols
	}
	nodes := prep.stateOf(q).nodes
	st := &nodes[n.base().id]
	out.Frozen, out.Barrier, out.Rederived = !st.varying, st.barrier, st.rederived
	if j, ok := n.(*pjoin); ok && st.varying {
		out.BuildFrozen = !nodes[j.right.base().id].varying
	}
	if rows := st.frozenRows.Load(); rows >= 0 {
		out.FrozenRows = &rows
	}
	if st.scan != nil && st.scan.rel != nil {
		nulls := int64(len(st.scan.nulls))
		rows := int64(st.scan.rel.Len()) - nulls
		out.FrozenRows, out.DeltaRows = &rows, &nulls
	}
	if st := tr.stat(q, n.base().id); st != nil {
		rows := st.Rows.Load()
		out.ActualRows = &rows
		out.Batches = st.Batches.Load()
		out.WallMs = float64(st.WallNs.Load()) / 1e6
		if out.DeltaRows == nil {
			max := st.DeltaMax.Load()
			out.DeltaRows = &max
		}
	}
	for _, c := range children(n) {
		out.Children = append(out.Children, describeTree(q, c, prep, tr))
	}
	return out
}

// Text renders the historical EXPLAIN text format from the structured
// form.
func (info *ExplainInfo) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query:    %s\n", info.Query)
	fmt.Fprintf(&b, "logical:  %s\n", info.Logical)
	fmt.Fprintf(&b, "mode:     %s, %s semantics\n", info.Mode, info.Semantics)
	if info.AppendsAbsorbed > 0 {
		fmt.Fprintf(&b, "advanced: across %d appended row(s)\n", info.AppendsAbsorbed)
	}
	if info.Analyzed {
		fmt.Fprintf(&b, "actual:   %d rows in %s (%d execution(s), %d frozen reuse(s))\n",
			info.ResultRows, fmtMs(info.TotalMs), info.Execs, info.FrozenReuse)
	}
	b.WriteString("physical:\n")
	textTree(&b, info.Physical, 1)
	for i, sub := range info.Subqueries {
		fmt.Fprintf(&b, "subquery %d (set semantics):\n", i)
		textTree(&b, sub, 1)
	}
	if info.UsedColumns != nil {
		names := make([]string, 0, len(info.UsedColumns))
		for name := range info.UsedColumns {
			names = append(names, name)
		}
		sort.Strings(names)
		b.WriteString("used columns:\n")
		for _, name := range names {
			cols := make([]string, len(info.UsedColumns[name]))
			for i, c := range info.UsedColumns[name] {
				cols[i] = fmt.Sprintf("%d", c)
			}
			fmt.Fprintf(&b, "  %s: [%s]\n", name, strings.Join(cols, ","))
		}
	}
	return b.String()
}

func textTree(b *strings.Builder, n *ExplainNode, depth int) {
	var parts []string
	if n.EstRows != nil {
		parts = append(parts, fmt.Sprintf("est≈%s", fmtEst(*n.EstRows)))
		if n.Cost > 0 {
			parts = append(parts, fmt.Sprintf("cost≈%s", fmtEst(n.Cost)))
		}
	}
	if n.ActualRows != nil {
		parts = append(parts, fmt.Sprintf("actual=%d rows", *n.ActualRows),
			fmt.Sprintf("%d batches", n.Batches), fmtMs(n.WallMs))
	}
	marker := ""
	if len(parts) > 0 {
		marker = "  (" + strings.Join(parts, ", ") + ")"
	}
	switch {
	case n.Frozen:
		marker += "  [frozen across worlds]"
	case n.Barrier && n.DeltaRows != nil:
		marker += fmt.Sprintf("  [barrier, Δ≤%d/world]", *n.DeltaRows)
	case n.Barrier:
		marker += "  [barrier]"
	case n.FrozenRows != nil && n.DeltaRows != nil:
		marker += fmt.Sprintf("  [frozen %d rows + Δ≤%d/world]", *n.FrozenRows, *n.DeltaRows)
	case n.FrozenRows != nil:
		marker += fmt.Sprintf("  [frozen %d rows + Δ]", *n.FrozenRows)
	}
	if n.BuildFrozen {
		marker += "  [build side frozen]"
	}
	if n.Rederived {
		marker += "  [re-derived after the last append]"
	}
	fmt.Fprintf(b, "%s%s%s\n", strings.Repeat("  ", depth), n.Op, marker)
	if n.Frozen {
		return // the subtree below a frozen result is never re-executed
	}
	for _, c := range n.Children {
		textTree(b, c, depth+1)
	}
}

// fmtEst renders a cardinality estimate compactly: integral values without
// a fraction, small fractional ones with one decimal.
func fmtEst(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.1f", v)
}

// fmtMs renders a duration in milliseconds with sub-millisecond precision
// for the fast nodes EXPLAIN ANALYZE mostly reports.
func fmtMs(ms float64) string {
	if ms < 1 {
		return fmt.Sprintf("%.3fms", ms)
	}
	return fmt.Sprintf("%.1fms", ms)
}
