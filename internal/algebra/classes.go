package algebra

import (
	"fmt"
	"maps"
	"slices"

	"incdb/internal/relation"
	"incdb/internal/value"
)

// Classes partitions the (relation, column) positions a query reads into
// the classes of values it compares: = and ≠ between columns, IN, ⋉⇑ and the
// alignment of ∪, −, ∩ and ÷ merge classes; projection carries them. A class
// holds the constants the query compares it with and those filed at its
// positions; a null filed at two positions merges them. Genericity holds
// class by class (Section 2), except in a class pinned by an order
// comparison, which no bijection preserves, or by an unmodelled condition.
type Classes struct {
	class  []int                      // a slot's class, named by one of its slots
	pinned []bool                     // by class
	consts []map[value.Value]struct{} // by class: the constants filed under it
	nulls  map[uint64]int             // a slot of each filed null
	rels   map[string][]int           // a read relation's column slots
	out    []int                      // the output's column slots
	dom    bool                       // e reads the active domain
}

// ColumnClasses computes the column classes of e over db and files the rows
// of the relations e reads. When e reads the active domain no class has
// values of its own: every null is unclassed.
func ColumnClasses(e Expr, db *relation.Database) *Classes {
	c := &Classes{nulls: map[uint64]int{}, rels: map[string][]int{}}
	c.out = c.expr(e, db)
	for name, cols := range c.rels {
		if rel := db.Relation(name); rel != nil {
			rel.EachUnordered(func(t value.Tuple, _ int) { c.add(cols, t) })
		}
	}
	return c
}

// WithAnswer returns a copy of c with t, a tuple asked about as the query's
// answer, filed under the output's columns.
func (c *Classes) WithAnswer(t value.Tuple) *Classes {
	d := *c
	d.class, d.pinned, d.nulls = slices.Clone(c.class), slices.Clone(c.pinned), maps.Clone(c.nulls)
	d.consts = make([]map[value.Value]struct{}, len(c.consts))
	for k, set := range c.consts {
		d.consts[k] = maps.Clone(set)
	}
	if len(t) == len(d.out) {
		d.add(d.out, t)
	}
	return &d
}

func (c *Classes) add(slots []int, t value.Tuple) {
	for i, v := range t {
		switch {
		case v.IsConst():
			c.file(slots[i], v)
		case v.IsNull():
			if _, ok := c.nulls[v.NullID()]; !ok {
				c.nulls[v.NullID()] = slots[i]
			}
			c.union(c.nulls[v.NullID()], slots[i])
		}
	}
}

func (c *Classes) file(slot int, v value.Value) {
	k := c.class[slot]
	if c.consts[k] == nil {
		c.consts[k] = map[value.Value]struct{}{}
	}
	c.consts[k][v] = struct{}{}
}

// Class returns the class of the null with identifier id, or -1 when no
// filed row holds it, its class is pinned, or the query reads the active
// domain. A zero Classes has no classes.
func (c *Classes) Class(id uint64) int {
	if s, ok := c.nulls[id]; ok && !c.dom && !c.pinned[c.class[s]] {
		return c.class[s]
	}
	return -1
}

// Consts returns the constants filed under class k, in value order.
func (c *Classes) Consts(k int) []value.Value {
	out := make([]value.Value, 0, len(c.consts[k]))
	for v := range c.consts[k] {
		out = append(out, v)
	}
	slices.SortFunc(out, value.OrderCompare)
	return out
}

func (c *Classes) newSlots(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = len(c.class)
		c.class = append(c.class, len(c.class))
		c.pinned = append(c.pinned, false)
		c.consts = append(c.consts, nil)
	}
	return out
}

// union merges the classes of slots a and b into the one with more
// constants.
func (c *Classes) union(a, b int) {
	ka, kb := c.class[a], c.class[b]
	if ka == kb {
		return
	}
	if len(c.consts[ka]) < len(c.consts[kb]) {
		ka, kb = kb, ka
	}
	for i, k := range c.class {
		if k == kb {
			c.class[i] = ka
		}
	}
	maps.Copy(c.consts[ka], c.consts[kb]) // ka's set is nil only when kb's is empty
	c.consts[kb] = nil
	c.pinned[ka] = c.pinned[ka] || c.pinned[kb]
}

func (c *Classes) pin(a int) { c.pinned[c.class[a]] = true }

// expr returns the slots of e's output columns. The slice is never written
// in place; one that is shared is full, so that appending copies it.
func (c *Classes) expr(e Expr, cat Catalog) []int {
	switch e := e.(type) {
	case Rel:
		if _, ok := c.rels[e.Name]; !ok {
			c.rels[e.Name] = c.newSlots(cat.Arity(e.Name))
		}
		return c.rels[e.Name]
	case Dom:
		c.dom = true
		return c.newSlots(e.K)
	case Select:
		in := c.expr(e.In, cat)
		c.cond(e.Cond, in, cat)
		return in
	case Project:
		return pick(c.expr(e.In, cat), e.Cols)
	case Product:
		return append(c.expr(e.L, cat), c.expr(e.R, cat)...)
	case Union:
		return c.align(c.expr(e.L, cat), c.expr(e.R, cat))
	case Diff:
		return c.align(c.expr(e.L, cat), c.expr(e.R, cat))
	case Intersect:
		return c.align(c.expr(e.L, cat), c.expr(e.R, cat))
	case AntiUnify:
		return c.align(c.expr(e.L, cat), c.expr(e.R, cat))
	case Divide:
		l, r := c.expr(e.L, cat), c.expr(e.R, cat)
		c.align(l[len(l)-len(r):], r)
		return slices.Clip(l[:len(l)-len(r)]) // appending must not overwrite l
	}
	panic(fmt.Sprintf("algebra: unknown expression %T", e))
}

// align merges l's and r's columns pairwise and returns l.
func (c *Classes) align(l, r []int) []int {
	for i := range l {
		c.union(l[i], r[i])
	}
	return l
}

// cond merges, files and pins what a selection condition over columns in
// compares.
func (c *Classes) cond(cd Cond, in []int, cat Catalog) {
	switch cd := cd.(type) {
	case Eq:
		c.union(in[cd.I], in[cd.J])
	case Neq:
		c.union(in[cd.I], in[cd.J])
	case EqConst:
		c.file(in[cd.I], cd.C)
	case NeqConst:
		c.file(in[cd.I], cd.C)
	case Less:
		c.pin(in[cd.I])
		c.pin(in[cd.J])
	case LessConst:
		c.pin(in[cd.I])
	case GreaterConst:
		c.pin(in[cd.I])
	case IsNull, IsConst, True, False:
	case And:
		c.cond(cd.L, in, cat)
		c.cond(cd.R, in, cat)
	case Or:
		c.cond(cd.L, in, cat)
		c.cond(cd.R, in, cat)
	case Not:
		c.cond(cd.C, in, cat)
	case InSub:
		c.align(pick(in, cd.Cols), c.expr(cd.Sub, cat))
	default:
		for _, a := range in {
			c.pin(a)
		}
	}
}

func pick(in, cols []int) []int {
	out := make([]int, len(cols))
	for i, col := range cols {
		out[i] = in[col]
	}
	return out
}
