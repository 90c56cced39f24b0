package algebra

import (
	"sort"

	"incdb/internal/value"
)

// ConstsOf returns the constants mentioned in the query's conditions, in
// deterministic order. Queries mentioning constants are generic only with
// respect to bijections fixing them (Section 2), so certain-answer
// computations must keep these constants in the valuation range.
func ConstsOf(e Expr) []value.Value {
	seen := map[value.Value]bool{}
	Walk(e, nil, func(c Cond) bool {
		switch c := c.(type) {
		case EqConst:
			seen[c.C] = true
		case NeqConst:
			seen[c.C] = true
		case LessConst:
			seen[c.C] = true
		case GreaterConst:
			seen[c.C] = true
		}
		return true
	})
	out := make([]value.Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return value.OrderLess(out[i], out[j]) })
	return out
}

// RelationsOf returns the names of the base relations the query reads,
// and whether it reads the whole active domain (a Dom node), in which case
// every relation is effectively read.
func RelationsOf(e Expr) (names []string, usesDom bool) {
	set := map[string]bool{}
	Walk(e, func(e Expr) bool {
		switch e := e.(type) {
		case Rel:
			set[e.Name] = true
		case Dom:
			usesDom = true
		}
		return true
	}, nil)
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, usesDom
}
