package algebra

// Walk visits e and everything below it in pre-order, handing every
// expression node to fe and every condition node to fc; a node's children
// are visited only when its visitor returns true, and a nil visitor always
// descends. It is the one place that lists each operator's children: σ's
// input and then its condition, the two inputs of ×, ∪, −, ∩, ÷ and ⋉⇑,
// the operands of ∧, ∨ and ¬, and an IN atom's subquery. Rel, Dom and the
// comparison atoms are leaves.
func Walk(e Expr, fe func(Expr) bool, fc func(Cond) bool) {
	if fe != nil && !fe(e) {
		return
	}
	switch e := e.(type) {
	case Select:
		Walk(e.In, fe, fc)
		walkCond(e.Cond, fe, fc)
	case Project:
		Walk(e.In, fe, fc)
	case Product:
		Walk(e.L, fe, fc)
		Walk(e.R, fe, fc)
	case Union:
		Walk(e.L, fe, fc)
		Walk(e.R, fe, fc)
	case Diff:
		Walk(e.L, fe, fc)
		Walk(e.R, fe, fc)
	case Intersect:
		Walk(e.L, fe, fc)
		Walk(e.R, fe, fc)
	case Divide:
		Walk(e.L, fe, fc)
		Walk(e.R, fe, fc)
	case AntiUnify:
		Walk(e.L, fe, fc)
		Walk(e.R, fe, fc)
	}
}

// walkCond is Walk starting from a condition.
func walkCond(c Cond, fe func(Expr) bool, fc func(Cond) bool) {
	if fc != nil && !fc(c) {
		return
	}
	switch c := c.(type) {
	case And:
		walkCond(c.L, fe, fc)
		walkCond(c.R, fe, fc)
	case Or:
		walkCond(c.L, fe, fc)
		walkCond(c.R, fe, fc)
	case Not:
		walkCond(c.C, fe, fc)
	case InSub:
		Walk(c.Sub, fe, fc)
	}
}

// HasIn reports whether c contains an IN-subquery atom.
func HasIn(c Cond) bool {
	found := false
	walkCond(c, nil, func(c Cond) bool {
		_, in := c.(InSub)
		found = found || in
		return !found
	})
	return found
}
