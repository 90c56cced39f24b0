package algebra

import (
	"reflect"
	"sort"
	"testing"

	"incdb/internal/value"
)

// TestWalkVisitsEveryNodeOnce builds one expression with every Expr kind
// and every Cond kind, an IN nested two levels deep, and checks that Walk
// hands each node to its visitor exactly once, that a visitor returning
// false prunes the node's children, and what ConstsOf, RelationsOf and
// HasIn read off the same expression.
func TestWalkVisitsEveryNodeOnce(t *testing.T) {
	var want []string
	ex := func(e Expr) Expr { want = append(want, e.String()); return e }
	co := func(c Cond) Cond { want = append(want, c.String()); return c }
	c := value.Const

	inner := ex(Select{In: ex(Rel{"V"}), Cond: co(EqConst{0, c("k3")})})
	outer := ex(Select{
		In:   ex(Project{In: ex(Rel{"W"}), Cols: []int{0}}),
		Cond: co(And{co(InSub{Cols: []int{0}, Sub: inner}), co(LessConst{0, c("k1")})}),
	})
	atoms := co(And{
		co(Or{co(Eq{0, 1}), co(Neq{1, 2})}),
		co(And{
			co(Not{co(Less{2, 3})}),
			co(And{
				co(Or{co(NeqConst{3, c("k2")}), co(GreaterConst{4, c("k0")})}),
				co(Or{co(IsNull{5}), co(IsConst{6})}),
			}),
		}),
	})
	cond := co(And{atoms, co(And{co(Or{co(True{}), co(False{})}), co(InSub{Cols: []int{1}, Sub: outer})})})
	e := ex(Select{
		In: ex(Union{
			L: ex(Diff{
				L: ex(Product{L: ex(Rel{"R"}), R: ex(Dom{K: 1})}),
				R: ex(Intersect{L: ex(Rel{"S"}), R: ex(Rel{"T"})}),
			}),
			R: ex(AntiUnify{
				L: ex(Divide{L: ex(Rel{"U"}), R: ex(Rel{"S2"})}),
				R: ex(Project{In: ex(Rel{"R2"}), Cols: []int{0, 1}}),
			}),
		}),
		Cond: cond,
	})

	var got []string
	Walk(e, func(e Expr) bool { got = append(got, e.String()); return true },
		func(c Cond) bool { got = append(got, c.String()); return true })
	sort.Strings(want)
	sort.Strings(got)
	for i := 1; i < len(want); i++ {
		if want[i] == want[i-1] {
			t.Fatalf("the fixture repeats node %s: visits could not be told apart", want[i])
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Walk visited %d nodes, built %d:\n got %q\nwant %q", len(got), len(want), got, want)
	}

	// Pruning at the first IN keeps its subquery, and the IN below it, out.
	seen := map[string]bool{}
	Walk(e, func(e Expr) bool { seen[e.String()] = true; return true },
		func(c Cond) bool { _, in := c.(InSub); return !in })
	if seen["W"] || seen["V"] || !seen["S2"] {
		t.Fatalf("pruning at IN: visited %v", seen)
	}
	// Pruning at ⋉⇑ keeps both of its inputs out.
	clear(seen)
	Walk(e, func(e Expr) bool { seen[e.String()] = true; _, au := e.(AntiUnify); return !au }, nil)
	if seen["U"] || seen["R2"] || !seen["V"] {
		t.Fatalf("pruning at ⋉⇑: visited %v", seen)
	}

	if got, want := ConstsOf(e), []value.Value{c("k0"), c("k1"), c("k2"), c("k3")}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ConstsOf = %v, want %v", got, want)
	}
	names, usesDom := RelationsOf(e)
	if want := []string{"R", "R2", "S", "S2", "T", "U", "V", "W"}; !reflect.DeepEqual(names, want) || !usesDom {
		t.Fatalf("RelationsOf = %v, %v; want %v, true", names, usesDom, want)
	}
	if !HasIn(cond) || !HasIn(outer.(Select).Cond) || HasIn(atoms) || HasIn(inner.(Select).Cond) {
		t.Fatalf("HasIn: %v %v %v %v, want true true false false",
			HasIn(cond), HasIn(outer.(Select).Cond), HasIn(atoms), HasIn(inner.(Select).Cond))
	}
}
