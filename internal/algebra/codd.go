package algebra

import (
	"incdb/internal/relation"
)

// CoddCommutes tests the property discussed in Section 6 ("Marked nulls"):
// whether interpreting SQL nulls as non-repeating marked nulls commutes
// with query evaluation, i.e. whether Q(codd(D)) and codd(Q(D)) coincide
// up to a renaming of nulls. The paper notes this fails in general and
// that the class of queries enjoying it has no syntactic characterization
// [39]; this checker provides the semantic test. Evaluation is naive and
// set-based.
func CoddCommutes(db *relation.Database, q Expr) bool {
	left := EvalInterp(relation.Codd(db), q, ModeNaive)
	right := coddRelation(EvalInterp(db, q, ModeNaive))
	return relation.EqualUpToNullRenaming(left, right)
}

// coddRelation renumbers every null occurrence in a single relation.
func coddRelation(r *relation.Relation) *relation.Relation {
	wrap := relation.NewDatabase()
	wrap.Add(r.Clone())
	return relation.Codd(wrap).Relation(r.Name())
}
