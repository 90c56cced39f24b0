// Package raparse parses the textual syntax used by the incdbctl command
// for relational algebra queries and incomplete databases.
//
// Query syntax (functional, case-insensitive keywords):
//
//	EXPR ::= IDENT                         base relation
//	       | sel(COND, EXPR)               σ
//	       | proj(COLS, EXPR)              π, e.g. proj(0 2, R)
//	       | times(EXPR, EXPR)             ×
//	       | union(EXPR, EXPR)             ∪
//	       | minus(EXPR, EXPR)             −
//	       | inter(EXPR, EXPR)             ∩
//	       | div(EXPR, EXPR)               ÷
//	       | dom(K)                        active-domain power
//
//	COND ::= eq(I, J) | eqc(I, 'lit') | neq(I, J) | neqc(I, 'lit')
//	       | lt(I, J) | ltc(I, 'lit') | gtc(I, 'lit')
//	       | isnull(I) | isconst(I)
//	       | and(COND, COND) | or(COND, COND) | not(COND)
//	       | in(COLS, EXPR)
//	       | true | false
//
// Database files are line-oriented:
//
//	# comment
//	rel Orders oid title price     — declares a relation and its attributes
//	row Orders o1 'Big Data' 30    — adds a tuple; _k denotes the null ⊥k
//
// Quoted literals may contain spaces; _1, _2, … are marked nulls (the same
// token always denotes the same null).
package raparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"incdb/internal/algebra"
	"incdb/internal/relation"
	"incdb/internal/value"
)

// ParseQuery parses the query syntax above.
func ParseQuery(src string) (algebra.Expr, error) {
	p := &parser{toks: lex(src)}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.eof() {
		return nil, fmt.Errorf("raparse: trailing input at %q", p.peek())
	}
	return e, nil
}

type parser struct {
	toks []string
	pos  int
}

func lex(src string) []string {
	var toks []string
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == ',':
			i++
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == '\'':
			j := i + 1
			for j < len(src) && src[j] != '\'' {
				j++
			}
			toks = append(toks, src[i:min(j+1, len(src))])
			i = j + 1
		default:
			j := i
			for j < len(src) && !strings.ContainsRune(" \t\n\r,()'", rune(src[j])) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() string {
	if p.eof() {
		return "<eof>"
	}
	return p.toks[p.pos]
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expect(t string) error {
	if got := p.next(); got != t {
		return fmt.Errorf("raparse: expected %q, got %q", t, got)
	}
	return nil
}

func (p *parser) parseExpr() (algebra.Expr, error) {
	if p.eof() {
		return nil, fmt.Errorf("raparse: unexpected end of input")
	}
	head := p.next()
	kw := strings.ToLower(head)
	switch kw {
	case "sel":
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		in, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return algebra.Sel(in, cond), nil
	case "proj":
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cols, err := p.parseCols()
		if err != nil {
			return nil, err
		}
		in, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return algebra.Proj(in, cols...), nil
	case "times", "union", "minus", "inter", "div":
		if err := p.expect("("); err != nil {
			return nil, err
		}
		l, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		r, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		switch kw {
		case "times":
			return algebra.Times(l, r), nil
		case "union":
			return algebra.Un(l, r), nil
		case "minus":
			return algebra.Minus(l, r), nil
		case "inter":
			return algebra.Inter(l, r), nil
		default:
			return algebra.Div(l, r), nil
		}
	case "dom":
		if err := p.expect("("); err != nil {
			return nil, err
		}
		k, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return algebra.DomK(k), nil
	case "(", ")":
		return nil, fmt.Errorf("raparse: unexpected %q", head)
	default:
		// Base relation name.
		return algebra.R(head), nil
	}
}

func (p *parser) parseCols() ([]int, error) {
	var cols []int
	for {
		if _, err := strconv.Atoi(p.peek()); err != nil {
			break
		}
		n, _ := strconv.Atoi(p.next())
		cols = append(cols, n)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("raparse: expected column list, got %q", p.peek())
	}
	return cols, nil
}

func (p *parser) parseInt() (int, error) {
	n, err := strconv.Atoi(p.peek())
	if err != nil {
		return 0, fmt.Errorf("raparse: expected integer, got %q", p.peek())
	}
	p.next()
	return n, nil
}

func (p *parser) parseLit() (value.Value, error) {
	t := p.next()
	if strings.HasPrefix(t, "'") && strings.HasSuffix(t, "'") && len(t) >= 2 {
		return value.Const(t[1 : len(t)-1]), nil
	}
	return value.Const(t), nil
}

func (p *parser) parseCond() (algebra.Cond, error) {
	head := strings.ToLower(p.next())
	switch head {
	case "true":
		return algebra.CAnd(), nil
	case "false":
		return algebra.COr(), nil
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var cond algebra.Cond
	switch head {
	case "eq", "neq", "lt":
		i, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		j, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		switch head {
		case "eq":
			cond = algebra.CEq(i, j)
		case "neq":
			cond = algebra.CNeq(i, j)
		default:
			cond = algebra.CLess(i, j)
		}
	case "eqc", "neqc", "ltc", "gtc":
		i, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		lit, err := p.parseLit()
		if err != nil {
			return nil, err
		}
		switch head {
		case "eqc":
			cond = algebra.CEqC(i, lit)
		case "neqc":
			cond = algebra.CNeqC(i, lit)
		case "ltc":
			cond = algebra.CLessC(i, lit)
		default:
			cond = algebra.CGreaterC(i, lit)
		}
	case "isnull", "isconst":
		i, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		if head == "isnull" {
			cond = algebra.CNull(i)
		} else {
			cond = algebra.CConst(i)
		}
	case "and", "or":
		l, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		r, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if head == "and" {
			cond = algebra.CAnd(l, r)
		} else {
			cond = algebra.COr(l, r)
		}
	case "not":
		c, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		cond = algebra.CNot(c)
	case "in":
		cols, err := p.parseCols()
		if err != nil {
			return nil, err
		}
		sub, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		cond = algebra.CIn(sub, cols...)
	default:
		return nil, fmt.Errorf("raparse: unknown condition %q", head)
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return cond, nil
}

// ParseDatabase reads the line-oriented database format.
func ParseDatabase(r io.Reader) (*relation.Database, error) {
	db := relation.NewDatabase()
	if err := ParseDatabaseInto(r, db); err != nil {
		return nil, err
	}
	return db, nil
}

// DBOptions selects parsing variants of the database format.
type DBOptions struct {
	// PreserveNulls maps a numeric null token _k to the null ⊥k verbatim
	// (reserving the identifier in the database's allocator) instead of
	// allocating a fresh null per first occurrence. The snapshot loader uses
	// it so that RenderDatabase output restores with identical null
	// identities; regular loads keep the fresh-null behaviour, where
	// appended data can never alias nulls loaded earlier.
	PreserveNulls bool
}

// ParseDatabaseInto parses the same format into an existing database — the
// append path of a long-lived session. A "rel" line declaring a relation
// that already exists is a no-op when the arity matches (so a file can be
// re-loaded in append mode) and an error otherwise; "row" lines add to the
// live relations, with an optional trailing *N token setting the tuple's
// multiplicity (so bag-semantics relations render and reload compactly).
// Null tokens (_k) are scoped to one parse: the same token always denotes
// the same null within the call, and every call allocates fresh nulls —
// appended data never aliases nulls loaded earlier.
//
// The whole payload is parsed and validated before anything is applied, so
// on error the database is untouched (a client can fix the input and
// re-post without duplicating the prefix); only the fresh-null allocator
// may have advanced, which is harmless — it is monotonic anyway.
func ParseDatabaseInto(r io.Reader, db *relation.Database) error {
	return ParseDatabaseIntoOpts(r, db, DBOptions{})
}

// ParseDatabaseIntoOpts is ParseDatabaseInto with explicit options.
func ParseDatabaseIntoOpts(r io.Reader, db *relation.Database, opts DBOptions) error {
	var newRels []*relation.Relation
	type rowOp struct {
		rel  *relation.Relation // existing relation, nil for a new one
		idx  int                // index into newRels when rel is nil
		t    value.Tuple
		mult int
	}
	var rows []rowOp
	staged := map[string]int{} // name → index into newRels
	arity := func(name string) (existing *relation.Relation, idx, ar int) {
		if i, ok := staged[name]; ok {
			return nil, i, newRels[i].Arity()
		}
		if rel := db.Relation(name); rel != nil {
			return rel, -1, rel.Arity()
		}
		return nil, -1, -1
	}

	nulls := map[string]value.Value{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		toks := lexLine(line)
		if len(toks) < 2 {
			return fmt.Errorf("raparse: line %d: expected 'rel NAME attrs…' or 'row NAME values…'", lineno)
		}
		switch strings.ToLower(toks[0]) {
		case "rel":
			if _, _, ar := arity(toks[1]); ar >= 0 {
				if ar != len(toks)-2 {
					return fmt.Errorf("raparse: line %d: relation %q exists with arity %d, redeclared with %d",
						lineno, toks[1], ar, len(toks)-2)
				}
				continue
			}
			if !PlainToken(toks[1]) {
				return fmt.Errorf("raparse: line %d: relation name %q is not a plain token", lineno, toks[1])
			}
			for _, a := range toks[2:] {
				if !PlainToken(a) {
					return fmt.Errorf("raparse: line %d: attribute name %q is not a plain token", lineno, a)
				}
			}
			staged[toks[1]] = len(newRels)
			newRels = append(newRels, relation.New(toks[1], toks[2:]...))
		case "row":
			rel, idx, ar := arity(toks[1])
			if ar < 0 {
				return fmt.Errorf("raparse: line %d: unknown relation %q", lineno, toks[1])
			}
			vals := toks[2:]
			mult := 1
			if len(vals) == ar+1 {
				if m, ok := multToken(vals[len(vals)-1]); ok {
					mult = m
					vals = vals[:len(vals)-1]
				}
			}
			if len(vals) != ar {
				return fmt.Errorf("raparse: line %d: %s expects %d values, got %d",
					lineno, toks[1], ar, len(vals))
			}
			t := make(value.Tuple, len(vals))
			for i, v := range vals {
				if strings.HasPrefix(v, "_") {
					if opts.PreserveNulls {
						// Only canonical _<id> tokens (what RenderDatabase
						// emits) are legal here: falling back to fresh
						// allocation could silently alias a fresh null with
						// a later verbatim one.
						id, err := strconv.ParseUint(v[1:], 10, 64)
						if err != nil || id == 0 {
							return fmt.Errorf("raparse: line %d: null token %q must be _<id> when null identifiers are preserved", lineno, v)
						}
						db.ReserveNull(id)
						t[i] = value.Null(id)
						continue
					}
					nv, ok := nulls[v]
					if !ok {
						nv = db.FreshNull()
						nulls[v] = nv
					}
					t[i] = nv
					continue
				}
				t[i] = value.Const(unquoteValue(v))
			}
			rows = append(rows, rowOp{rel: rel, idx: idx, t: t, mult: mult})
		default:
			return fmt.Errorf("raparse: line %d: unknown directive %q", lineno, toks[0])
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// Apply: the payload is fully validated, so from here on nothing fails.
	for _, rel := range newRels {
		db.Add(rel)
	}
	for _, op := range rows {
		if op.rel == nil {
			op.rel = newRels[op.idx]
		}
		op.rel.AddMult(op.t, op.mult)
	}
	return nil
}

// maxLineBytes bounds one database line; RenderDatabase escapes newlines,
// so even pathological constants stay on one (possibly long) line.
const maxLineBytes = 64 << 20

// multToken recognizes the trailing multiplicity token *N of a row line.
func multToken(tok string) (int, bool) {
	if len(tok) < 2 || tok[0] != '*' {
		return 0, false
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n <= 0 || tok[1] == '+' || tok[1] == '-' {
		return 0, false
	}
	return n, true
}

// unquoteValue interprets one row-value token: a token opening with a
// single quote has the quotes stripped and backslash escapes decoded
// (\' \\ \n \r \t; an unknown escape keeps the backslash); any other token
// is the constant payload verbatim.
func unquoteValue(tok string) string {
	if tok == "" || tok[0] != '\'' {
		return tok
	}
	var b strings.Builder
	b.Grow(len(tok))
	for i := 1; i < len(tok); i++ {
		c := tok[i]
		if c == '\'' { // closing quote: escaped ones are consumed below
			break
		}
		if c == '\\' && i+1 < len(tok) {
			i++
			switch tok[i] {
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case '\\', '\'':
				b.WriteByte(tok[i])
			default:
				b.WriteByte('\\')
				b.WriteByte(tok[i])
			}
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}

// lexLine splits a database line on spaces, honouring single quotes. Inside
// a quoted token a backslash escapes the next byte (so quoted constants can
// contain quotes and backslashes; unquoteValue decodes them).
func lexLine(line string) []string {
	var toks []string
	i := 0
	for i < len(line) {
		switch {
		case line[i] == ' ' || line[i] == '\t':
			i++
		case line[i] == '\'':
			j := i + 1
			for j < len(line) && line[j] != '\'' {
				if line[j] == '\\' && j+1 < len(line) {
					j++
				}
				j++
			}
			toks = append(toks, line[i:min(j+1, len(line))])
			i = j + 1
		default:
			j := i
			for j < len(line) && line[j] != ' ' && line[j] != '\t' {
				j++
			}
			toks = append(toks, line[i:j])
			i = j
		}
	}
	return toks
}
