package sql

import (
	"fmt"
	"strconv"
	"strings"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/storage"
)

// Statement is a parsed single-table SELECT.
type Statement struct {
	Explain   bool // EXPLAIN prefix: plan without executing
	Analyze   bool // EXPLAIN ANALYZE: execute and report actuals
	Table     string
	Star      bool         // SELECT *
	Aggs      []engine.Agg // aggregate select list
	Cols      []string     // projected columns
	Where     expr.Conj
	GroupBy   string // single grouping column; "" = none
	OrderBy   string // projection sort column; "" = none
	OrderDesc bool
	Limit     int // 0 = none
}

// String renders the statement back to SQL (canonical form).
func (s Statement) String() string { return s.render(false) }

// render writes the statement in canonical form, or with mask as its
// template (see Fingerprint).
func (s Statement) render(mask bool) string {
	var sb strings.Builder
	if s.Explain && !mask {
		sb.WriteString("EXPLAIN ")
		if s.Analyze {
			sb.WriteString("ANALYZE ")
		}
	}
	sb.WriteString("SELECT ")
	switch {
	case s.Star:
		sb.WriteString("*")
	default:
		// Plain columns first (GROUP BY keys), then aggregates — the
		// conventional ordering; note this canonicalizes interleaved
		// select lists.
		items := append([]string{}, s.Cols...)
		for _, a := range s.Aggs {
			items = append(items, a.String())
		}
		sb.WriteString(strings.Join(items, ", "))
	}
	sb.WriteString(" FROM ")
	sb.WriteString(s.Table)
	switch {
	case len(s.Where.Preds) > 0 && mask:
		sb.WriteString(" WHERE " + s.Where.Template())
	case len(s.Where.Preds) > 0:
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if s.GroupBy != "" {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(s.GroupBy)
	}
	if s.OrderBy != "" {
		sb.WriteString(" ORDER BY ")
		sb.WriteString(s.OrderBy)
		if s.OrderDesc {
			sb.WriteString(" DESC")
		}
	}
	switch {
	case s.Limit > 0 && mask:
		sb.WriteString(" LIMIT ?")
	case s.Limit > 0:
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	i    int
}

// Parse parses one SELECT statement (an optional trailing semicolon is
// allowed).
func Parse(input string) (Statement, error) {
	toks, err := lex(input)
	if err != nil {
		return Statement{}, err
	}
	p := &parser{toks: toks}
	explain := p.acceptKeyword("EXPLAIN")
	analyze := explain && p.acceptKeyword("ANALYZE")
	stmt, err := p.selectStmt()
	if err != nil {
		return Statement{}, err
	}
	stmt.Explain = explain
	stmt.Analyze = analyze
	p.acceptSymbol(";")
	if p.cur().kind != tokEOF {
		return Statement{}, lexError(p.cur().pos, "unexpected trailing input %q", p.cur().text)
	}
	return stmt, nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().kind == tokKeyword && p.cur().text == kw {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.cur().kind == tokSymbol && p.cur().text == sym {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return lexError(p.cur().pos, "expected %s, got %q", kw, p.cur().text)
	}
	return nil
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return lexError(p.cur().pos, "expected %q, got %q", sym, p.cur().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().kind != tokIdent {
		return "", lexError(p.cur().pos, "expected identifier, got %q", p.cur().text)
	}
	return p.next().text, nil
}

func (p *parser) selectStmt() (Statement, error) {
	var s Statement
	if err := p.expectKeyword("SELECT"); err != nil {
		return s, err
	}
	if err := p.selectList(&s); err != nil {
		return s, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return s, err
	}
	tbl, err := p.expectIdent()
	if err != nil {
		return s, err
	}
	s.Table = tbl
	if p.acceptKeyword("WHERE") {
		conj, err := p.conjunction()
		if err != nil {
			return s, err
		}
		s.Where = conj
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return s, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return s, err
		}
		s.GroupBy = col
	}
	if len(s.Aggs) > 0 && len(s.Cols) > 0 && s.GroupBy == "" {
		return s, lexError(p.cur().pos, "mixing aggregates and columns requires GROUP BY")
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return s, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return s, err
		}
		s.OrderBy = col
		if p.acceptKeyword("DESC") {
			s.OrderDesc = true
		} else {
			p.acceptKeyword("ASC")
		}
	}
	if p.acceptKeyword("LIMIT") {
		if p.cur().kind != tokNumber {
			return s, lexError(p.cur().pos, "expected row count after LIMIT")
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil || n < 0 {
			return s, lexError(p.cur().pos, "bad LIMIT value")
		}
		s.Limit = n
	}
	return s, nil
}

func (p *parser) selectList(s *Statement) error {
	if p.acceptSymbol("*") {
		s.Star = true
		return nil
	}
	for {
		switch {
		case p.cur().kind == tokKeyword && isAggKeyword(p.cur().text):
			agg, err := p.aggregate()
			if err != nil {
				return err
			}
			s.Aggs = append(s.Aggs, agg)
		case p.cur().kind == tokIdent:
			s.Cols = append(s.Cols, p.next().text)
		default:
			return lexError(p.cur().pos, "expected column or aggregate, got %q", p.cur().text)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	return nil
}

func isAggKeyword(kw string) bool {
	switch kw {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

func (p *parser) aggregate() (engine.Agg, error) {
	kw := p.next().text
	if err := p.expectSymbol("("); err != nil {
		return engine.Agg{}, err
	}
	var agg engine.Agg
	if kw == "COUNT" && p.acceptSymbol("*") {
		agg = engine.Agg{Kind: engine.CountStar}
	} else {
		col, err := p.expectIdent()
		if err != nil {
			return engine.Agg{}, err
		}
		switch kw {
		case "COUNT":
			agg = engine.Agg{Kind: engine.CountCol, Col: col}
		case "SUM":
			agg = engine.Agg{Kind: engine.Sum, Col: col}
		case "MIN":
			agg = engine.Agg{Kind: engine.Min, Col: col}
		case "MAX":
			agg = engine.Agg{Kind: engine.Max, Col: col}
		case "AVG":
			agg = engine.Agg{Kind: engine.Avg, Col: col}
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return engine.Agg{}, err
	}
	return agg, nil
}

func (p *parser) conjunction() (expr.Conj, error) {
	var conj expr.Conj
	for {
		pred, err := p.conjunct()
		if err != nil {
			return conj, err
		}
		conj.Preds = append(conj.Preds, pred)
		if p.cur().kind == tokKeyword && p.cur().text == "OR" {
			return conj, lexError(p.cur().pos, "OR must be parenthesized: (a = 1 OR a = 2)")
		}
		if !p.acceptKeyword("AND") {
			break
		}
	}
	return conj, nil
}

// conjunct parses one AND-operand: a bare predicate, or a parenthesized
// same-column OR group.
func (p *parser) conjunct() (expr.Pred, error) {
	if !p.acceptSymbol("(") {
		return p.predicate()
	}
	first, err := p.predicate()
	if err != nil {
		return expr.Pred{}, err
	}
	if p.acceptSymbol(")") {
		return first, nil // plain parenthesized predicate
	}
	subs := []expr.Pred{first}
	for p.acceptKeyword("OR") {
		next, err := p.predicate()
		if err != nil {
			return expr.Pred{}, err
		}
		subs = append(subs, next)
	}
	if err := p.expectSymbol(")"); err != nil {
		return expr.Pred{}, err
	}
	return expr.NewOrPred(subs...)
}

func (p *parser) predicate() (expr.Pred, error) {
	col, err := p.expectIdent()
	if err != nil {
		return expr.Pred{}, err
	}
	if p.acceptKeyword("IS") {
		negated := p.acceptKeyword("NOT")
		if !p.acceptKeyword("NULL") {
			return expr.Pred{}, lexError(p.cur().pos, "expected NULL after IS")
		}
		if negated {
			return expr.NewPred(col, expr.IsNotNull)
		}
		return expr.NewPred(col, expr.IsNull)
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.literal()
		if err != nil {
			return expr.Pred{}, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return expr.Pred{}, err
		}
		hi, err := p.literal()
		if err != nil {
			return expr.Pred{}, err
		}
		return expr.NewPred(col, expr.Between, lo, hi)
	}
	if p.acceptKeyword("IN") {
		if err := p.expectSymbol("("); err != nil {
			return expr.Pred{}, err
		}
		var vals []storage.Value
		for {
			v, err := p.literal()
			if err != nil {
				return expr.Pred{}, err
			}
			vals = append(vals, v)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return expr.Pred{}, err
		}
		return expr.NewPred(col, expr.In, vals...)
	}
	if p.cur().kind != tokSymbol {
		return expr.Pred{}, lexError(p.cur().pos, "expected comparison operator, got %q", p.cur().text)
	}
	opText := p.next().text
	var op expr.Op
	switch opText {
	case "=":
		op = expr.EQ
	case "<>", "!=":
		op = expr.NE
	case "<":
		op = expr.LT
	case "<=":
		op = expr.LE
	case ">":
		op = expr.GT
	case ">=":
		op = expr.GE
	default:
		return expr.Pred{}, lexError(p.cur().pos, "unknown operator %q", opText)
	}
	v, err := p.literal()
	if err != nil {
		return expr.Pred{}, err
	}
	return expr.NewPred(col, op, v)
}

// literal parses a number or string literal into a dynamic value. Integer
// literals become Int64 values; the binder coerces them to Float64 when
// the column requires it.
func (p *parser) literal() (storage.Value, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.i++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return storage.Value{}, lexError(t.pos, "bad float literal %q", t.text)
			}
			return storage.FloatValue(f), nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return storage.Value{}, lexError(t.pos, "bad integer literal %q", t.text)
		}
		return storage.IntValue(n), nil
	case tokString:
		p.i++
		return storage.StringValue(t.text), nil
	case tokKeyword:
		if t.text == "NULL" {
			return storage.Value{}, lexError(t.pos, "NULL literals are not allowed in comparisons")
		}
	}
	return storage.Value{}, lexError(t.pos, "expected literal, got %q", t.text)
}
