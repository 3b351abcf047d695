package sql

import (
	"fmt"
	"strings"

	"adskip/internal/expr"
)

// Fingerprint renders a statement as a literal-stripped template, the
// identity under which workload statistics aggregate (pg_stat_statements
// style). Two queries share a fingerprint iff they differ only in
// constants:
//
//   - every literal becomes "?" (so `v < 10` and `v < 99` collapse),
//   - IN lists collapse to a single placeholder (`IN (1,2,3)` and
//     `IN (7)` are the same template),
//   - LIMIT keeps its shape but not its value,
//   - the EXPLAIN [ANALYZE] prefix is dropped, so an analyzed run
//     aggregates with the plain executions it explains.
//
// Because the template is re-rendered from the parsed AST, case and
// whitespace are canonical for free: `select count(*)from data` and
// `SELECT COUNT(*) FROM data` produce the same fingerprint.
func Fingerprint(s Statement) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	switch {
	case s.Star:
		sb.WriteString("*")
	default:
		items := append([]string{}, s.Cols...)
		for _, a := range s.Aggs {
			items = append(items, a.String())
		}
		sb.WriteString(strings.Join(items, ", "))
	}
	sb.WriteString(" FROM ")
	sb.WriteString(s.Table)
	if len(s.Where.Preds) > 0 {
		sb.WriteString(" WHERE ")
		parts := make([]string, len(s.Where.Preds))
		for i, p := range s.Where.Preds {
			parts[i] = predFingerprint(p)
		}
		sb.WriteString(strings.Join(parts, " AND "))
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
	if s.Limit > 0 {
		sb.WriteString(" LIMIT ?")
	}
	return sb.String()
}

// predFingerprint is Pred.String() with placeholders for the constants.
// OR branches keep their shape (the operators distinguish templates);
// only the literals inside each branch are stripped.
func predFingerprint(p expr.Pred) string {
	switch p.Op {
	case expr.Or:
		parts := make([]string, len(p.Sub))
		for i, sub := range p.Sub {
			parts[i] = predFingerprint(sub)
		}
		return "(" + strings.Join(parts, " OR ") + ")"
	case expr.IsNull, expr.IsNotNull:
		return fmt.Sprintf("%s %s", p.Col, p.Op)
	case expr.Between:
		return fmt.Sprintf("%s BETWEEN ? AND ?", p.Col)
	case expr.In:
		return fmt.Sprintf("%s IN (?)", p.Col)
	default:
		return fmt.Sprintf("%s %s ?", p.Col, p.Op)
	}
}
