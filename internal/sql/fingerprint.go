package sql

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
func Fingerprint(s Statement) string { return s.render(true) }
