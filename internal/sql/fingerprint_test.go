package sql

import "testing"

// The golden table: each SQL text maps to exactly one template. Cases
// cover literal stripping across types, whitespace/case canonicalization,
// IN-list collapse, BETWEEN, LIMIT, OR shapes, and the EXPLAIN prefix.
func TestFingerprintGolden(t *testing.T) {
	cases := []struct {
		sql  string
		want string
	}{
		{
			"SELECT COUNT(*) FROM data WHERE v < 10",
			"SELECT COUNT(*) FROM data WHERE v < ?",
		},
		{
			"select   count(*)   from data where v < 99999",
			"SELECT COUNT(*) FROM data WHERE v < ?",
		},
		{
			"SELECT COUNT(*) FROM data WHERE v BETWEEN 1000 AND 2000",
			"SELECT COUNT(*) FROM data WHERE v BETWEEN ? AND ?",
		},
		{
			"SELECT COUNT(*) FROM data WHERE v IN (1, 2, 3)",
			"SELECT COUNT(*) FROM data WHERE v IN (?)",
		},
		{
			"SELECT COUNT(*) FROM data WHERE v IN (42)",
			"SELECT COUNT(*) FROM data WHERE v IN (?)",
		},
		{
			"SELECT * FROM data WHERE v = 7 LIMIT 5",
			"SELECT * FROM data WHERE v = ? LIMIT ?",
		},
		{
			"SELECT * FROM data WHERE v = 7 LIMIT 500",
			"SELECT * FROM data WHERE v = ? LIMIT ?",
		},
		{
			"SELECT seq, COUNT(*) FROM data WHERE (v < 100 OR v > 900) GROUP BY seq ORDER BY seq DESC LIMIT 3",
			"SELECT seq, COUNT(*) FROM data WHERE (v < ? OR v > ?) GROUP BY seq ORDER BY seq DESC LIMIT ?",
		},
		{
			"SELECT MIN(v), MAX(v) FROM data WHERE v <> 0 AND seq >= 100",
			"SELECT MIN(v), MAX(v) FROM data WHERE v <> ? AND seq >= ?",
		},
		{
			"SELECT COUNT(*) FROM data WHERE name = 'alice'",
			"SELECT COUNT(*) FROM data WHERE name = ?",
		},
		{
			"SELECT COUNT(*) FROM data WHERE v IS NOT NULL",
			"SELECT COUNT(*) FROM data WHERE v IS NOT NULL",
		},
		{
			// EXPLAIN ANALYZE aggregates with the statement it explains.
			"EXPLAIN ANALYZE SELECT COUNT(*) FROM data WHERE v < 10",
			"SELECT COUNT(*) FROM data WHERE v < ?",
		},
		{
			"EXPLAIN SELECT COUNT(*) FROM data WHERE v < 10",
			"SELECT COUNT(*) FROM data WHERE v < ?",
		},
	}
	for _, tc := range cases {
		got, err := fingerprintSQL(tc.sql)
		if err != nil {
			t.Errorf("fingerprintSQL(%q): %v", tc.sql, err)
			continue
		}
		if got != tc.want {
			t.Errorf("fingerprintSQL(%q)\n got  %q\n want %q", tc.sql, got, tc.want)
		}
	}
}

// Distinct templates must not collapse: shape, not just table, is identity.
func TestFingerprintDistinguishesShapes(t *testing.T) {
	distinct := []string{
		"SELECT COUNT(*) FROM data WHERE v < 10",
		"SELECT COUNT(*) FROM data WHERE v > 10",
		"SELECT COUNT(*) FROM data WHERE v BETWEEN 1 AND 2",
		"SELECT COUNT(*) FROM data",
		"SELECT SUM(v) FROM data WHERE v < 10",
		"SELECT * FROM data WHERE v < 10",
		"SELECT * FROM data WHERE v < 10 LIMIT 1",
	}
	seen := make(map[string]string)
	for _, q := range distinct {
		fp, err := fingerprintSQL(q)
		if err != nil {
			t.Fatalf("fingerprintSQL(%q): %v", q, err)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%q and %q collapsed to the same fingerprint %q", q, prev, fp)
		}
		seen[fp] = q
	}
}

func TestFingerprintSQLParseError(t *testing.T) {
	if fp, err := fingerprintSQL("DELETE FROM data"); err == nil {
		t.Fatalf("want parse error, got fingerprint %q", fp)
	}
}

// fingerprintSQL parses and fingerprints in one step.
func fingerprintSQL(query string) (string, error) {
	stmt, err := Parse(query)
	if err != nil {
		return "", err
	}
	return Fingerprint(stmt), nil
}
