package main

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"adskip/internal/workload"
)

// One scripted session through the REPL: each statement's output is the
// text between its prompt and the next.
func TestScriptedSession(t *testing.T) {
	const n = 20000
	want := 0
	for _, v := range workload.Generate(workload.DataSpec{N: n, Dist: workload.Clustered, Domain: n, Seed: workload.DataSeed}) {
		if v >= 1000 && v <= 3000 {
			want++
		}
	}
	query := "SELECT COUNT(*) FROM data WHERE v BETWEEN 1000 AND 3000"
	snap := filepath.Join(t.TempDir(), "data.adsk")
	script := []string{
		`\gen clustered 20000`,
		query,
		"EXPLAIN ANALYZE " + query,
		"EXPLAIN ANALYZE " + query,
		"EXPLAIN " + query,
		`\skipping v`,
		`\save ` + snap,
		`\load ` + snap,
		query,
		`\timeout 1ns`,
		query,
		"EXPLAIN ANALYZE " + query,
		`\nosuch`,
		`\quit`,
		query, // never read
	}
	var out strings.Builder
	if err := run(strings.NewReader(strings.Join(script, "\n")+"\n"), &out, nil); err != nil {
		t.Fatal(err)
	}
	replies := strings.Split(out.String(), "adskip> ")[1:]
	if len(replies) != len(script)-1 {
		t.Fatalf("%d prompts for %d statements before \\quit:\n%s", len(replies), len(script)-1, out.String())
	}
	expect := func(i int, ok bool, what string) {
		t.Helper()
		if !ok {
			t.Errorf("%q: want %s, got:\n%s", script[i], what, replies[i])
		}
	}
	footer := regexp.MustCompile(`(?m)^-- [0-9.]+ms \| scanned \d+, skipped (\d+), covered \d+ rows`)

	expect(0, strings.HasPrefix(replies[0], `table "data": 20000 rows, distribution clustered`), "the banner")
	expect(1, strings.HasPrefix(replies[1], fmt.Sprintf("%d\n", want)), fmt.Sprintf("count %d", want))
	m := footer.FindStringSubmatch(replies[3])
	skipped := -1
	if m != nil {
		skipped, _ = strconv.Atoi(m[1])
	}
	expect(3, strings.HasPrefix(replies[3], "EXPLAIN ANALYZE:") && skipped > 0, "the plan and a footer with rows skipped")
	expect(4, strings.HasPrefix(replies[4], "scan table") && !footer.MatchString(replies[4]), "the plan and no footer")
	expect(5, strings.HasPrefix(replies[5], "adaptive zonemap:") && strings.Contains(replies[5], "zone    0 rows"), "the zone listing")
	expect(6, strings.HasPrefix(replies[6], "saved "), "the save")
	expect(7, strings.HasPrefix(replies[7], `table "data": 20000 rows from `+snap), "the load")
	expect(8, strings.HasPrefix(replies[8], fmt.Sprintf("%d\n", want)), fmt.Sprintf("count %d after the reload", want))
	expect(10, strings.HasPrefix(replies[10], "error: ") && strings.Contains(replies[10], "canceled"), "the cancellation")
	expect(11, strings.HasPrefix(replies[11], "error: ") && strings.Contains(replies[11], "canceled"), "the EXPLAIN ANALYZE cancellation")
	expect(12, strings.Contains(replies[12], `(try \help)`), "the help hint")
	expect(13, replies[13] == "", "nothing")
}

func TestUnknownPolicy(t *testing.T) {
	err := run(strings.NewReader(""), &strings.Builder{}, []string{"-policy", "zonemap"})
	if err == nil || !strings.Contains(err.Error(), "none|static|adaptive|imprint") {
		t.Fatalf("err %v, want the valid policy names", err)
	}
}
