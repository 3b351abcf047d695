package expr

import (
	"errors"
	"math"
	"testing"

	"adskip/internal/storage"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{
		EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">=",
		Between: "BETWEEN", In: "IN",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Fatalf("%d.String()=%q want %q", op, op.String(), want)
		}
	}
	if Op(99).String() == "" {
		t.Fatal("unknown op renders empty")
	}
}

func TestNewPredValidation(t *testing.T) {
	if _, err := NewPred("a", EQ); !errors.Is(err, ErrArity) {
		t.Fatalf("EQ with 0 args: %v", err)
	}
	if _, err := NewPred("a", Between, storage.IntValue(1)); !errors.Is(err, ErrArity) {
		t.Fatalf("BETWEEN with 1 arg: %v", err)
	}
	if _, err := NewPred("a", In); !errors.Is(err, ErrArity) {
		t.Fatalf("IN with 0 args: %v", err)
	}
	if _, err := NewPred("a", EQ, storage.NullValue(storage.Int64)); !errors.Is(err, ErrNullLiteral) {
		t.Fatalf("EQ NULL: %v", err)
	}
	if _, err := NewPred("a", Op(42), storage.IntValue(1)); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("unknown op: %v", err)
	}
	if _, err := NewPred("a", LE, storage.IntValue(1)); err != nil {
		t.Fatalf("valid pred: %v", err)
	}
}

func TestPredString(t *testing.T) {
	p := MustPred("a", Between, storage.IntValue(1), storage.IntValue(5))
	if p.String() != "a BETWEEN 1 AND 5" {
		t.Fatalf("got %q", p.String())
	}
	p = MustPred("s", In, storage.StringValue("x"), storage.StringValue("o'k"))
	if p.String() != "s IN ('x', 'o''k')" {
		t.Fatalf("got %q", p.String())
	}
	p = MustPred("a", GE, storage.IntValue(3))
	if p.String() != "a >= 3" {
		t.Fatalf("got %q", p.String())
	}
}

func TestConjHelpers(t *testing.T) {
	c := And(
		MustPred("a", GT, storage.IntValue(1)),
		MustPred("b", LT, storage.IntValue(9)),
		MustPred("a", LE, storage.IntValue(100)),
	)
	cols := c.Columns()
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("Columns=%v", cols)
	}
	// Columns sits on every query's plan path: the output slice is its only
	// allocation (no dedupe map), and an empty conjunction allocates nothing.
	if n := testing.AllocsPerRun(100, func() { cols = c.Columns() }); n > 1 {
		t.Fatalf("Columns allocates %.0f times per call, want at most the output slice", n)
	}
	if n := testing.AllocsPerRun(100, func() { cols = And().Columns() }); n != 0 || cols != nil {
		t.Fatalf("empty Columns: %.0f allocs, %v", n, cols)
	}
	if c.String() != "a > 1 AND b < 9 AND a <= 100" {
		t.Fatalf("String=%q", c.String())
	}
	if And().String() != "TRUE" {
		t.Fatal("empty conj should render TRUE")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Conj{Preds: []Pred{{Col: "a", Op: EQ}}}
	if bad.Validate() == nil {
		t.Fatal("invalid conjunct not caught")
	}
}

func TestRangesContainsOverlapsCovers(t *testing.T) {
	r := Ranges{Lo: []int64{10, 50}, Hi: []int64{20, 60}}
	for _, c := range []int64{10, 15, 20, 50, 60} {
		if !r.Contains(c) {
			t.Fatalf("Contains(%d)=false", c)
		}
	}
	for _, c := range []int64{9, 21, 49, 61, math.MinInt64, math.MaxInt64} {
		if r.Contains(c) {
			t.Fatalf("Contains(%d)=true", c)
		}
	}
	if !r.Overlaps(0, 10) || !r.Overlaps(20, 30) || !r.Overlaps(15, 17) || !r.Overlaps(0, 100) {
		t.Fatal("Overlaps false negatives")
	}
	if r.Overlaps(21, 49) || r.Overlaps(61, 100) || r.Overlaps(0, 9) {
		t.Fatal("Overlaps false positives")
	}
	if !r.Covers(12, 18) || !r.Covers(10, 20) {
		t.Fatal("Covers false negatives")
	}
	if r.Covers(15, 55) || r.Covers(9, 20) || r.Covers(21, 22) {
		t.Fatal("Covers false positives")
	}
	if Full().Covers(math.MinInt64, math.MaxInt64) != true {
		t.Fatal("Full should cover everything")
	}
	var empty Ranges
	if !empty.Empty() || empty.Contains(0) || empty.Overlaps(0, 1) || empty.Covers(0, 0) {
		t.Fatal("empty Ranges misbehaves")
	}
}

func TestRangesIntersect(t *testing.T) {
	a := Ranges{Lo: []int64{0, 100}, Hi: []int64{50, 200}}
	b := Ranges{Lo: []int64{40, 150, 300}, Hi: []int64{120, 160, 400}}
	got := a.Intersect(b)
	want := Ranges{Lo: []int64{40, 100, 150}, Hi: []int64{50, 120, 160}}
	if got.String() != want.String() {
		t.Fatalf("Intersect got %v want %v", got, want)
	}
	if !a.Intersect(Ranges{}).Empty() {
		t.Fatal("intersect with empty not empty")
	}
	full := Full()
	if g := full.Intersect(a); g.String() != a.String() {
		t.Fatalf("full∩a = %v want %v", g, a)
	}
}

func TestRangesNormalize(t *testing.T) {
	r := Ranges{Lo: []int64{30, 5, 10, 21, 100}, Hi: []int64{40, 15, 20, 25, 90}}
	n := r.Normalize()
	// [5,15] merges with adjacent [10,20]->[5,20], [21,25] adjacent -> [5,25];
	// [30,40] separate; [100,90] dropped (empty).
	if n.String() != "[5,25] ∪ [30,40]" {
		t.Fatalf("Normalize got %v", n)
	}
	// MaxInt64 adjacency must not overflow.
	m := Ranges{Lo: []int64{0, math.MaxInt64}, Hi: []int64{math.MaxInt64, math.MaxInt64}}
	if got := m.Normalize(); got.Len() != 1 {
		t.Fatalf("MaxInt normalize got %v", got)
	}
}

func intCol(t *testing.T, vals ...int64) *storage.Column {
	t.Helper()
	c := storage.NewColumn("a", storage.Int64)
	for _, v := range vals {
		if err := c.AppendInt(v); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestLowerIntOps(t *testing.T) {
	col := intCol(t, 1, 2, 3)
	cases := []struct {
		p    Pred
		want string
	}{
		{MustPred("a", EQ, storage.IntValue(5)), "[5,5]"},
		{MustPred("a", LT, storage.IntValue(5)), "[-9223372036854775808,4]"},
		{MustPred("a", LE, storage.IntValue(5)), "[-9223372036854775808,5]"},
		{MustPred("a", GT, storage.IntValue(5)), "[6,9223372036854775807]"},
		{MustPred("a", GE, storage.IntValue(5)), "[5,9223372036854775807]"},
		{MustPred("a", Between, storage.IntValue(2), storage.IntValue(8)), "[2,8]"},
		{MustPred("a", NE, storage.IntValue(5)), "[-9223372036854775808,4] ∪ [6,9223372036854775807]"},
		{MustPred("a", In, storage.IntValue(3), storage.IntValue(1), storage.IntValue(2)), "[1,3]"},
		{MustPred("a", In, storage.IntValue(7), storage.IntValue(3)), "[3,3] ∪ [7,7]"},
	}
	for _, c := range cases {
		r, err := Lower(c.p, col)
		if err != nil {
			t.Fatalf("%v: %v", c.p, err)
		}
		if r.String() != c.want {
			t.Fatalf("%v lowered to %v want %s", c.p, r, c.want)
		}
	}
}

func TestLowerIntEdgeCases(t *testing.T) {
	col := intCol(t, 1)
	// BETWEEN with lo > hi is empty.
	r, err := Lower(MustPred("a", Between, storage.IntValue(9), storage.IntValue(2)), col)
	if err != nil || !r.Empty() {
		t.Fatalf("inverted BETWEEN: %v %v", r, err)
	}
	// x < MinInt64 is empty; x > MaxInt64 is empty.
	r, _ = Lower(MustPred("a", LT, storage.IntValue(math.MinInt64)), col)
	if !r.Empty() {
		t.Fatalf("LT MinInt: %v", r)
	}
	r, _ = Lower(MustPred("a", GT, storage.IntValue(math.MaxInt64)), col)
	if !r.Empty() {
		t.Fatalf("GT MaxInt: %v", r)
	}
	// NE MinInt64 yields a single interval.
	r, _ = Lower(MustPred("a", NE, storage.IntValue(math.MinInt64)), col)
	if r.Len() != 1 || r.Contains(math.MinInt64) {
		t.Fatalf("NE MinInt: %v", r)
	}
}

func TestLowerTypeMismatch(t *testing.T) {
	col := intCol(t, 1)
	if _, err := Lower(MustPred("a", EQ, storage.StringValue("x")), col); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("mismatch: %v", err)
	}
}

func TestLowerFloat(t *testing.T) {
	col := storage.NewColumn("f", storage.Float64)
	for _, v := range []float64{-3.5, 0, 2.25, 100} {
		if err := col.AppendFloat(v); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Lower(MustPred("f", Between, storage.FloatValue(-1), storage.FloatValue(50)), col)
	if err != nil {
		t.Fatal(err)
	}
	codes := col.Codes()
	wantIn := []bool{false, true, true, false}
	for i, w := range wantIn {
		if r.Contains(codes[i]) != w {
			t.Fatalf("row %d contains=%v want %v", i, r.Contains(codes[i]), w)
		}
	}
	// Strict < excludes the boundary value exactly.
	r, _ = Lower(MustPred("f", LT, storage.FloatValue(2.25)), col)
	if r.Contains(codes[2]) {
		t.Fatal("LT 2.25 should exclude 2.25")
	}
	if !r.Contains(codes[1]) {
		t.Fatal("LT 2.25 should include 0")
	}
}

func strCol(t *testing.T, seal bool, words ...string) *storage.Column {
	t.Helper()
	c := storage.NewColumn("s", storage.String)
	for _, w := range words {
		if err := c.AppendString(w); err != nil {
			t.Fatal(err)
		}
	}
	if seal {
		c.SealDict()
	}
	return c
}

func TestLowerStringSealed(t *testing.T) {
	col := strCol(t, true, "delta", "bravo", "foxtrot", "bravo")
	codes := col.Codes()
	words := []string{"delta", "bravo", "foxtrot", "bravo"}
	check := func(p Pred, want func(string) bool) {
		t.Helper()
		r, err := Lower(p, col)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		for i, w := range words {
			if r.Contains(codes[i]) != want(w) {
				t.Fatalf("%v: row %d (%q) contains=%v want %v", p, i, w, r.Contains(codes[i]), want(w))
			}
		}
	}
	check(MustPred("s", EQ, storage.StringValue("bravo")), func(w string) bool { return w == "bravo" })
	check(MustPred("s", NE, storage.StringValue("bravo")), func(w string) bool { return w != "bravo" })
	check(MustPred("s", LT, storage.StringValue("delta")), func(w string) bool { return w < "delta" })
	check(MustPred("s", LE, storage.StringValue("delta")), func(w string) bool { return w <= "delta" })
	check(MustPred("s", GT, storage.StringValue("cat")), func(w string) bool { return w > "cat" })
	check(MustPred("s", GE, storage.StringValue("delta")), func(w string) bool { return w >= "delta" })
	check(MustPred("s", Between, storage.StringValue("alpha"), storage.StringValue("echo")),
		func(w string) bool { return w >= "alpha" && w <= "echo" })
	// Absent string: EQ empty, NE full, range bounds still correct.
	r, _ := Lower(MustPred("s", EQ, storage.StringValue("zulu")), col)
	if !r.Empty() {
		t.Fatalf("EQ absent: %v", r)
	}
	r, _ = Lower(MustPred("s", NE, storage.StringValue("zulu")), col)
	for i := range words {
		if !r.Contains(codes[i]) {
			t.Fatal("NE absent should match all")
		}
	}
	check(MustPred("s", GT, storage.StringValue("zulu")), func(string) bool { return false })
	check(MustPred("s", LT, storage.StringValue("aaaa")), func(string) bool { return false })
}

func TestLowerStringUnsealed(t *testing.T) {
	col := strCol(t, false, "b", "a")
	// Point ops fine.
	if _, err := Lower(MustPred("s", EQ, storage.StringValue("a")), col); err != nil {
		t.Fatalf("EQ on unsealed: %v", err)
	}
	// Range ops rejected.
	if _, err := Lower(MustPred("s", LT, storage.StringValue("b")), col); err == nil {
		t.Fatal("LT on unsealed dictionary should error")
	}
}

func TestLowerConj(t *testing.T) {
	col := intCol(t, 1)
	c := And(
		MustPred("a", GE, storage.IntValue(10)),
		MustPred("a", LE, storage.IntValue(20)),
		MustPred("b", EQ, storage.IntValue(5)), // other column ignored
	)
	cp, err := LowerColumn(c, col)
	if err != nil {
		t.Fatal(err)
	}
	if cp.NullOnly || cp.R.String() != "[10,20]" {
		t.Fatalf("LowerColumn got %+v", cp)
	}
	// Contradiction is empty.
	c2 := And(
		MustPred("a", LT, storage.IntValue(5)),
		MustPred("a", GT, storage.IntValue(10)),
	)
	cp, err = LowerColumn(c2, col)
	if err != nil || !cp.Empty() {
		t.Fatalf("contradiction: %+v %v", cp, err)
	}
	// No conjuncts on the column -> Full.
	cp, _ = LowerColumn(And(MustPred("z", EQ, storage.IntValue(1))), col)
	if !cp.R.Covers(math.MinInt64, math.MaxInt64) {
		t.Fatalf("unrelated conj: %+v", cp)
	}
}

func TestOrPredicates(t *testing.T) {
	or, err := NewOrPred(
		MustPred("a", LT, storage.IntValue(5)),
		MustPred("a", GT, storage.IntValue(100)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if or.String() != "(a < 5 OR a > 100)" {
		t.Fatalf("String=%q", or.String())
	}
	col := intCol(t, 1)
	r, err := Lower(or, col)
	if err != nil {
		t.Fatal(err)
	}
	if r.String() != "[-9223372036854775808,4] ∪ [101,9223372036854775807]" {
		t.Fatalf("lowered=%v", r)
	}
	// Overlapping disjuncts normalize.
	or2, _ := NewOrPred(
		MustPred("a", Between, storage.IntValue(0), storage.IntValue(10)),
		MustPred("a", Between, storage.IntValue(5), storage.IntValue(20)),
	)
	r, _ = Lower(or2, col)
	if r.String() != "[0,20]" {
		t.Fatalf("normalized=%v", r)
	}
	// Errors.
	if _, err := NewOrPred(MustPred("a", EQ, storage.IntValue(1))); !errors.Is(err, ErrArity) {
		t.Fatalf("single disjunct: %v", err)
	}
	if _, err := NewOrPred(
		MustPred("a", EQ, storage.IntValue(1)),
		MustPred("b", EQ, storage.IntValue(2)),
	); err == nil {
		t.Fatal("cross-column OR accepted")
	}
	if _, err := NewOrPred(
		MustPred("a", EQ, storage.IntValue(1)),
		MustPred("a", IsNull),
	); err == nil {
		t.Fatal("IS NULL inside OR accepted")
	}
	nested := Pred{Col: "a", Op: Or, Sub: []Pred{or, MustPred("a", EQ, storage.IntValue(7))}}
	if nested.Validate() == nil {
		t.Fatal("nested OR accepted")
	}
}

// TestClauseMatchesRanges holds the one hull test, Clause.Test, to the
// interval searches Ranges.Overlaps and Ranges.Covers: a hull matches none
// of a predicate when no interval overlaps it, all when one interval
// encloses it, and an empty hull matches none. It is the scalar oracle a
// vector probe must agree with.
func TestClauseMatchesRanges(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	preds := map[string]Ranges{
		"empty":          {},
		"single":         {Lo: []int64{10}, Hi: []int64{20}},
		"point":          {Lo: []int64{7}, Hi: []int64{7}},
		"multi":          {Lo: []int64{10, 50, 90}, Hi: []int64{20, 60, 90}},
		"full":           Full(),
		"below":          {Lo: []int64{lo}, Hi: []int64{5}},
		"above":          {Lo: []int64{5}, Hi: []int64{hi}},
		"not-equal":      {Lo: []int64{lo, 6}, Hi: []int64{4, hi}},
		"extreme-points": {Lo: []int64{lo, hi}, Hi: []int64{lo, hi}},
	}
	hulls := map[string]Hull{
		"empty":         EmptyHull,
		"point-inside":  {15, 15},
		"point-on-edge": {20, 20},
		"point-between": {30, 30},
		"point-min":     {lo, lo},
		"point-max":     {hi, hi},
		"left":          {0, 9},
		"right":         {61, 89},
		"far-right":     {91, 200},
		"inside":        {12, 18},
		"equal":         {10, 20},
		"straddle-lo":   {5, 15},
		"straddle-hi":   {15, 55},
		"across":        {0, 100},
		"full":          {lo, hi},
		"to-min":        {lo, 10},
		"to-max":        {55, hi},
	}
	for pn, r := range preds {
		c := r.Clause()
		for hn, h := range hulls {
			want := MatchSome
			switch {
			case h.Empty() || !r.Overlaps(h.Min, h.Max):
				want = MatchNone
			case r.Covers(h.Min, h.Max):
				want = MatchAll
			}
			if got := c.Test(h); got != want {
				t.Errorf("%s %v, hull %s %+v: Test = %d, want %d", pn, r, hn, h, got, want)
			}
		}
	}
}

// TestHull covers the hull's algebra at its edges: the empty hull is
// Union's identity and has width 0, and widths are exact across the whole
// code space.
func TestHull(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	h := Hull{-3, 8}
	if !EmptyHull.Empty() || h.Empty() || (Hull{5, 5}).Empty() {
		t.Fatal("Empty")
	}
	if EmptyHull.Union(h) != h || h.Union(EmptyHull) != h || EmptyHull.Union(EmptyHull) != EmptyHull {
		t.Fatal("the empty hull is not Union's identity")
	}
	if h.Union(Hull{10, 12}) != (Hull{-3, 12}) || EmptyHull.Union(Hull{4, 4}) != (Hull{4, 4}) || h.Union(Hull{0, 0}) != h || h.Union(Hull{lo, lo}) != (Hull{lo, 8}) {
		t.Fatal("Union")
	}
	if EmptyHull.Width() != 0 || (Hull{5, 5}).Width() != 0 || h.Width() != 11 || (Hull{lo, hi}).Width() != math.MaxUint64 {
		t.Fatal("Width")
	}
}
