package expr

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"adskip/internal/storage"
)

// Ranges is a set of disjoint, sorted, inclusive intervals [Lo[i], Hi[i]]
// over a column's int64 code space. It is the physical form of a predicate:
// a row qualifies iff its code falls inside some interval.
//
// The empty Ranges matches nothing; Full() matches everything.
type Ranges struct {
	Lo []int64
	Hi []int64
}

// Full returns the range set matching every code.
func Full() Ranges {
	return Ranges{Lo: []int64{math.MinInt64}, Hi: []int64{math.MaxInt64}}
}

// Empty reports whether the set matches nothing.
func (r Ranges) Empty() bool { return len(r.Lo) == 0 }

// Len returns the number of intervals.
func (r Ranges) Len() int { return len(r.Lo) }

// Contains reports whether code c is inside some interval (binary search;
// kernels use specialized fast paths for 1-interval sets instead).
func (r Ranges) Contains(c int64) bool {
	// Find first interval with Hi >= c; c matches iff its Lo <= c.
	i := sort.Search(len(r.Hi), func(i int) bool { return r.Hi[i] >= c })
	return i < len(r.Lo) && r.Lo[i] <= c
}

// Overlaps reports whether [lo, hi] (inclusive) intersects any interval.
// Zones test a predicate through Clause.Test, which answers as Overlaps
// and Covers do (TestClauseMatchesRanges).
func (r Ranges) Overlaps(lo, hi int64) bool {
	i := sort.Search(len(r.Hi), func(i int) bool { return r.Hi[i] >= lo })
	return i < len(r.Lo) && r.Lo[i] <= hi
}

// Covers reports whether [lo, hi] (inclusive) is fully inside one interval.
func (r Ranges) Covers(lo, hi int64) bool {
	i := sort.Search(len(r.Hi), func(i int) bool { return r.Hi[i] >= lo })
	return i < len(r.Lo) && r.Lo[i] <= lo && hi <= r.Hi[i]
}

// Hull is the value hull of a set of codes: the one inclusive interval
// [Min, Max] enclosing them. A set with no value has an empty hull, Min >
// Max; EmptyHull is the one Union keeps as it is. A zone, a block, a scan's
// part and a shard each summarise their non-null codes by a Hull, and a
// Clause tests a predicate against it.
type Hull struct{ Min, Max int64 }

// EmptyHull is the hull of no value: the identity of Union.
var EmptyHull = Hull{math.MaxInt64, math.MinInt64}

// Empty reports whether h holds no value.
func (h Hull) Empty() bool { return h.Min > h.Max }

// Union is the hull of the values of h and o together.
func (h Hull) Union(o Hull) Hull { return Hull{min(h.Min, o.Min), max(h.Max, o.Max)} }

// Width is Max − Min, exact over the whole code space; 0 when h is empty.
func (h Hull) Width() uint64 {
	if h.Empty() {
		return 0
	}
	return uint64(h.Max) - uint64(h.Min)
}

// Match is what a predicate's test concludes about a set of values.
type Match uint8

const (
	MatchNone Match = iota // no value matches
	MatchSome              // some value may match
	MatchAll               // every value matches
)

// Clause is a predicate's intervals as a hull is tested against them: a
// hull outside the predicate's own hull — most zones of a selective query
// — is settled inline, and only a hull inside it looks at the intervals.
type Clause struct {
	r      Ranges
	hull   Hull // no value outside it matches
	single bool // r is the one interval hull
}

// Clause returns r as the clause its hulls are tested against.
func (r Ranges) Clause() Clause {
	c := Clause{r: r, hull: EmptyHull, single: len(r.Lo) == 1}
	if n := len(r.Lo); n > 0 {
		c.hull = Hull{r.Lo[0], r.Hi[n-1]}
	}
	return c
}

// Test is the test of a predicate against a hull: whether none, some or
// all of the values h may hold match. An empty hull matches none.
func (c *Clause) Test(h Hull) Match {
	if h.Max < c.hull.Min || h.Min > c.hull.Max {
		return MatchNone
	}
	return c.inHull(h)
}

// inHull finishes Test out of line, so that Test inlines: the first
// interval ending at or after h.Min decides.
func (c *Clause) inHull(h Hull) Match {
	r := c.r
	i := 0
	switch {
	case h.Empty():
		return MatchNone
	case !c.single:
		i = sort.Search(len(r.Hi), func(i int) bool { return r.Hi[i] >= h.Min })
		if i == len(r.Lo) || r.Lo[i] > h.Max {
			return MatchNone
		}
	}
	if r.Lo[i] <= h.Min && h.Max <= r.Hi[i] {
		return MatchAll
	}
	return MatchSome
}

// Intersect returns r ∩ o as a new normalized range set.
func (r Ranges) Intersect(o Ranges) Ranges {
	var out Ranges
	i, j := 0, 0
	for i < len(r.Lo) && j < len(o.Lo) {
		lo := max(r.Lo[i], o.Lo[j])
		hi := min(r.Hi[i], o.Hi[j])
		if lo <= hi {
			out.Lo = append(out.Lo, lo)
			out.Hi = append(out.Hi, hi)
		}
		if r.Hi[i] < o.Hi[j] {
			i++
		} else {
			j++
		}
	}
	return out
}

// Normalize sorts intervals, drops empty ones, and merges overlapping or
// adjacent intervals. It returns the receiver value for chaining.
func (r Ranges) Normalize() Ranges {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(r.Lo))
	for i := range r.Lo {
		if r.Lo[i] <= r.Hi[i] {
			ivs = append(ivs, iv{r.Lo[i], r.Hi[i]})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	out := Ranges{}
	for _, v := range ivs {
		n := len(out.Lo)
		if n > 0 && (v.lo <= out.Hi[n-1] || (out.Hi[n-1] != math.MaxInt64 && v.lo == out.Hi[n-1]+1)) {
			if v.hi > out.Hi[n-1] {
				out.Hi[n-1] = v.hi
			}
			continue
		}
		out.Lo = append(out.Lo, v.lo)
		out.Hi = append(out.Hi, v.hi)
	}
	return out
}

// String renders the interval set for debugging.
func (r Ranges) String() string {
	if r.Empty() {
		return "∅"
	}
	// Rendered with strconv rather than fmt: query traces stringify the
	// predicate once per query, so this sits near the hot path.
	b := make([]byte, 0, 24*len(r.Lo))
	for i := range r.Lo {
		if i > 0 {
			b = append(b, " ∪ "...)
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, r.Lo[i], 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, r.Hi[i], 10)
		b = append(b, ']')
	}
	return string(b)
}

// Lower compiles the predicate against a concrete column into code
// intervals. This is where logical types disappear:
//
//   - Int64 literals become codes directly.
//   - Float64 literals go through the order-preserving encoding. Because
//     the encoding is a bijection on non-NaN floats, strict/inclusive
//     bounds translate exactly.
//   - String literals on a sealed dictionary translate via
//     LowerBound/UpperBound so that range predicates are correct even for
//     strings absent from the dictionary. On an unsealed dictionary only
//     EQ/NE/IN are representable (code order is meaningless); range ops
//     return an error telling the caller to seal first.
func Lower(p Pred, col *storage.Column) (Ranges, error) {
	if err := p.Validate(); err != nil {
		return Ranges{}, err
	}
	for _, a := range p.Args {
		if a.Type() != col.Type() {
			return Ranges{}, fmt.Errorf("%w: %s literal against %s column %q",
				ErrTypeMismatch, a.Type(), col.Type(), col.Name())
		}
	}
	if col.Type() == storage.String && !col.DictSorted() {
		switch p.Op {
		case EQ, NE, In, Or:
			// point ops work on unsorted dictionaries; Or defers to its
			// disjuncts' own checks.
		default:
			return Ranges{}, fmt.Errorf("expr: %s on string column %q requires a sealed dictionary", p.Op, col.Name())
		}
	}

	switch p.Op {
	case IsNull, IsNotNull:
		return Ranges{}, fmt.Errorf("expr: %s has no code-interval form (use LowerColumn)", p.Op)
	case Or:
		out := Ranges{}
		for _, sub := range p.Sub {
			r, err := Lower(sub, col)
			if err != nil {
				return Ranges{}, err
			}
			out.Lo = append(out.Lo, r.Lo...)
			out.Hi = append(out.Hi, r.Hi...)
		}
		return out.Normalize(), nil
	case EQ:
		return pointRanges(col, p.Args[0], false)
	case NE:
		return pointRanges(col, p.Args[0], true)
	case In:
		out := Ranges{}
		for _, a := range p.Args {
			r, err := pointRanges(col, a, false)
			if err != nil {
				return Ranges{}, err
			}
			out.Lo = append(out.Lo, r.Lo...)
			out.Hi = append(out.Hi, r.Hi...)
		}
		return out.Normalize(), nil
	case LT:
		hi, ok, err := boundBelow(col, p.Args[0], false)
		if err != nil || !ok {
			return Ranges{}, err
		}
		return Ranges{Lo: []int64{math.MinInt64}, Hi: []int64{hi}}, nil
	case LE:
		hi, ok, err := boundBelow(col, p.Args[0], true)
		if err != nil || !ok {
			return Ranges{}, err
		}
		return Ranges{Lo: []int64{math.MinInt64}, Hi: []int64{hi}}, nil
	case GT:
		lo, ok, err := boundAbove(col, p.Args[0], false)
		if err != nil || !ok {
			return Ranges{}, err
		}
		return Ranges{Lo: []int64{lo}, Hi: []int64{math.MaxInt64}}, nil
	case GE:
		lo, ok, err := boundAbove(col, p.Args[0], true)
		if err != nil || !ok {
			return Ranges{}, err
		}
		return Ranges{Lo: []int64{lo}, Hi: []int64{math.MaxInt64}}, nil
	case Between:
		lo, okLo, err := boundAbove(col, p.Args[0], true)
		if err != nil {
			return Ranges{}, err
		}
		hi, okHi, err := boundBelow(col, p.Args[1], true)
		if err != nil {
			return Ranges{}, err
		}
		if !okLo || !okHi || lo > hi {
			return Ranges{}, nil
		}
		return Ranges{Lo: []int64{lo}, Hi: []int64{hi}}, nil
	}
	return Ranges{}, fmt.Errorf("%w: %d", ErrUnknownOp, uint8(p.Op))
}

// ColPred is the physical per-column predicate: either code intervals over
// non-null rows (the normal case; kernels mask NULLs) or "exactly the NULL
// rows" (NullOnly). The two are mutually exclusive: any comparison implies
// NOT NULL in SQL, so a conjunction mixing IS NULL with comparisons is
// unsatisfiable.
type ColPred struct {
	R        Ranges
	NullOnly bool
}

// Empty reports whether the predicate provably matches nothing, before
// consulting data or metadata.
func (c ColPred) Empty() bool { return !c.NullOnly && c.R.Empty() }

// LowerColumn lowers all conjuncts of c targeting col into a ColPred.
//
//   - IS NOT NULL adds no interval constraint: kernels exclude NULL rows
//     from every comparison anyway, so it lowers to the full code range.
//   - IS NULL alone yields NullOnly.
//   - IS NULL combined with any comparison or IS NOT NULL is empty.
func LowerColumn(c Conj, col *storage.Column) (ColPred, error) {
	r := Full()
	hasNull, constrained := false, false
	for _, p := range c.Preds {
		if p.Col != col.Name() {
			continue
		}
		switch p.Op {
		case IsNull:
			if err := p.Validate(); err != nil {
				return ColPred{}, err
			}
			hasNull = true
			continue
		case IsNotNull:
			if err := p.Validate(); err != nil {
				return ColPred{}, err
			}
			constrained = true
			continue
		}
		constrained = true
		pr, err := Lower(p, col)
		if err != nil {
			return ColPred{}, err
		}
		r = r.Intersect(pr)
		if r.Empty() {
			return ColPred{R: r}, nil
		}
	}
	if hasNull {
		if constrained {
			return ColPred{}, nil // IS NULL ∧ comparison: nothing matches
		}
		return ColPred{NullOnly: true}, nil
	}
	return ColPred{R: r}, nil
}

// pointRanges lowers an equality (or its negation) to intervals.
func pointRanges(col *storage.Column, v storage.Value, negate bool) (Ranges, error) {
	code, ok, err := col.EncodeValue(v)
	if err != nil {
		return Ranges{}, err
	}
	if !ok {
		// Value absent (string not in dictionary): EQ matches nothing,
		// NE matches everything (nulls are masked elsewhere).
		if negate {
			return Full(), nil
		}
		return Ranges{}, nil
	}
	if !negate {
		return Ranges{Lo: []int64{code}, Hi: []int64{code}}, nil
	}
	out := Ranges{}
	if code != math.MinInt64 {
		out.Lo = append(out.Lo, math.MinInt64)
		out.Hi = append(out.Hi, code-1)
	}
	if code != math.MaxInt64 {
		out.Lo = append(out.Lo, code+1)
		out.Hi = append(out.Hi, math.MaxInt64)
	}
	return out, nil
}

// boundBelow returns the largest code satisfying "code < v" (inclusive
// false) or "code <= v" (inclusive true); ok=false means no code can
// satisfy the predicate (empty result).
func boundBelow(col *storage.Column, v storage.Value, inclusive bool) (int64, bool, error) {
	switch col.Type() {
	case storage.Int64, storage.Float64:
		code, _, err := col.EncodeValue(v)
		if err != nil {
			return 0, false, err
		}
		if inclusive {
			return code, true, nil
		}
		if code == math.MinInt64 {
			return 0, false, nil
		}
		return code - 1, true, nil
	case storage.String:
		d := col.Dict()
		var cut int64
		if inclusive {
			cut = d.UpperBound(v.Str()) // first code with value > v
		} else {
			cut = d.LowerBound(v.Str()) // first code with value >= v
		}
		if cut == 0 {
			return 0, false, nil
		}
		return cut - 1, true, nil
	}
	return 0, false, fmt.Errorf("expr: unsupported column type %v", col.Type())
}

// boundAbove returns the smallest code satisfying "code > v" / "code >= v".
func boundAbove(col *storage.Column, v storage.Value, inclusive bool) (int64, bool, error) {
	switch col.Type() {
	case storage.Int64, storage.Float64:
		code, _, err := col.EncodeValue(v)
		if err != nil {
			return 0, false, err
		}
		if inclusive {
			return code, true, nil
		}
		if code == math.MaxInt64 {
			return 0, false, nil
		}
		return code + 1, true, nil
	case storage.String:
		d := col.Dict()
		var cut int64
		if inclusive {
			cut = d.LowerBound(v.Str())
		} else {
			cut = d.UpperBound(v.Str())
		}
		if cut >= int64(d.Len()) {
			return 0, false, nil
		}
		return cut, true, nil
	}
	return 0, false, fmt.Errorf("expr: unsupported column type %v", col.Type())
}
