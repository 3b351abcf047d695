package workload

import (
	"fmt"
	"math/rand"
)

// QueryKind classifies the query stream's access pattern.
type QueryKind int

const (
	// UniformRange: range predicates with uniformly random position.
	UniformRange QueryKind = iota
	// HotRange: range predicates concentrated in a hot sub-domain.
	HotRange
	// DriftingHot: like HotRange, but the hot sub-domain jumps to a new
	// location every ShiftEvery queries — the workload-drift experiment.
	DriftingHot
)

var queryKindNames = [...]string{
	UniformRange: "uniform-range", HotRange: "hot-range", DriftingHot: "drifting-hot",
}

// String names the query kind.
func (k QueryKind) String() string {
	if k >= 0 && int(k) < len(queryKindNames) {
		return queryKindNames[k]
	}
	return fmt.Sprintf("QueryKind(%d)", int(k))
}

// QuerySpec parameterizes a query stream over a value domain.
type QuerySpec struct {
	Kind   QueryKind
	Domain int64
	// Selectivity is the fraction of the domain covered by each range
	// predicate. Default 0.01 (1%).
	Selectivity float64
	// HotFrac is the fraction of the domain occupied by the hot region
	// for HotRange/DriftingHot. Default 0.1.
	HotFrac float64
	// ShiftEvery relocates the hot region every this many queries for
	// DriftingHot. Default 1000.
	ShiftEvery int
	Seed       int64
}

func (s QuerySpec) withDefaults() QuerySpec {
	if s.Selectivity <= 0 {
		s.Selectivity = 0.01
	}
	if s.HotFrac <= 0 {
		s.HotFrac = 0.1
	}
	if s.ShiftEvery <= 0 {
		s.ShiftEvery = 1000
	}
	return s
}

// Range is one generated predicate interval [Lo, Hi] (inclusive).
type Range struct {
	Lo, Hi int64
}

// Gen is a deterministic query-stream generator.
type Gen struct {
	spec  QuerySpec
	rng   *rand.Rand
	i     int
	hotLo int64 // current hot region start (HotRange/DriftingHot)
}

// NewGen creates a generator for spec.
func NewGen(spec QuerySpec) *Gen {
	spec = spec.withDefaults()
	g := &Gen{spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
	g.relocate()
	return g
}

// relocate picks a new hot region.
func (g *Gen) relocate() {
	hotWidth := int64(float64(g.spec.Domain) * g.spec.HotFrac)
	if hotWidth < 1 {
		hotWidth = 1
	}
	if g.spec.Domain > hotWidth {
		g.hotLo = g.rng.Int63n(g.spec.Domain - hotWidth)
	} else {
		g.hotLo = 0
	}
}

// Next returns the next predicate interval in the stream.
func (g *Gen) Next() Range {
	defer func() { g.i++ }()
	width := int64(float64(g.spec.Domain) * g.spec.Selectivity)
	if width < 1 {
		width = 1
	}
	switch g.spec.Kind {
	case UniformRange:
		lo := g.pos(g.spec.Domain - width)
		return Range{Lo: lo, Hi: lo + width - 1}
	case HotRange, DriftingHot:
		if g.spec.Kind == DriftingHot && g.i > 0 && g.i%g.spec.ShiftEvery == 0 {
			g.relocate()
		}
		hotWidth := int64(float64(g.spec.Domain) * g.spec.HotFrac)
		if hotWidth < width {
			hotWidth = width
		}
		lo := g.hotLo + g.pos(hotWidth-width)
		if lo+width > g.spec.Domain {
			lo = g.spec.Domain - width
		}
		return Range{Lo: lo, Hi: lo + width - 1}
	default:
		panic(fmt.Sprintf("workload: unknown query kind %d", g.spec.Kind))
	}
}

// pos returns a uniform offset in [0, n] handling n<=0.
func (g *Gen) pos(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return g.rng.Int63n(n + 1)
}
