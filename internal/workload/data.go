// Package workload generates the synthetic data distributions and query
// streams of the evaluation. The abstract defines the paper's results by
// distribution class — sorted, semi-sorted, clustered, and arbitrary — so
// the generators are parameterized to produce exactly those classes, plus
// drifting variants for the adaptation experiments.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"adskip/internal/storage"
)

// Distribution classifies the physical value order of a generated column.
type Distribution int

const (
	// Sorted: values monotonically increase with row position — the best
	// case for data skipping.
	Sorted Distribution = iota
	// SemiSorted: globally sorted with local disorder (bounded-window
	// displacement), as produced by near-ordered ingest like timestamps
	// from multiple sources.
	SemiSorted
	// Clustered: the row space is divided into contiguous segments, each
	// holding values from a narrow band; band order is shuffled so the
	// column is not globally sorted but has strong local value locality.
	Clustered
	// Uniform: values drawn uniformly at random — the adversarial
	// "arbitrary distribution" where zonemaps cannot prune.
	Uniform
	// Zipf: values drawn from a Zipf distribution, randomly placed.
	// Heavy-hitter values appear everywhere, so min/max pruning is weak
	// but not hopeless at the domain tails.
	Zipf
	// Bimodal: rows interleave two value modes that each drift with row
	// position, leaving a wide empty gap between them. Every zone's
	// min/max hull spans the gap (hull pruning fails) while the zone's
	// actual values occupy two narrow bands — the distribution that
	// separates occurrence-based metadata (imprints) from hulls.
	Bimodal
)

// distributionNames is the one name table: String reads it and
// ParseDistribution inverts it.
var distributionNames = [...]string{
	Sorted: "sorted", SemiSorted: "semi-sorted", Clustered: "clustered",
	Uniform: "uniform", Zipf: "zipf", Bimodal: "bimodal",
}

// String names the distribution.
func (d Distribution) String() string {
	if d >= 0 && int(d) < len(distributionNames) {
		return distributionNames[d]
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// ParseDistribution is the inverse of Distribution.String.
func ParseDistribution(name string) (Distribution, error) {
	for d, n := range distributionNames {
		if n == name {
			return Distribution(d), nil
		}
	}
	return 0, fmt.Errorf("unknown distribution %q (want %s)", name, strings.Join(distributionNames[:], "|"))
}

// DataSpec parameterizes a generated column.
type DataSpec struct {
	N      int          // rows
	Dist   Distribution // value order
	Domain int64        // values fall in [0, Domain)
	// Clusters is the number of contiguous segments for Clustered.
	// Default 64.
	Clusters int
	// Window is the displacement window for SemiSorted, in rows.
	// Default N/1000 (at least 2).
	Window int
	// NoiseFrac is the fraction of rows displaced for SemiSorted.
	// Default 0.1.
	NoiseFrac float64
	// ZipfS is the Zipf exponent (>1). Default 1.2.
	ZipfS float64
	Seed  int64
}

func (s DataSpec) withDefaults() DataSpec {
	if s.Domain <= 0 {
		s.Domain = int64(s.N)
	}
	if s.Clusters <= 0 {
		s.Clusters = 64
	}
	if s.Window <= 0 {
		s.Window = s.N / 1000
		if s.Window < 2 {
			s.Window = 2
		}
	}
	if s.NoiseFrac <= 0 {
		s.NoiseFrac = 0.1
	}
	if s.ZipfS <= 1 {
		s.ZipfS = 1.2
	}
	return s
}

// Generate produces the column values for spec.
func Generate(spec DataSpec) []int64 {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	v := make([]int64, spec.N)
	switch spec.Dist {
	case Sorted:
		for i := range v {
			v[i] = int64(i) * spec.Domain / int64(spec.N)
		}
	case SemiSorted:
		for i := range v {
			v[i] = int64(i) * spec.Domain / int64(spec.N)
		}
		// Displace a fraction of rows within a bounded window.
		for i := range v {
			if rng.Float64() < spec.NoiseFrac {
				j := i + rng.Intn(2*spec.Window+1) - spec.Window
				if j < 0 {
					j = 0
				}
				if j >= spec.N {
					j = spec.N - 1
				}
				v[i], v[j] = v[j], v[i]
			}
		}
	case Clustered:
		k := spec.Clusters
		if k > spec.N {
			k = spec.N
		}
		// Shuffle band order so the column is not globally sorted.
		bands := rng.Perm(k)
		bandWidth := spec.Domain / int64(k)
		if bandWidth == 0 {
			bandWidth = 1
		}
		for i := range v {
			seg := i * k / spec.N
			base := int64(bands[seg]) * bandWidth
			v[i] = base + rng.Int63n(bandWidth)
		}
	case Uniform:
		for i := range v {
			v[i] = rng.Int63n(spec.Domain)
		}
	case Zipf:
		z := rand.NewZipf(rng, spec.ZipfS, 1, uint64(spec.Domain-1))
		for i := range v {
			v[i] = int64(z.Uint64())
		}
	case Bimodal:
		// Modes occupy the bottom and top 30% of the domain; values within
		// a mode follow row position (locality), rows alternate modes.
		modeWidth := spec.Domain * 3 / 10
		if modeWidth < 1 {
			modeWidth = 1
		}
		for i := range v {
			pos := int64(i/2) * modeWidth / int64(spec.N/2+1)
			if i%2 == 1 {
				pos += spec.Domain - modeWidth
			}
			v[i] = pos
		}
	default:
		panic(fmt.Sprintf("workload: unknown distribution %d", spec.Dist))
	}
	return v
}

// DataColumns is the schema of the generated "data" table, in column
// order: v carries the distribution, seq is the row number (always
// sorted), noise is uniform in [0, 1000) and never skippable.
var DataColumns = []struct {
	Name string
	Type storage.Type
}{{"v", storage.Int64}, {"seq", storage.Int64}, {"noise", storage.Float64}}

// DataSeed is the default seed of the generated "data" table.
const DataSeed = 42

// DataBatches generates n rows of the "data" table — v from Generate over
// a domain equal to n, noise from a second generator seeded with seed+1
// — and hands them to emit in batches of up to 65536 rows, which amortize
// an append lock (and, sharded, the routing) that row-at-a-time ingest
// pays per row. The batch's backing array is reused: emit must not keep it.
func DataBatches(dist Distribution, n int, seed int64, emit func(rows [][]storage.Value) error) error {
	vals := Generate(DataSpec{N: n, Dist: dist, Domain: int64(n), Seed: seed})
	rng := rand.New(rand.NewSource(seed + 1))
	batch := make([][]storage.Value, 0, min(n, 1<<16))
	for i, v := range vals {
		batch = append(batch, []storage.Value{
			storage.IntValue(v), storage.IntValue(int64(i)), storage.FloatValue(rng.Float64() * 1000)})
		if len(batch) == cap(batch) || i == n-1 {
			if err := emit(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	return nil
}
