package workload

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistributionNames(t *testing.T) {
	names := map[Distribution]string{
		Sorted: "sorted", SemiSorted: "semi-sorted", Clustered: "clustered",
		Uniform: "uniform", Zipf: "zipf",
	}
	for d, want := range names {
		if d.String() != want {
			t.Fatalf("%d: %q want %q", d, d.String(), want)
		}
	}
	if Distribution(99).String() == "" {
		t.Fatal("unknown distribution renders empty")
	}
}

func TestGenerateSorted(t *testing.T) {
	v := Generate(DataSpec{N: 10000, Dist: Sorted, Domain: 10000, Seed: 1})
	if !sort.SliceIsSorted(v, func(i, j int) bool { return v[i] < v[j] }) {
		t.Fatal("sorted data not sorted")
	}
	if v[0] != 0 || v[len(v)-1] >= 10000 {
		t.Fatalf("range wrong: %d..%d", v[0], v[len(v)-1])
	}
}

func TestGenerateSemiSortedLocality(t *testing.T) {
	spec := DataSpec{N: 10000, Dist: SemiSorted, Domain: 10000, Window: 20, NoiseFrac: 0.2, Seed: 2}
	v := Generate(spec)
	// Values must stay near their sorted position: displacement bounded by
	// the window times domain step (each swap moves a value at most Window
	// rows; a row can be swapped multiple times but stays statistically
	// close — check a generous bound of 4 windows for 99% of rows).
	far := 0
	for i, x := range v {
		want := int64(i)
		if x-want > 4*20 || want-x > 4*20 {
			far++
		}
	}
	if far > len(v)/100 {
		t.Fatalf("%d rows displaced beyond bound", far)
	}
	// It must not be fully sorted.
	if sort.SliceIsSorted(v, func(i, j int) bool { return v[i] < v[j] }) {
		t.Fatal("semi-sorted came out fully sorted")
	}
}

func TestGenerateClusteredLocality(t *testing.T) {
	spec := DataSpec{N: 6400, Dist: Clustered, Domain: 6400, Clusters: 64, Seed: 3}
	v := Generate(spec)
	// Each 100-row segment must span at most one band width (100 values).
	segLen := 100
	for s := 0; s < 64; s++ {
		lo, hi := v[s*segLen], v[s*segLen]
		for i := s * segLen; i < (s+1)*segLen; i++ {
			if v[i] < lo {
				lo = v[i]
			}
			if v[i] > hi {
				hi = v[i]
			}
		}
		if hi-lo >= 100 {
			t.Fatalf("segment %d spans %d values", s, hi-lo)
		}
	}
	// Not globally sorted (bands shuffled).
	if sort.SliceIsSorted(v, func(i, j int) bool { return v[i] < v[j] }) {
		t.Fatal("clustered data came out sorted")
	}
}

func TestGenerateUniformAndZipfInDomain(t *testing.T) {
	for _, d := range []Distribution{Uniform, Zipf} {
		v := Generate(DataSpec{N: 5000, Dist: d, Domain: 1000, Seed: 4})
		for i, x := range v {
			if x < 0 || x >= 1000 {
				t.Fatalf("%v: v[%d]=%d out of domain", d, i, x)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DataSpec{N: 1000, Dist: Uniform, Domain: 100, Seed: 7})
	b := Generate(DataSpec{N: 1000, Dist: Uniform, Domain: 100, Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := Generate(DataSpec{N: 1000, Dist: Uniform, Domain: 100, Seed: 8})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateUnknownDistPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Generate(DataSpec{N: 10, Dist: Distribution(42)})
}

func TestQueryKindNames(t *testing.T) {
	if UniformRange.String() != "uniform-range" || DriftingHot.String() != "drifting-hot" ||
		HotRange.String() != "hot-range" {
		t.Fatal("names wrong")
	}
	if QueryKind(9).String() == "" {
		t.Fatal("unknown kind renders empty")
	}
}

func TestUniformRangeSelectivity(t *testing.T) {
	g := NewGen(QuerySpec{Kind: UniformRange, Domain: 1_000_000, Selectivity: 0.01, Seed: 1})
	for i := 0; i < 100; i++ {
		r := g.Next()
		width := r.Hi - r.Lo + 1
		if width != 10000 {
			t.Fatalf("width=%d want 10000", width)
		}
		if r.Lo < 0 || r.Hi >= 1_000_000 {
			t.Fatalf("range [%d,%d] out of domain", r.Lo, r.Hi)
		}
	}
}

func TestHotRangeStaysHot(t *testing.T) {
	g := NewGen(QuerySpec{Kind: HotRange, Domain: 1_000_000, Selectivity: 0.001, HotFrac: 0.05, Seed: 3})
	first := g.Next()
	for i := 0; i < 200; i++ {
		r := g.Next()
		// All queries within ~one hot region width of the first.
		if r.Lo < first.Lo-60000 || r.Lo > first.Lo+60000 {
			t.Fatalf("query %d left the hot region: %d vs %d", i, r.Lo, first.Lo)
		}
	}
}

func TestDriftingHotMoves(t *testing.T) {
	g := NewGen(QuerySpec{Kind: DriftingHot, Domain: 10_000_000, Selectivity: 0.0001, HotFrac: 0.01, ShiftEvery: 50, Seed: 4})
	var phases []int64
	for p := 0; p < 4; p++ {
		lo := int64(-1)
		for i := 0; i < 50; i++ {
			r := g.Next()
			if lo == -1 {
				lo = r.Lo
			}
			// Stays within the current hot region width.
			if r.Lo < lo-200_000 || r.Lo > lo+200_000 {
				t.Fatalf("phase %d query %d strayed", p, i)
			}
		}
		phases = append(phases, lo)
	}
	moved := false
	for i := 1; i < len(phases); i++ {
		if phases[i]-phases[0] > 300_000 || phases[0]-phases[i] > 300_000 {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("hot region never moved: %v", phases)
	}
}

// Property: generated ranges are always valid and inside the domain, for
// arbitrary spec parameters.
func TestQuickQueryRangesValid(t *testing.T) {
	f := func(seed int64, selMil uint16, kindRaw uint8) bool {
		kind := QueryKind(int(kindRaw) % len(queryKindNames))
		sel := float64(selMil%1000)/1000 + 0.0001
		g := NewGen(QuerySpec{Kind: kind, Domain: 100000, Selectivity: sel, Seed: seed, ShiftEvery: 7})
		for i := 0; i < 50; i++ {
			r := g.Next()
			if r.Lo > r.Hi || r.Lo < 0 || r.Hi >= 100000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateBimodal(t *testing.T) {
	v := Generate(DataSpec{N: 10000, Dist: Bimodal, Domain: 1_000_000, Seed: 1})
	low, high, mid := 0, 0, 0
	for _, x := range v {
		switch {
		case x < 300_000:
			low++
		case x >= 700_000:
			high++
		default:
			mid++
		}
	}
	if mid != 0 {
		t.Fatalf("%d values in the gap", mid)
	}
	if low == 0 || high == 0 {
		t.Fatalf("modes unbalanced: low=%d high=%d", low, high)
	}
	if Bimodal.String() != "bimodal" {
		t.Fatal("name")
	}
}

func TestParseDistribution(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Distribution
	}{
		{"sorted", Sorted}, {"semi-sorted", SemiSorted}, {"clustered", Clustered},
		{"uniform", Uniform}, {"zipf", Zipf}, {"bimodal", Bimodal},
	} {
		d, err := ParseDistribution(tc.name)
		if err != nil || d != tc.want || d.String() != tc.name {
			t.Fatalf("ParseDistribution(%q) = %v, %v; want %v", tc.name, d, err, tc.want)
		}
	}
	_, err := ParseDistribution("gaussian")
	if err == nil || !strings.Contains(err.Error(), "sorted|semi-sorted|clustered|uniform|zipf|bimodal") {
		t.Fatalf("unknown distribution: err %v, want the valid names", err)
	}
}
