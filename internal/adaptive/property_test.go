package adaptive

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"adskip/internal/bitvec"
	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/obs"
	"adskip/internal/scan"
	"adskip/internal/storage"
)

// propertyColumn draws one column for TestAdaptiveProperties: values in
// [0, domain) of the named shape, and a null bitmap, nil or not.
func propertyColumn(rng *rand.Rand, shape string, n, floor int) (codes []int64, nulls *bitvec.BitVec, domain int64) {
	domain = 1_000_000
	codes = make([]int64, n)
	switch shape {
	case "banded": // bands of random width, none starting on the floor grid
		for lo := 0; lo < n; {
			hi := lo + 1 + rng.Intn(6*floor)
			if hi%floor == 0 {
				hi++
			}
			width := 1 + rng.Int63n(domain/64)
			base := rng.Int63n(domain - width)
			for i := lo; i < min(hi, n); i++ {
				codes[i] = base + rng.Int63n(width)
			}
			lo = hi
		}
	case "sorted":
		for i := range codes {
			codes[i] = int64(i) * (domain / int64(n))
		}
	case "semi-sorted": // row i holds the value of row i+64, ±64 rows
		step := domain / int64(n+128)
		for i := range codes {
			codes[i] = (int64(i) + rng.Int63n(129)) * step
		}
	case "uniform":
		for i := range codes {
			codes[i] = rng.Int63n(domain)
		}
	}
	switch rng.Intn(3) {
	case 1: // scattered
		nulls = bitvec.New(n)
		for i := 0; i < n/8; i++ {
			nulls.Set(rng.Intn(n))
		}
	case 2: // runs
		nulls = bitvec.New(n)
		for k := rng.Intn(6); k >= 0; k-- {
			lo := rng.Intn(n)
			for i := lo; i < min(n, lo+1+rng.Intn(3*floor)); i++ {
				nulls.Set(i)
			}
		}
	}
	return codes, nulls, domain
}

// propertyRanges draws a normalized set of one to three narrow intervals.
func propertyRanges(rng *rand.Rand, domain int64) expr.Ranges {
	var r expr.Ranges
	for k := 1 + rng.Intn(3); k > 0; k-- {
		lo := rng.Int63n(domain)
		r.Lo = append(r.Lo, lo)
		r.Hi = append(r.Hi, lo+rng.Int63n(domain/20))
	}
	return r.Normalize()
}

// checkPrune fails unless res's windows are ordered, disjoint and
// non-empty, contain every row match reports, hold nothing but matches
// when Covered, and leave exactly RowsSkipped rows outside.
func checkPrune(res core.PruneResult, n int, match func(row int) bool) error {
	inCand, covered, prevHi := make([]bool, n), make([]bool, n), 0
	for _, c := range res.Zones {
		if c.Lo >= c.Hi || c.Lo < prevHi || c.Hi > n {
			return fmt.Errorf("window %+v after row %d of %d", c, prevHi, n)
		}
		prevHi = c.Hi
		for i := c.Lo; i < c.Hi; i++ {
			inCand[i], covered[i] = true, c.Covered
		}
	}
	skipped := 0
	for i := 0; i < n; i++ {
		switch m := match(i); {
		case m && !inCand[i]:
			return fmt.Errorf("matching row %d skipped", i)
		case covered[i] && !m:
			return fmt.Errorf("row %d is in a covered window and does not match", i)
		case !inCand[i]:
			skipped++
		}
	}
	if skipped != res.RowsSkipped {
		return fmt.Errorf("RowsSkipped=%d, %d rows lie outside the windows", res.RowsSkipped, skipped)
	}
	return nil
}

// The adaptive zonemap's contract, checked over random columns — value
// bands that start off the MinZoneRows grid, sorted, semi-sorted and
// uniform values; no NULLs, scattered NULLs and runs of them — at both
// code widths, under a stream of random range sets. It is the one
// structure that changes on reads, so after every ledger record (split,
// merge, arbitration flip) the structure must hold exactly against the
// column, and probing it with the query just run and with a fresh one must
// give windows that hold every match, covered windows that hold nothing
// else, and a RowsSkipped that counts the rest. Every count the stream
// gets must be the true one, and both widths must end with the same zones.
func TestAdaptiveProperties(t *testing.T) {
	shapes := []string{"banded", "sorted", "semi-sorted", "uniform"}
	cuts, checks := 0, 0
	for seed := int64(0); seed < 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shape := shapes[seed%int64(len(shapes))]
		floor := 8 + rng.Intn(25)
		cfg := Config{
			InitialZoneRows: floor * (4 + rng.Intn(13)),
			MinZoneRows:     floor,
			SplitParts:      2 + rng.Intn(7),
		}
		tune := newTuning(cfg.withDefaults())
		tune.maxZones, tune.window = 1000, 8+rng.Intn(25)
		tune.mergeSweepEvery, tune.reprobeEvery = 1+rng.Intn(8), 1+rng.Intn(8)
		n := 500 + rng.Intn(2500)
		codes, nulls, domain := propertyColumn(rng, shape, n, floor)
		narrow := make([]uint32, n)
		for i, c := range codes {
			narrow[i] = uint32(c)
		}
		// Each query and the fresh probe that may follow it.
		queries, probes := make([]expr.Ranges, 150), make([]expr.Ranges, 150)
		for i := range queries {
			queries[i], probes[i] = propertyRanges(rng, domain), propertyRanges(rng, domain)
		}
		match := func(r expr.Ranges) func(int) bool {
			return func(i int) bool { return (nulls == nil || !nulls.Get(i)) && r.Contains(codes[i]) }
		}

		var zones [2][]zone
		for w, view := range []storage.Vec{{W: codes}, {N: narrow}} {
			what := fmt.Sprintf("seed %d, %s, %d-byte codes", seed, shape, view.Width())
			z := New(view, nulls, cfg)
			z.tune = tune
			records := 0
			z.SetJournal(func(obs.LedgerRecord) { records++ })
			for q, r := range queries {
				got, c := executeVec(z, view, nulls, r)
				cuts += c
				if want := scan.Count(view, 0, n, r, nulls, 0); got != want {
					t.Fatalf("%s, query %d %v: count %d, want %d", what, q, r, got, want)
				}
				if records == 0 {
					continue
				}
				records = 0
				checks++
				if err := z.CheckInvariants(view, nulls, true); err != nil {
					t.Fatalf("%s, after query %d %v: %v", what, q, r, err)
				}
				if !z.Enabled() {
					continue // a disabled probe declines; nothing to check
				}
				for _, probe := range []expr.Ranges{r, probes[q]} {
					if err := checkPrune(z.Prune(probe), n, match(probe)); err != nil {
						t.Fatalf("%s, after query %d %v, probe %v: %v", what, q, r, probe, err)
					}
				}
			}
			zones[w] = z.zones
		}
		if !reflect.DeepEqual(zones[0], zones[1]) {
			t.Fatalf("seed %d, %s: zones over 8-byte codes %+v, over 4-byte codes %+v", seed, shape, zones[0], zones[1])
		}
	}
	if cuts < 200 || checks < 800 {
		t.Fatalf("the stream cut %d parts and checked the structure %d times", cuts, checks)
	}
}
