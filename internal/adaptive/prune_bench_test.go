package adaptive

import (
	"math/rand"
	"testing"

	"adskip/internal/core"
	"adskip/internal/expr"
	"adskip/internal/storage"
	"adskip/internal/zonemap"
)

// BenchmarkPrune times one probe of a 1% range over 4 Mi sorted rows,
// through the two directories that share the block level: the static
// zonemap at 4,096-row zones (1,024 zones, 16 blocks) and an adaptive
// zonemap configured as the experiments configure it at this size, then
// converged by 4,096 queries of the same stream (~16k zones). Each runs
// over the column's 8-byte view and, as "/narrow", over its 4-byte view,
// the width every workload column that skips is stored at. It reports the
// entries a probe tests (blocks plus members) and the time per entry
// beside ns/op.
func BenchmarkPrune(b *testing.B) {
	const n, warm = 4 << 20, 4096
	wide := seqCodes(n, func(i int) int64 { return int64(i) })
	narrow := make([]uint32, n)
	for i, c := range wide {
		narrow[i] = uint32(c)
	}
	stream := func() func() expr.Ranges {
		rng := rand.New(rand.NewSource(1))
		return func() expr.Ranges {
			lo := rng.Int63n(n - n/100)
			return oneRange(lo, lo+n/100)
		}
	}
	converged := func(view storage.Vec) func() core.Skipper {
		var z *Zonemap
		return func() core.Skipper {
			if z == nil { // converge once: Prune leaves the map as it was
				z = New(view, nil, n/256, 256)
				for q, next := 0, stream(); q < warm; q++ {
					executeVec(z, view, nil, next())
				}
			}
			return z
		}
	}
	wideView, narrowView := storage.Vec{W: wide}, storage.Vec{N: narrow}
	for _, bc := range []struct {
		name  string
		build func() core.Skipper
	}{
		{"static-4096", func() core.Skipper { return zonemap.Build(wideView, nil, 4096) }},
		{"static-4096/narrow", func() core.Skipper { return zonemap.Build(narrowView, nil, 4096) }},
		{"adaptive", converged(wideView)},
		{"adaptive/narrow", converged(narrowView)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			sk, next := bc.build(), stream()
			queries := make([]expr.Ranges, 256)
			for i := range queries {
				queries[i] = next()
			}
			entries := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				entries += sk.Prune(queries[i%len(queries)]).ZonesProbed
			}
			b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(entries, 1)), "ns/entry")
			b.ReportMetric(float64(sk.Metadata().Zones), "zones")
		})
	}
}
