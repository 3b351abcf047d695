package shard

import (
	"errors"
	"fmt"

	"adskip/internal/core"
	"adskip/internal/engine"
	"adskip/internal/obs"
)

// Administrative surface: the facade drives skipping lifecycle and
// introspection through the same methods a plain engine exposes; the Manager fans each out across its shards.

// eachShard runs do on every shard's engine and joins the errors, each
// named by its shard.
func (m *Manager) eachShard(do func(*engine.Engine) error) error {
	var errs error
	for _, s := range m.shards {
		if err := do(s.eng); err != nil {
			errs = errors.Join(errs, fmt.Errorf("shard %d: %w", s.id, err))
		}
	}
	return errs
}

// EnableSkipping builds skipping metadata on every shard for the named
// columns (all when none given).
func (m *Manager) EnableSkipping(cols ...string) error {
	return m.eachShard(func(e *engine.Engine) error { return e.EnableSkipping(cols...) })
}

// VerifySkipping revalidates every shard's skipping metadata.
func (m *Manager) VerifySkipping(cols ...string) error {
	return m.eachShard(func(e *engine.Engine) error { return e.VerifySkipping(cols...) })
}

// SkipperMetadata merges per-shard metadata per column: zone and byte
// totals sum; a column counts as enabled while any shard's arbitration
// keeps it enabled.
func (m *Manager) SkipperMetadata() map[string]core.Metadata {
	out := make(map[string]core.Metadata)
	for _, s := range m.shards {
		for col, md := range s.eng.SkipperMetadata() {
			agg, ok := out[col]
			if !ok {
				out[col] = md
				continue
			}
			agg.Zones += md.Zones
			agg.Bytes += md.Bytes
			agg.Enabled = agg.Enabled || md.Enabled
			out[col] = agg
		}
	}
	return out
}

// AdaptationROI returns every shard's per-column adaptation ROI rows
// (each engine stamps its own 1-based shard number). maxDead caps the
// per-column dead-zone detail.
func (m *Manager) AdaptationROI(maxDead int) []obs.ColumnROI {
	var out []obs.ColumnROI
	for _, s := range m.shards {
		out = append(out, s.eng.AdaptationROI(maxDead)...)
	}
	return out
}
