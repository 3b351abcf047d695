package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"adskip/internal/engine"
	"adskip/internal/expr"
	"adskip/internal/obs"
)

// Query executes q with a background context.
func (m *Manager) Query(q engine.Query) (*engine.Result, error) {
	return m.QueryContext(context.Background(), q)
}

// QueryContext executes q across the shards: shard-prune by key bounds,
// scatter q to the survivors, merge their partials in ascending shard order
// and finish the merged partial once. Per-phase accounting mirrors a plain
// engine — plan covers validation, shardprune is the new phase, and scan is
// the scatter+merge wall clock (the shards' per-predicate probe detail is
// merged into the trace's predicates).
func (m *Manager) QueryContext(ctx context.Context, q engine.Query) (*engine.Result, error) {
	if q.Limit < 0 {
		return nil, engine.ErrBadLimit
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", engine.ErrCanceled, context.Cause(ctx))
	}
	tr := &obs.QueryTrace{Table: m.name, Start: time.Now(), Origin: obs.OriginOf(ctx)}

	total := m.NumRows()
	if err := q.Where.Validate(); err != nil {
		return nil, err
	}
	tr.Plan = time.Since(tr.Start)

	tPrune := time.Now()
	targets, pruned := m.pruneShards(q.Where)
	tr.ShardPrune = time.Since(tPrune)
	for _, ti := range targets {
		tr.Shards = append(tr.Shards, m.shards[ti].id)
	}
	m.mPruned.Add(int64(pruned))
	m.mQueries.Inc()

	tScan := time.Now()
	partials, err := m.scatter(ctx, targets, q)
	if err != nil {
		return nil, err
	}
	// Equal keys keep the lower shard's rows first: a deterministic answer
	// (TestMergeOrderGolden).
	for _, p := range partials[1:] {
		partials[0].Merge(p)
	}
	res := partials[0].Finish()
	tr.Scan = time.Since(tScan)
	res.Stats.ShardsScanned, res.Stats.ShardsPruned = len(targets), pruned

	m.finishTrace(res, tr, partials[0].Trace().Predicates, total)
	return res, nil
}

// finishTrace closes the merged trace, over the merged per-predicate
// sections, and charges the logical query's latency: the Manager-level
// mirror of the engine's bookkeeping. No section's match count is the
// logical query's, so none is attributed.
func (m *Manager) finishTrace(res *engine.Result, tr *obs.QueryTrace, preds []obs.PredicateTrace, total int) {
	tr.Total = time.Since(tr.Start)
	tr.Cost = res.Stats
	tr.RowsTotal = total
	tr.Matched = res.Count
	for i := range preds {
		preds[i].Matched = -1
	}
	tr.Predicates = preds
	res.Trace = tr
	m.mLatency.Observe(tr.Total.Seconds())
}

// pruneShards eliminates shards whose observed key bounds cannot
// intersect the predicate's key-column intervals: the same lowering the
// engine uses for zone pruning, applied to one giant zone per shard.
// When every shard is prunable, one shard is kept (the engines'
// unsatisfiable-predicate shortcut produces the correct empty result
// shape, including aggregate NULL/zero semantics, at negligible cost).
// Returned targets are ascending shard indices (0-based).
func (m *Manager) pruneShards(where expr.Conj) (targets []int, pruned int) {
	keyCol, err := m.proto.Column(m.key)
	var cp expr.ColPred
	if err == nil {
		cp, err = expr.LowerColumn(where, keyCol)
	}
	c := cp.R.Clause()
	for si, s := range m.shards {
		s.mu.Lock()
		k := s.observed
		s.mu.Unlock()
		if err == nil && (cp.NullOnly && k.nulls == 0 || !cp.NullOnly && c.Test(k.keys) == expr.MatchNone) {
			pruned++
			continue
		}
		targets = append(targets, si)
	}
	if len(targets) == 0 && len(m.shards) > 0 {
		targets = append(targets, 0)
		pruned--
	}
	return targets, pruned
}

// scatter runs q on the target shards and returns their partials, in
// target order. A lone target — what key-bound pruning usually leaves —
// runs on the caller's goroutine under the caller's context: there is
// nothing to wait for and no sibling to cancel. Two or more targets each
// get a worker, and cancellation is cooperative and bidirectional: the
// caller's context cancels every worker (each shard engine checks at its
// scan checkpoints), and the first worker error cancels the rest. The
// shard-scanned counter is incremented per COMPLETED shard scan, so a
// cancelled gather reports exactly the partial work that ran.
func (m *Manager) scatter(ctx context.Context, targets []int, q engine.Query) ([]*engine.Partial, error) {
	if len(targets) == 1 {
		p, err := m.shards[targets[0]].eng.QueryPartial(ctx, q)
		if err != nil {
			return nil, err
		}
		m.mScanned.Inc()
		return []*engine.Partial{p}, nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*engine.Partial, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, si := range targets {
		wg.Add(1)
		go func(i, si int) {
			defer wg.Done()
			p, err := m.shards[si].eng.QueryPartial(cctx, q)
			if err != nil {
				errs[i] = err
				cancel()
				return
			}
			results[i] = p
			m.mScanned.Inc()
		}(i, si)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		// Prefer the real failure over the cancellations it caused in the
		// other workers.
		if !errors.Is(err, engine.ErrCanceled) {
			return nil, err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return results, nil
}

// Explain renders the sharded plan: the shard-prune outcome followed by
// each surviving shard's own plan (real metadata probes, like a plain
// engine's EXPLAIN).
func (m *Manager) Explain(q engine.Query) ([]string, error) {
	if q.Limit < 0 {
		return nil, engine.ErrBadLimit
	}
	if err := q.Where.Validate(); err != nil {
		return nil, err
	}
	targets, pruned := m.pruneShards(q.Where)
	out := []string{
		fmt.Sprintf("sharded table %q: %d shards (key %q, %s partitioning), %d rows",
			m.name, len(m.shards), m.key, m.mode, m.NumRows()),
		fmt.Sprintf("shard prune: %d of %d shards eliminated by key bounds, %d to scan",
			pruned, len(m.shards), len(targets)),
	}
	for _, si := range targets {
		s := m.shards[si]
		lines, err := s.eng.Explain(q)
		if err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("shard %d (%d rows):", s.id, s.eng.NumRows()))
		for _, l := range lines {
			out = append(out, "  "+l)
		}
	}
	return out, nil
}

// ExplainAnalyze is ExplainAnalyzeContext with a background context.
func (m *Manager) ExplainAnalyze(q engine.Query) ([]string, *engine.Result, error) {
	return m.ExplainAnalyzeContext(context.Background(), q)
}

// ExplainAnalyzeContext executes q through the scatter-gather and
// renders the observed plan; the merged trace's shardprune phase shows
// shard elimination alongside the familiar plan/probe/scan phases.
func (m *Manager) ExplainAnalyzeContext(ctx context.Context, q engine.Query) ([]string, *engine.Result, error) {
	res, err := m.QueryContext(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	return engine.AnalyzeLines(res, true), res, nil
}
