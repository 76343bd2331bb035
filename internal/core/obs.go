package core

import (
	"fmt"

	"repro/internal/dataplane"
	"repro/internal/obs"
)

// coreMetrics holds the engine's pre-resolved instruments under the
// "core." prefix. The zero value (all nil) is the disabled state: every
// instrument absorbs writes at zero cost when nil, so the hot paths
// carry the accounting unconditionally and branch-free.
type coreMetrics struct {
	updates    *obs.Counter // Apply/ApplyBatch updates processed
	forwarded  *obs.Counter // Forward decisions
	recompiled *obs.Counter // Recompile decisions
	rejected   *obs.Counter // Rejected decisions

	batches        *obs.Counter // ApplyBatch invocations
	batchedUpdates *obs.Counter // updates routed through ApplyBatch
	coalesced      *obs.Counter // evaluation passes the batch engine elided

	pointsEvaluated *obs.Counter // program points re-evaluated
	pointsChanged   *obs.Counter // verdict flips observed

	cacheHits   *obs.Counter // tainted points answered without a query (Stats.CacheHits)
	cacheMisses *obs.Counter // specialization queries run (Stats.CacheMisses)

	updateNS *obs.Histogram // per-update analysis latency, ns
	evalNS   *obs.Histogram // per-pass point re-evaluation latency, ns

	points *obs.Gauge // program points under management
	tables *obs.Gauge // tables under management

	// Adaptive precision controller (deadline.go).
	degradations    *obs.Counter // tables degraded to overapproximation
	promotions      *obs.Counter // tables promoted back to precise
	unsoundDegraded *obs.Counter // unsound degraded verdicts (must stay 0)
	diffChecks      *obs.Counter // differential-check passes completed
	degradedTables  *obs.Gauge   // currently degraded tables

	arenaSweeps *obs.Counter // expression-arena garbage collections
	arenaSwept  *obs.Counter // expression nodes reclaimed by sweeps
	arenaNodes  *obs.Gauge   // interned expression nodes

	// Epoch/shard engine (epoch.go / shard.go).
	epoch      *obs.Gauge     // published epoch sequence number
	shardCount *obs.Gauge     // taint-partition shards in use
	shardEvals []*obs.Counter // points evaluated, per shard (core.shard_evals_<i>)

	// reg is retained so the per-shard counters can be resolved once
	// the shard map is built (after the registry-bound instruments).
	reg *obs.Registry
}

// newCoreMetrics resolves the engine instruments from a registry; a nil
// registry yields the disabled zero value.
func newCoreMetrics(r *obs.Registry) coreMetrics {
	if r == nil {
		return coreMetrics{}
	}
	return coreMetrics{
		updates:         r.Counter("core.updates"),
		forwarded:       r.Counter("core.forwarded"),
		recompiled:      r.Counter("core.recompiled"),
		rejected:        r.Counter("core.rejected"),
		batches:         r.Counter("core.batches"),
		batchedUpdates:  r.Counter("core.batched_updates"),
		coalesced:       r.Counter("core.coalesced"),
		pointsEvaluated: r.Counter("core.points_evaluated"),
		pointsChanged:   r.Counter("core.points_changed"),
		cacheHits:       r.Counter("core.cache_hits"),
		cacheMisses:     r.Counter("core.cache_misses"),
		updateNS:        r.Histogram("core.update_ns"),
		evalNS:          r.Histogram("core.eval_ns"),
		points:          r.Gauge("core.points"),
		tables:          r.Gauge("core.tables"),
		degradations:    r.Counter("core.degradations"),
		promotions:      r.Counter("core.promotions"),
		unsoundDegraded: r.Counter("core.unsound_degraded"),
		diffChecks:      r.Counter("core.diff_checks"),
		degradedTables:  r.Gauge("core.degraded_tables"),
		arenaSweeps:     r.Counter("core.arena_sweeps"),
		arenaSwept:      r.Counter("core.arena_swept"),
		arenaNodes:      r.Gauge("core.arena_nodes"),
		epoch:           r.Gauge("core.epoch"),
		shardCount:      r.Gauge("core.shards"),
		reg:             r,
	}
}

// initShards resolves the per-shard evaluation counters once the
// taint-partition shard map is built. With metrics disabled it leaves
// the slice nil; shardEval then hands out nil (absorbing) counters.
func (m *coreMetrics) initShards(n int) {
	m.shardCount.Set(int64(n))
	if m.reg == nil {
		return
	}
	m.shardEvals = make([]*obs.Counter, n)
	for i := range m.shardEvals {
		m.shardEvals[i] = m.reg.Counter(fmt.Sprintf("core.shard_evals_%d", i))
	}
}

// shardEval picks the evaluation counter of one shard (nil-safe when
// metrics are disabled).
func (m *coreMetrics) shardEval(sh int) *obs.Counter {
	if sh < len(m.shardEvals) {
		return m.shardEvals[sh]
	}
	return nil
}

// queryName names the specialization query a point kind answers, the
// audit trail's "query" column: reachability kinds ask "executable?",
// value kinds ask "constant?" (paper §4.1).
func queryName(k dataplane.PointKind) string {
	switch k {
	case dataplane.PointAssignValue, dataplane.PointTableAction:
		return "constant"
	default:
		return "executable"
	}
}

// decisionCounter picks the outcome counter for a decision kind.
func (m *coreMetrics) decisionCounter(k DecisionKind) *obs.Counter {
	switch k {
	case Forward:
		return m.forwarded
	case Recompile:
		return m.recompiled
	default:
		return m.rejected
	}
}

// auditRecord builds the trail entry for one decided update. The changes
// slice is copied: the engine reuses its scratch buffer across updates.
func auditRecord(d *Decision, seq, batch, workers int, changes []obs.PointChange) obs.AuditRecord {
	rec := obs.AuditRecord{
		Seq:        seq,
		Batch:      batch,
		Target:     d.Update.Target(),
		Update:     d.Update.String(),
		Decision:   d.Kind.String(),
		Affected:   d.AffectedPoints,
		Components: d.Components,
		ImplChange: d.ImplementationChange,
		ElapsedNS:  d.Elapsed.Nanoseconds(),
		Workers:    workers,
	}
	if d.Degraded {
		rec.Precision = "degraded"
	}
	if d.Err != nil {
		rec.Err = d.Err.Error()
	}
	if len(changes) > 0 {
		rec.Changes = append([]obs.PointChange(nil), changes...)
	}
	return rec
}
