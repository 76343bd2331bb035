package core

import (
	"context"
	"time"

	"repro/internal/controlplane"
	"repro/internal/obs"
)

// ApplyBatch processes a slice of control-plane updates as one atomic
// configuration transition, the batched-Write shape of a P4Runtime
// controller. It is the coalescing counterpart of Apply: updates are
// applied to the configuration in arrival order (rejecting exactly the
// updates sequential Apply would reject), then grouped by target so
// each touched object's assignment is recompiled once, and the
// deduplicated union of tainted program points is re-evaluated in a
// single (parallel) pass instead of once per update.
//
// The end state — configuration, environment, verdicts, installed
// implementations, specialized program — is identical to applying the
// same updates one at a time with Apply. Decisions are attributed at
// batch granularity: updates sharing a target share one verdict-change
// set, so if anything the group touched changed behaviour, every
// accepted update of the group reports Recompile; if nothing changed,
// every one reports Forward. Relative to sequential decisions this
// preserves (a) all-Forward batches exactly, (b) "some update required
// recompilation" per group, and (c) single-update batches exactly;
// intermediate verdict flips that cancel within one batch are
// deliberately not observable (that is the point of coalescing).
//
// A nil or empty slice is a no-op that still counts one batch.
func (s *Specializer) ApplyBatch(updates []*controlplane.Update) []*Decision {
	return s.ApplyBatchCtx(context.Background(), updates)
}

// ApplyBatchCtx is ApplyBatch with a latency budget: when ctx carries a
// deadline, the adaptive precision controller (deadline.go) projects
// the precise analysis cost of every target the batch touches and
// degrades the most expensive degradable ones until the projected total
// fits the remaining budget. A context already done on entry rejects
// every update without touching any state.
func (s *Specializer) ApplyBatchCtx(ctx context.Context, updates []*controlplane.Update) []*Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.lastApply.Store(time.Now().UnixNano())
	defer s.publish() // one epoch per batch, after the sweep trigger
	defer s.maybeSweepArena()
	s.stats.Batches++
	s.met.batches.Inc()
	if len(updates) == 0 {
		return nil
	}
	batchNo := s.stats.Batches
	t0 := time.Now()
	if err := s.admit(ctx); err != nil {
		// Admission failed: every update is rejected before any
		// configuration state is touched.
		decisions := make([]*Decision, len(updates))
		s.stats.BatchedUpdates += len(updates)
		s.met.batchedUpdates.Add(int64(len(updates)))
		for i, u := range updates {
			s.stats.Updates = s.co.nextSeq()
			s.met.updates.Inc()
			s.stats.Rejected++
			d := &Decision{Update: u, Kind: Rejected, Err: err, Elapsed: time.Since(t0)}
			decisions[i] = d
			s.met.decisionCounter(Rejected).Inc()
			s.met.updateNS.ObserveDuration(d.Elapsed)
			if s.audit != nil {
				s.audit.Append(auditRecord(d, s.stats.Updates, batchNo, 0, nil))
			}
		}
		return decisions
	}
	s.stats.BatchedUpdates += len(updates)
	s.met.batchedUpdates.Add(int64(len(updates)))
	decisions := make([]*Decision, len(updates))
	seqs := make([]int, len(updates))
	bsp := s.trace.Start("batch", 0)
	defer s.trace.End(bsp)
	s.trace.Attr(bsp, "updates", int64(len(updates)))

	// Per-decision point changes and the worker count of the one
	// evaluation pass, recorded for the audit trail.
	var changesOf map[*Decision][]obs.PointChange
	if s.audit != nil {
		changesOf = make(map[*Decision][]obs.PointChange)
	}
	workersUsed := 0

	// Phase 1: run every update through configuration validation in
	// arrival order — entry sequence numbers (and with them the entry
	// ordering of the specialized source) depend on it — and group the
	// accepted ones by target.
	type group struct {
		decisions []*Decision
		rejected  bool
	}
	groups := make(map[string]*group)
	var order []string
	accepted := 0
	for i, u := range updates {
		d := &Decision{Update: u}
		decisions[i] = d
		s.stats.Updates = s.co.nextSeq()
		seqs[i] = s.stats.Updates
		s.met.updates.Inc()
		if err := s.Cfg.Apply(u); err != nil {
			s.stats.Rejected++
			d.Kind = Rejected
			d.Err = err
			d.Elapsed = time.Since(t0)
			continue
		}
		accepted++
		target := u.Target()
		g := groups[target]
		if g == nil {
			g = &group{}
			groups[target] = g
			order = append(order, target)
		}
		g.decisions = append(g.decisions, d)
	}
	if accepted > 0 {
		// Sequential Apply would run one evaluation pass per accepted
		// update; the batch runs exactly one.
		s.stats.Coalesced += accepted - 1
		s.met.coalesced.Add(int64(accepted - 1))
		// Batches mutate many targets in one epoch; the published image
		// recompiles from the specialized program rather than chaining
		// per-target patches.
		s.imgMarkFull()
	}

	finish := func() []*Decision {
		elapsed := time.Since(t0)
		for _, d := range decisions {
			if d.Kind != Rejected {
				d.Elapsed = elapsed
			}
		}
		s.stats.UpdateTime += elapsed
		for i, d := range decisions {
			s.met.decisionCounter(d.Kind).Inc()
			s.met.updateNS.ObserveDuration(d.Elapsed)
			if s.audit != nil {
				workers := 0
				if d.Kind != Rejected {
					workers = workersUsed
				}
				s.audit.Append(auditRecord(d, seqs[i], batchNo, workers, changesOf[d]))
			}
		}
		return decisions
	}

	// With specialization disabled no valid update can invalidate the
	// installed (original) program.
	if s.quality == QualityNone {
		for _, d := range decisions {
			if d.Kind != Rejected {
				d.Kind = Forward
				s.stats.Forwarded++
			}
		}
		return finish()
	}

	// Deadline policy (deadline.go): degrade the most expensive
	// degradable targets until the batch's projected precise cost fits
	// the remaining budget, before any assignment is compiled.
	s.shedForBatch(ctx, order)

	// Phase 2: recompile each touched target's assignment once,
	// regardless of how many updates of the batch hit it. live lists
	// every target compiled successfully; stale the subset whose
	// assignment changed.
	tc := time.Now()
	csp := s.trace.Start("assign-compile", bsp)
	live := make([]string, 0, len(order))
	stale := make([]string, 0, len(order))
	for _, target := range order {
		g := groups[target]
		changed, err := s.recompileTarget(target)
		if err != nil {
			// Unreachable for updates the configuration accepted, but
			// mirror Apply's rejection path.
			g.rejected = true
			for _, d := range g.decisions {
				d.Kind = Rejected
				d.Err = err
				s.stats.Rejected++
			}
			continue
		}
		live = append(live, target)
		if changed {
			stale = append(stale, target)
		}
	}
	s.trace.End(csp)

	// Phase 3: one re-evaluation over the deduplicated union of every
	// point a changed assignment taints, grouped by taint-partition
	// shard and fanned out over the worker pool (parallel.go /
	// shard.go). Points tainted only by unchanged assignments keep
	// their verdicts.
	allPts := s.An.PointsOfTargets(stale)
	if len(stale) < len(live) {
		s.skipPoints(len(s.An.PointsOfTargets(live)) - len(allPts))
	}
	workersUsed = s.effectiveWorkers(len(allPts))
	te := time.Now()
	qsp := s.trace.Start("query", bsp)
	changedIDs := s.reevalPoints(allPts)
	s.trace.Attr(qsp, "points", int64(len(allPts)))
	s.trace.Attr(qsp, "changed", int64(len(changedIDs)))
	s.trace.End(qsp)
	evalElapsed := time.Since(te)
	s.stats.EvalTime += evalElapsed
	s.met.evalNS.ObserveDuration(evalElapsed)
	// Feed the cost estimator: the pass's per-point cost stands in for
	// each precisely compiled target (degraded and statically
	// overapproximated targets ran the flat path and are skipped).
	if n := len(allPts); n > 0 {
		per := float64(time.Since(tc).Nanoseconds()) / float64(n)
		for _, target := range stale {
			if !s.Cfg.Overapproximated(target) {
				s.observePerPoint(target, per)
			}
		}
	}
	changedSet := make(map[int]bool, len(changedIDs))
	for _, id := range changedIDs {
		changedSet[id] = true
	}
	// Index the pass's point changes for per-update attribution.
	var chByPoint map[int]obs.PointChange
	if s.audit != nil {
		chByPoint = make(map[int]obs.PointChange, len(s.lastChanges))
		for _, ch := range s.lastChanges {
			chByPoint[ch.Point] = ch
		}
	}

	// Phase 4: attribute the outcome per target group.
	for _, target := range order {
		g := groups[target]
		if g.rejected {
			continue
		}
		if _, deg := s.degraded[target]; deg {
			for _, d := range g.decisions {
				d.Degraded = true
			}
		}
		tpts := s.An.PointsOf(target)
		var gchanged []int
		for _, p := range tpts {
			if changedSet[p.ID] {
				gchanged = append(gchanged, p.ID)
			}
		}
		gd := &Decision{}
		changedImpls := s.changedImpls(target, gd)
		if len(gchanged) == 0 && len(changedImpls) == 0 {
			for _, d := range g.decisions {
				d.Kind = Forward
				d.AffectedPoints = len(tpts)
				s.stats.Forwarded++
			}
			continue
		}
		comps := map[string]bool{}
		for name, impl := range changedImpls {
			comps[name] = true
			s.impls[name] = impl
		}
		for _, id := range gchanged {
			p := s.An.Points[id]
			switch {
			case p.Table != "":
				comps[p.Table] = true
				s.impls[p.Table] = s.idealImpl(p.Table)
			case p.ParserState != "":
				comps[p.Control+".parser"] = true
			default:
				comps[p.Control] = true
			}
		}
		components := make([]string, 0, len(comps))
		for c := range comps {
			components = append(components, c)
		}
		sortStrings(components)
		var gchanges []obs.PointChange
		if s.audit != nil {
			gchanges = make([]obs.PointChange, 0, len(gchanged))
			for _, id := range gchanged {
				gchanges = append(gchanges, chByPoint[id])
			}
		}
		for _, d := range g.decisions {
			d.Kind = Recompile
			d.AffectedPoints = len(tpts)
			d.ChangedPoints = gchanged
			d.Components = components
			d.ImplementationChange = gd.ImplementationChange
			s.stats.Recompilations++
			if s.audit != nil {
				changesOf[d] = gchanges
			}
		}
	}
	return finish()
}
