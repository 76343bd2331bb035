// Differential proof of the unchanged-assignment skip: when an update
// leaves its target's compiled assignment pointer-identical, the engine
// re-evaluates none of the target's points and keeps their verdicts.
// The skip (and the pointer-equal residue memo beneath it) must never
// leave a stale verdict behind, so after every batch of a churn stream
// a from-scratch re-evaluation of every point — ReevaluateAll, which
// bypasses the taint map, the skip and the per-point memos — must
// change nothing. The matrix covers every catalog program × churn
// pattern × pool size, under sequential Apply and under ApplyBatch.
package core_test

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/progs"
	"repro/internal/sym"
)

// skipChurnLen is the per-pattern stream length of the skip
// differential; every batch boundary costs a full re-evaluation.
const skipChurnLen = 16

// skipWorkers is the pool grid: serial, a four-way pool, and whatever
// GOMAXPROCS says.
func skipWorkers() []int {
	grid := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); !slices.Contains(grid, n) {
		grid = append(grid, n)
	}
	return grid
}

// skipDiff replays every churn pattern against p (on top of its
// representative configuration, so tables sit past the
// overapproximation threshold where the skip fires) at every pool size,
// one declared batch at a time through apply, and fails as soon as a
// full re-evaluation disagrees with an installed verdict. It returns
// how many tainted points the skip answered without re-evaluating.
// Each cell starts from a restore of one representative snapshot,
// which is far cheaper than replaying the representative configuration
// per cell.
func skipDiff(t *testing.T, p *progs.Program, apply func(*core.Specializer, []*controlplane.Update) []*core.Decision) int64 {
	t.Helper()
	base, err := p.LoadWith(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ApplyRepresentative(base); err != nil {
		t.Fatal(err)
	}
	snap, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	base.Close()
	var skipped int64
	for _, workers := range skipWorkers() {
		for _, kind := range fuzz.PatternKinds() {
			reg := obs.NewRegistry()
			s, err := core.Restore(snap, core.Options{Workers: workers, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
				Kind: kind, Table: p.BurstTable, Updates: skipChurnLen, Seed: uint64(kind)*17 + 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			for bi, batch := range cs.Batches() {
				for i, d := range apply(s, batch) {
					if d.Kind == core.Rejected {
						t.Fatalf("%s/%d workers: batch %d update %d (%s) rejected: %v",
							kind, workers, bi, i, batch[i], d.Err)
					}
				}
				if n := s.ReevaluateAll(); n != 0 {
					t.Fatalf("%s/%d workers: after batch %d a full re-evaluation changed %d verdicts",
						kind, workers, bi, n)
				}
			}
			// Every re-evaluated point is either a query (miss) or a
			// pointer-equal residue (hit); the remaining hits are points
			// the skip never re-evaluated.
			st := s.Statistics()
			evaluated := reg.Counter("core.points_evaluated").Value()
			skipped += st.CacheHits - (evaluated - st.CacheMisses)
			s.Close()
		}
	}
	return skipped
}

// TestCacheMatchesUncached: the sequential Apply path keeps every
// skipped verdict equal to an uncached full re-evaluation.
func TestCacheMatchesUncached(t *testing.T) {
	var skipped int64
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			skipped += skipDiff(t, p, func(s *core.Specializer, batch []*controlplane.Update) []*core.Decision {
				ds := make([]*core.Decision, len(batch))
				for i, u := range batch {
					ds[i] = s.Apply(u)
				}
				return ds
			})
		})
	}
	if skipped == 0 && !t.Failed() {
		t.Fatal("no update of the matrix left its assignment unchanged: the skip was never exercised")
	}
}

// TestCacheMatchesUncachedBatched: the same matrix through the
// coalescing batch path, whose phase 3 skips the points of every
// target whose assignment the batch left unchanged.
func TestCacheMatchesUncachedBatched(t *testing.T) {
	var skipped int64
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			skipped += skipDiff(t, p, (*core.Specializer).ApplyBatch)
		})
	}
	if skipped == 0 && !t.Failed() {
		t.Fatal("no batch of the matrix left an assignment unchanged: the skip was never exercised")
	}
}

// TestUnchangedAssignmentSkipsQueries pins the mechanism: past the
// overapproximation threshold a table compiles to the same "*any*"
// assignment whatever its entries, so an insert still routes to every
// tainted point but re-evaluates none of them and runs no query — each
// point counts as a hit. A precise insert changes the assignment and
// does re-query.
func TestUnchangedAssignmentSkipsQueries(t *testing.T) {
	p := progs.Fig3()
	entry := func(i int) *controlplane.Update {
		return &controlplane.Update{Kind: controlplane.InsertEntry, Table: "Ingress.eth_table",
			Entry: &controlplane.TableEntry{
				Priority: i,
				Matches: []controlplane.FieldMatch{{
					Kind:  controlplane.MatchTernary,
					Value: sym.NewBV(48, uint64(0x1000+i)),
					Mask:  sym.AllOnes(48),
				}},
				Action: "set", Params: []sym.BV{sym.NewBV(16, uint64(i))},
			}}
	}
	apply := func(s *core.Specializer, u *controlplane.Update) (*core.Decision, core.Stats, core.Stats) {
		t.Helper()
		before := s.Statistics()
		d := s.Apply(u)
		if d.Kind == core.Rejected {
			t.Fatalf("insert rejected: %v", d.Err)
		}
		return d, before, s.Statistics()
	}

	t.Run("overapproximated", func(t *testing.T) {
		reg := obs.NewRegistry()
		evaluated := reg.Counter("core.points_evaluated")
		s, err := p.LoadWith(core.Options{OverapproxThreshold: 2, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // the third insert crosses the threshold
			apply(s, entry(i))
		}
		for i := 3; i < 8; i++ {
			ev := evaluated.Value()
			d, before, after := apply(s, entry(i))
			if d.AffectedPoints == 0 {
				t.Fatal("insert routed to no points")
			}
			if got := evaluated.Value() - ev; got != 0 {
				t.Fatalf("insert %d re-evaluated %d points on an unchanged assignment", i, got)
			}
			if after.CacheMisses != before.CacheMisses {
				t.Fatalf("insert %d ran %d queries on an unchanged assignment",
					i, after.CacheMisses-before.CacheMisses)
			}
			if got := after.CacheHits - before.CacheHits; got != int64(d.AffectedPoints) {
				t.Fatalf("insert %d: %d hits, want one per tainted point (%d)", i, got, d.AffectedPoints)
			}
			if d.Kind != core.Forward {
				t.Fatalf("insert %d: decision %s on an unchanged assignment, want forward", i, d.Kind)
			}
		}
	})

	t.Run("precise", func(t *testing.T) {
		s, err := p.LoadWith(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, before, after := apply(s, entry(i)); after.CacheMisses == before.CacheMisses {
				t.Fatalf("precise insert %d ran no query", i)
			}
		}
	})
}
