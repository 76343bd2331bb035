// Snapshot round-trip suite: Snapshot followed by Restore must yield an
// engine indistinguishable from the one that was saved — same installed
// configuration, same per-point verdicts, same specialized source, same
// outcome counters — on every catalog program, and the pair must then
// process further updates identically. FuzzSnapshot feeds the loader
// corrupted, truncated and mutated bytes: Restore must reject them with
// an error, never panic, because snapshots cross process and machine
// boundaries.
//
// The suite also proves warm-start snapshots: an engine resumed from a
// mid-stream snapshot must finish the stream exactly like the engine
// that never stopped, audit tail and sequence numbers included, even
// when the snapshot is taken under a concurrent batch writer.
package core_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/flayerr"
	"repro/internal/obs"
	"repro/internal/p4/ast"
	"repro/internal/progs"
)

// resumeSeeds is the number of fuzzer streams the resume test replays
// per program.
const resumeSeeds = 2

// loadDiff opens p with an audit trail attached.
func loadDiff(t *testing.T, p *progs.Program, workers int) (*core.Specializer, *obs.Trail) {
	t.Helper()
	trail := obs.NewTrail(0)
	s, err := p.LoadWith(core.Options{Workers: workers, Audit: trail})
	if err != nil {
		t.Fatalf("%s: load: %v", p.Name, err)
	}
	return s, trail
}

// normalize strips the audit fields that legitimately differ between
// engines answering the same stream: wall-clock time, the configured
// pool size, and which worker happened to re-prove a point. Everything
// else — sequence, target, decision, affected counts, per-point verdict
// flips, component lists, implementation changes — must match exactly.
func normalize(recs []obs.AuditRecord) []obs.AuditRecord {
	out := make([]obs.AuditRecord, len(recs))
	for i, r := range recs {
		r.ElapsedNS = 0
		r.Workers = 0
		r.Changes = slices.Clone(r.Changes)
		for j := range r.Changes {
			r.Changes[j].Worker = 0
		}
		out[i] = r
	}
	return out
}

func sameAudit(t *testing.T, label string, a, b []obs.AuditRecord) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d audit records vs %d", label, len(a), len(b))
	}
	na, nb := normalize(a), normalize(b)
	for i := range na {
		if na[i].Seq != nb[i].Seq || na[i].Batch != nb[i].Batch ||
			na[i].Target != nb[i].Target || na[i].Update != nb[i].Update ||
			na[i].Decision != nb[i].Decision || na[i].Affected != nb[i].Affected ||
			!slices.Equal(na[i].Changes, nb[i].Changes) ||
			!slices.Equal(na[i].Components, nb[i].Components) ||
			na[i].ImplChange != nb[i].ImplChange || na[i].Err != nb[i].Err {
			t.Fatalf("%s: audit record %d diverged:\n  %+v\nvs\n  %+v", label, i, na[i], nb[i])
		}
	}
}

func sameStats(t *testing.T, label string, a, b core.Stats) {
	t.Helper()
	if a.Updates != b.Updates || a.Forwarded != b.Forwarded ||
		a.Recompilations != b.Recompilations || a.Rejected != b.Rejected {
		t.Fatalf("%s: outcome counters diverged: %+v vs %+v", label, a, b)
	}
}

// TestSnapshotRoundTrip saves each catalog engine mid-stream and
// verifies the restored engine equals the original field for field,
// then replays the rest of the stream through both.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			s, err := p.LoadWith(core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			stream := makeStream(t, s, 11)
			half := len(stream) / 2
			for _, u := range stream[:half] {
				s.Apply(u)
			}

			snap, err := s.Snapshot()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			r, err := core.Restore(snap, core.Options{})
			if err != nil {
				t.Fatalf("restore: %v", err)
			}

			// State equality at the restore point.
			sameEndState(t, s, r)
			if !reflect.DeepEqual(s.Cfg.State(), r.Cfg.State()) {
				t.Fatal("installed configuration diverged across the round trip")
			}
			ss, rs := s.Statistics(), r.Statistics()
			if ss.Updates != rs.Updates || ss.Forwarded != rs.Forwarded ||
				ss.Recompilations != rs.Recompilations || ss.Rejected != rs.Rejected {
				t.Fatalf("outcome counters diverged: %+v vs %+v", ss, rs)
			}
			if ss.Points != rs.Points || ss.Tables != rs.Tables {
				t.Fatalf("analysis shape diverged: %+v vs %+v", ss, rs)
			}

			// A second snapshot of the restored engine must describe the
			// same engine state (timings and cache warmth may differ, so
			// compare via a second restore, not byte equality).
			snap2, err := r.Snapshot()
			if err != nil {
				t.Fatalf("re-snapshot: %v", err)
			}
			r2, err := core.Restore(snap2, core.Options{})
			if err != nil {
				t.Fatalf("re-restore: %v", err)
			}
			sameEndState(t, r, r2)

			// Replaying the remainder must keep the pair in lockstep.
			for i, u := range stream[half:] {
				sameDecision(t, half+i, s.Apply(u), r.Apply(u))
			}
			sameEndState(t, s, r)
		})
	}
}

// TestSnapshotRejectsTampering pins the integrity check: flipping any
// single byte of a valid snapshot must fail restore (the payload is
// checksummed), as must truncation at every section boundary class.
func TestSnapshotRejectsTampering(t *testing.T) {
	snap := fig3Snapshot(t)
	if _, err := core.Restore(nil, core.Options{}); err == nil {
		t.Fatal("restore of nil input succeeded")
	}
	for _, n := range []int{0, 1, 4, 11, 12, len(snap) / 2, len(snap) - 9, len(snap) - 1} {
		if n >= len(snap) {
			continue
		}
		if _, err := core.Restore(snap[:n], core.Options{}); err == nil {
			t.Fatalf("restore of %d-byte truncation succeeded", n)
		}
	}
	// Flip one byte in each region: magic, early payload, late payload,
	// checksum.
	for _, off := range []int{0, 13, len(snap) / 2, len(snap) - 4} {
		mut := bytes.Clone(snap)
		mut[off] ^= 0x40
		if _, err := core.Restore(mut, core.Options{}); err == nil {
			t.Fatalf("restore of snapshot with byte %d flipped succeeded", off)
		}
	}
}

// TestSnapshotRefusesOlderVersions: the format version is the magic's
// last byte, and a snapshot of any earlier version — v3 still carried
// a query-cache section this loader no longer reads — is refused as
// corrupt rather than misparsed.
func TestSnapshotRefusesOlderVersions(t *testing.T) {
	snap := fig3Snapshot(t)
	magic := []byte("goflay-snap\x04")
	if !bytes.HasPrefix(snap, magic) {
		t.Fatalf("snapshot does not start with the v4 magic: %q", snap[:len(magic)])
	}
	for v := byte(1); v < 4; v++ {
		old := bytes.Clone(snap)
		old[len(magic)-1] = v
		_, err := core.Restore(old, core.Options{})
		if !errors.Is(err, flayerr.ErrSnapshotCorrupt) {
			t.Fatalf("v%d snapshot: restore error %v, want ErrSnapshotCorrupt", v, err)
		}
	}
}

func fig3Snapshot(t *testing.T) []byte {
	t.Helper()
	p := progs.Fig3()
	s, err := p.LoadWith(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range progs.Fig3Updates() {
		s.Apply(u)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// FuzzSnapshot throws arbitrary bytes at the loader. The contract under
// test: Restore returns an error for anything that is not a valid
// snapshot and never panics; when a mutation happens to survive the
// checksum (the fuzzer can recompute it), the restored engine must
// still be fully usable.
func FuzzSnapshot(f *testing.F) {
	p := progs.Fig3()
	s, err := p.LoadWith(core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, u := range progs.Fig3Updates() {
		s.Apply(u)
	}
	valid, err := s.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("goflay-snap\x01"))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-8])
	mut := bytes.Clone(valid)
	mut[len(mut)/2] ^= 0xFF
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := core.Restore(data, core.Options{})
		if err != nil {
			return // rejected, as it should be for junk
		}
		// The loader accepted it: the engine must be coherent enough to
		// answer every read-only query and keep processing updates.
		st := r.Statistics()
		if st.Points <= 0 {
			t.Fatalf("restored engine reports %d points", st.Points)
		}
		_ = ast.Print(r.SpecializedProgram())
		for _, u := range progs.Fig3Updates() {
			r.Apply(u)
		}
	})
}

// TestSnapshotResumeMatchesUninterrupted proves warm restarts: run half
// a stream, snapshot, restore into a fresh engine, finish the stream —
// and compare against an engine that ran the whole stream without
// stopping. Decisions, end state, outcome counters and the audit tail
// (with continuous sequence numbers) must all match.
func TestSnapshotResumeMatchesUninterrupted(t *testing.T) {
	for _, p := range progs.Catalog() {
		t.Run(p.Name, func(t *testing.T) {
			for seed := uint64(1); seed <= resumeSeeds; seed++ {
				base, baseTrail := loadDiff(t, p, 1)
				stream := makeStream(t, base, seed)
				half := len(stream) / 2

				first, _ := loadDiff(t, p, 1)
				for i, u := range stream {
					d := base.Apply(u)
					if i < half {
						sameDecision(t, i, d, first.Apply(u))
					}
				}
				snap, err := first.Snapshot()
				if err != nil {
					t.Fatalf("snapshot: %v", err)
				}

				resumedTrail := obs.NewTrail(0)
				resumed, err := core.Restore(snap, core.Options{Workers: 1, Audit: resumedTrail})
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				baseRecs := baseTrail.Records()
				for i, u := range stream[half:] {
					d := resumed.Apply(u)
					// Replay the base engine's decision for the same
					// update out of its audit record to confirm the kind.
					if want := baseRecs[half+i].Decision; d.Kind.String() != want {
						t.Fatalf("resumed update %d: decision %s, uninterrupted engine decided %s",
							half+i, d.Kind, want)
					}
				}
				sameEndState(t, base, resumed)
				sameStats(t, p.Name, base.Statistics(), resumed.Statistics())
				sameAudit(t, p.Name, baseRecs[half:], resumedTrail.Records())
				for i, r := range resumedTrail.Records() {
					if r.Seq != half+i+1 {
						t.Fatalf("resumed audit record %d has seq %d, want %d (continuity across restore)",
							i, r.Seq, half+i+1)
					}
				}
			}
		})
	}
}

// TestSnapshotUnderConcurrentBatches proves snapshot prefix
// consistency against a live writer: snapshots are taken from a
// separate goroutine while ApplyBatch churns the engine, and every
// captured snapshot must (a) land exactly on a batch boundary — the
// update count of the restored engine equals the cumulative length of
// some schedule prefix, never a torn mid-batch state — and (b) restore
// into an engine that, after replaying the remaining schedule suffix,
// is observationally identical to the uninterrupted engine, with the
// resumed audit trail continuing the sequence without a gap.
func TestSnapshotUnderConcurrentBatches(t *testing.T) {
	p, err := progs.ByName("nat44")
	if err != nil {
		t.Fatal(err)
	}
	scratch := loadEngine(t, p, 1)
	schedule := tortureSchedule(t, p, scratch, 1, 128)
	scratch.Close()

	// boundaries[k] is the schedule index whose prefix holds k updates.
	boundaries := make(map[int]int, len(schedule)+1)
	boundaries[0] = 0
	total := 0
	for i, b := range schedule {
		total += len(b)
		boundaries[total] = i + 1
	}

	live, liveTrail := loadDiff(t, p, 4)
	done := make(chan struct{})
	var snaps [][]byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			data, err := live.Snapshot()
			if err != nil {
				t.Errorf("snapshot mid-churn: %v", err)
				return
			}
			snaps = append(snaps, data)
			runtime.Gosched()
		}
	}()
	for _, batch := range schedule {
		for i, d := range live.ApplyBatch(batch) {
			if d.Kind == core.Rejected {
				t.Fatalf("update %s (%d) rejected: %v", batch[i], i, d.Err)
			}
		}
	}
	close(done)
	wg.Wait()
	if len(snaps) == 0 {
		t.Fatal("snapshotter captured nothing")
	}

	// Replay each distinct capture point (bounded: replays are the
	// expensive part, the boundary check is free and runs on all).
	liveRecs := liveTrail.Records()
	replayed := make(map[int]bool)
	for _, data := range snaps {
		resumedTrail := obs.NewTrail(0)
		resumed, err := core.Restore(data, core.Options{Workers: 4, Audit: resumedTrail})
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		k := resumed.Statistics().Updates
		idx, ok := boundaries[k]
		if !ok {
			t.Fatalf("snapshot captured %d updates: not a batch boundary (torn mid-batch state)", k)
		}
		if replayed[k] || len(replayed) >= 4 {
			resumed.Close()
			continue
		}
		replayed[k] = true
		for _, batch := range schedule[idx:] {
			resumed.ApplyBatch(batch)
		}
		sameEndState(t, live, resumed)
		sameStats(t, p.Name, live.Statistics(), resumed.Statistics())
		sameAudit(t, p.Name, liveRecs[k:], resumedTrail.Records())
		for i, r := range resumedTrail.Records() {
			if r.Seq != k+i+1 {
				t.Fatalf("resumed audit record %d has seq %d, want %d (continuity across restore)",
					i, r.Seq, k+i+1)
			}
		}
		resumed.Close()
	}
	t.Logf("checked %d snapshots (%d boundary points replayed)", len(snaps), len(replayed))
}
