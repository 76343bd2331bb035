package main

import (
	"encoding/json"
	"fmt"
	"time"

	goflay "repro"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dpexec"
	"repro/internal/p4/typecheck"
	"repro/internal/wire"
	"repro/internal/wire/binproto"
)

// Span names the harness records around its calls into each layer, in
// the same trace as the engine's own spans.
const (
	spanWrite     = "bench.write" // one Apply/ApplyBatch call
	spanCompile   = "bench.dpexec.compile"
	spanWithTgt   = "bench.dpexec.with_target"
	auditCapacity = 4096 // flayd's default per-session audit ring
)

// replay is one in-process replay of a run's writes.
type replay struct {
	applyNS   int64 // summed wall time of every Apply call
	pipe      *goflay.Pipeline
	st0, st1  goflay.Stats // around the window's writes
	window    int          // window writes replayed
	compiles  int
	compileNS int64
	patches   int
	patchNS   int64
}

// replayWrites opens the workload's pipeline exactly as flayd does for
// the session (metrics and an audit ring on, executor per workload),
// acks the representative configuration as one batch and replays every
// acknowledged write in send order. With a tracer it also times dpexec image
// builds outside the Apply calls, and checks each stream's steady-state
// invariant on the engine's entry counts.
func (b *bench) replayWrites(tr *goflay.Trace) (*replay, error) {
	opts := []goflay.Option{goflay.WithMetrics(goflay.NewMetrics()), goflay.WithAudit(goflay.NewAuditTrail(auditCapacity))}
	if tr != nil {
		opts = append(opts, goflay.WithTracer(tr))
	}
	if b.wl.exec {
		opts = append(opts, goflay.WithExec())
	}
	pipe, err := goflay.OpenCatalog(b.prog.Name, opts...)
	if err != nil {
		return nil, err
	}
	r := &replay{pipe: pipe}
	for _, d := range pipe.ApplyBatch(b.prog.Representative()) {
		if d.Kind == core.Rejected {
			return nil, fmt.Errorf("replay: representative config rejected: %v", d.Err)
		}
	}
	baseline := pipe.Entries(b.prog.BurstTable)
	// The shadow configuration and image follow the replay so that
	// image builds can be timed outside the engine.
	shadow := controlplane.NewConfig(b.an)
	for _, u := range b.prog.Representative() {
		if err := shadow.Apply(u); err != nil {
			return nil, err
		}
	}
	var img *dpexec.Image
	live := make([]int, len(b.gens))
	inWindow := false
	for i, a := range b.sent {
		if !a.ok {
			continue
		}
		if a.inWindow && !inWindow {
			r.st0 = pipe.Statistics()
		}
		if !a.inWindow && inWindow {
			r.st1 = pipe.Statistics()
		}
		inWindow = a.inWindow
		sp := tr.Start(spanWrite, 0)
		t0 := time.Now()
		var ds []*goflay.Decision
		if a.batch {
			ds = pipe.ApplyBatch(a.updates)
		} else {
			ds = pipe.ApplyAll(a.updates)
		}
		r.applyNS += time.Since(t0).Nanoseconds()
		tr.End(sp)
		if a.inWindow {
			r.window++
			tr.Attr(sp, "window", 1)
		}
		recompiled := a.batch
		for j, d := range ds {
			if d.Kind == core.Rejected {
				return nil, fmt.Errorf("replay: write %d update %d rejected: %v", i, j, d.Err)
			}
			recompiled = recompiled || d.Kind == core.Recompile
		}
		live[a.writer] += a.net
		if a.end != nil && tr != nil {
			b.attempt()
			gained := pipe.Entries(b.prog.BurstTable) - baseline
			others := 0
			for w, n := range live {
				if w != a.writer {
					others += n
				}
			}
			if err := a.end.CheckInvariant(gained - others); err != nil {
				b.fail("replay, writer %d: %v", a.writer, err)
			}
		}
		if tr == nil || !b.wl.exec {
			continue
		}
		for _, u := range a.updates {
			if err := shadow.Apply(u); err != nil {
				return nil, err
			}
		}
		if recompiled || img == nil {
			spec := pipe.SpecializedProgram()
			sp := tr.Start(spanCompile, 0)
			t0 := time.Now()
			info, err := typecheck.Check(spec)
			if err == nil {
				img, err = dpexec.Compile(spec, info, shadow)
			}
			el := time.Since(t0).Nanoseconds()
			tr.End(sp)
			if err != nil {
				return nil, fmt.Errorf("replay: compiling the image: %w", err)
			}
			if a.inWindow {
				r.compiles++
				r.compileNS += el
			}
			continue
		}
		for _, u := range a.updates {
			sp := tr.Start(spanWithTgt, 0)
			t0 := time.Now()
			ni, err := img.WithTarget(shadow, u.Target())
			el := time.Since(t0).Nanoseconds()
			tr.End(sp)
			if err != nil {
				return nil, fmt.Errorf("replay: patching the image: %w", err)
			}
			img = ni
			if a.inWindow {
				r.patches++
				r.patchNS += el
			}
		}
	}
	if inWindow {
		r.st1 = pipe.Statistics()
	}
	return r, nil
}

// ledger is the traced run's per-layer account: metric values plus the
// per-span self times they were derived from.
type ledger struct {
	Provenance provenance            `json:"provenance"`
	Workload   string                `json:"workload"`
	Metrics    map[string]float64    `json:"metrics"`
	Ratios     map[string][2]float64 `json:"ratios"` // numerator, base
	Spans      layerTime             `json:"spans"`  // self time in window writes, by span name
	Setup      map[string]int64      `json:"setup_spans_ns"`

	trace *goflay.Trace // every span of the traced replay, written beside the ledger
}

// buildLedger runs the in-process replays and the codec timings and
// assembles every per-layer metric. activeSource is the daemon's final
// specialized source; the traced replay must reproduce it.
func (b *bench) buildLedger(activeSource string, execResps []wire.ExecResponse) (*ledger, error) {
	tr := goflay.NewTrace()
	lg := &ledger{Workload: b.wl.name, Metrics: map[string]float64{}, Ratios: map[string][2]float64{},
		Spans: layerTime{}, Setup: map[string]int64{}, trace: tr}
	m := lg.Metrics

	off, err := b.replayWrites(nil)
	if err != nil {
		return nil, err
	}
	off.pipe.Close()
	on, err := b.replayWrites(tr)
	if err != nil {
		return nil, err
	}
	defer on.pipe.Close()
	b.attempt()
	if on.pipe.SpecializedSource() != activeSource {
		b.fail("the in-process replay's specialized source differs from the daemon's")
	}
	m["trace.overhead_frac"] = float64(on.applyNS-off.applyNS) / float64(off.applyNS)

	// Engine layers: self time of every span inside the window's
	// Apply calls, found by containment.
	var applyNS, benchSelf int64
	for _, root := range spanForest(tr.Spans()) {
		switch root.span.Name {
		case spanWrite:
			inWin := false
			for _, at := range root.span.Attrs {
				inWin = inWin || at.Key == "window"
			}
			if inWin {
				applyNS += root.dur()
				benchSelf += root.self
				for _, c := range root.children {
					lg.Spans.addTree(c)
				}
			}
		case "parse", "typecheck", "open":
			if _, seen := lg.Setup[root.span.Name]; !seen {
				lg.Setup[root.span.Name] = root.dur()
				for _, c := range root.children {
					lg.Setup[c.span.Name] = c.dur()
				}
			}
		}
	}
	writes := float64(max(on.window, 1))
	selfMS := func(name string) float64 {
		if t := lg.Spans[name]; t != nil {
			return float64(t.SelfNS) / 1e6
		}
		return 0
	}
	m["core.apply_ms"] = float64(applyNS) / 1e6 / writes
	m["core.query_ms"] = selfMS("query") / writes
	m["core.assign_compile_ms"] = selfMS("assign-compile") / writes
	m["core.pass_ms"] = selfMS("pass") / writes
	lg.Ratios["core.query_frac"] = [2]float64{selfMS("query"), float64(applyNS) / 1e6}
	lg.Ratios["core.unattributed_frac"] = [2]float64{float64(benchSelf) / 1e6, float64(applyNS) / 1e6}
	for _, n := range []string{"parse", "typecheck", "dataflow", "taint", "preprocess"} {
		m["setup."+n+"_ms"] = float64(lg.Setup[n]) / 1e6
	}

	s0, s1 := on.st0, on.st1
	m["core.updates"] = float64(s1.Updates - s0.Updates)
	m["core.forwarded"] = float64(s1.Forwarded - s0.Forwarded)
	m["core.recompiled"] = float64(s1.Recompilations - s0.Recompilations)
	m["core.coalesced"] = float64(s1.Coalesced - s0.Coalesced)
	hits, misses := s1.CacheHits-s0.CacheHits, s1.CacheMisses-s0.CacheMisses
	lg.Ratios["core.cache_hit_ratio"] = [2]float64{float64(hits), float64(hits + misses)}
	ddq, ddf := s1.DDQueries-s0.DDQueries, s1.DDFallbacks-s0.DDFallbacks
	lg.Ratios["core.dd_answer_ratio"] = [2]float64{float64(ddq), float64(ddq + ddf)}
	m["core.solver_fallbacks"] = float64(ddf)
	m["core.dd_compiles"] = float64(s1.DDCompiles - s0.DDCompiles)
	m["core.dd_nodes"] = float64(s1.DDNodes)
	m["core.arena_sweeps"] = float64(s1.ArenaSweeps - s0.ArenaSweeps)
	m["core.arena_nodes"] = float64(s1.ArenaNodes)

	m["dpexec.compile_ms"] = meanMS(on.compileNS, on.compiles)
	m["dpexec.with_target_us"] = meanMS(on.patchNS, on.patches) * 1e3
	runNS, instrs, err := b.execRunCost(on.pipe)
	if err != nil {
		return nil, err
	}
	m["dpexec.run_ns_per_pkt"] = runNS
	m["dpexec.instrs"] = instrs

	b.codecLedger(m, execResps)
	b.serverLedger(m)
	for name, r := range lg.Ratios {
		m[name] = r[0] / max(r[1], 1e-12)
	}
	return lg, nil
}

func meanMS(ns int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(n)
}

// execRunCost times PinExec().Run over the packet mix on the replayed
// engine, or on an exec-enabled twin at the representative
// configuration when the workload's session runs without the executor
// (the twin is what served its /exec probe).
func (b *bench) execRunCost(pipe *goflay.Pipeline) (nsPerPkt, instrs float64, err error) {
	cfg, err := b.finalConfig(b.execSession())
	if err != nil {
		return 0, 0, err
	}
	if !b.wl.exec {
		if pipe, err = goflay.OpenCatalog(b.prog.Name, goflay.WithExec()); err != nil {
			return 0, 0, err
		}
		defer pipe.Close()
		pipe.ApplyBatch(b.prog.Representative())
	}
	spec := pipe.SpecializedProgram()
	info, err := typecheck.Check(spec)
	if err != nil {
		return 0, 0, err
	}
	img, err := dpexec.Compile(spec, info, cfg)
	if err != nil {
		return 0, 0, err
	}
	pin, err := pipe.PinExec()
	if err != nil {
		return 0, 0, err
	}
	defer pin.Close()
	const reps = 200
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for i, f := range b.mix.frames {
			if _, err := pin.Run(f, b.mix.ports[i]); err != nil {
				return 0, 0, fmt.Errorf("running frame %d: %w", i, err)
			}
		}
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(reps*len(b.mix.frames))
	return ns, float64(img.NumInstrs()), nil
}

// codecLedger times the codecs on the run's own traffic: the replica
// round body (FromUpdates, JSON, DecodeBytes, ToUpdate) and the binary
// write and write-ok frames for every window write, and both legs of
// the /exec JSON for the packet mix.
func (b *bench) codecLedger(m map[string]float64, execResps []wire.ExecResponse) {
	var replicaNS, binNS int64
	writes := 0
	var buf []byte
	for i, a := range b.sent {
		if !a.inWindow || !a.ok {
			continue
		}
		writes++
		t0 := time.Now()
		body, err := json.Marshal(&wire.ReplicaRound{Version: wire.Version, Seq: uint64(i + 1), Batch: a.batch,
			Segs: []wire.ReplicaSeg{{N: len(a.updates)}}, Updates: wire.FromUpdates(a.updates)})
		if err == nil {
			var back wire.ReplicaRound
			err = wire.DecodeBytes(body, &back)
			for j := 0; err == nil && j < len(back.Updates); j++ {
				_, err = wire.ToUpdate(&back.Updates[j])
			}
		}
		replicaNS += time.Since(t0).Nanoseconds()
		t1 := time.Now()
		if err == nil {
			buf = binproto.AppendWrite(buf[:0], &binproto.Write{Batch: a.batch, Updates: a.updates})
			_, err = binproto.DecodeWrite(buf)
		}
		if err == nil {
			buf = binproto.AppendWriteOK(buf[:0], &binproto.WriteOK{Decisions: a.decisions})
			_, err = binproto.DecodeWriteOK(buf)
		}
		binNS += time.Since(t1).Nanoseconds()
		if err != nil {
			b.fail("codec round trip of write %d: %v", i, err)
			return
		}
	}
	rounds := b.srv.apply.Count
	m["wire.replica_codec_us_per_round"] = float64(replicaNS) / 1e3 / float64(max(rounds, 1))
	m["binproto.codec_us_per_write"] = float64(binNS) / 1e3 / float64(max(writes, 1))

	// /exec: client encode, server decode, server encode, client decode.
	const reps = 20
	var execNS int64
	pkts := 0
	for r := 0; r < reps; r++ {
		for i, resp := range execResps {
			frames, ports := b.mix.request(i)
			t0 := time.Now()
			req := wire.ExecRequest{Packets: make([]wire.Packet, len(frames))}
			for j, f := range frames {
				req.Packets[j] = wire.FromPacket(f, ports[j])
			}
			body, err := json.Marshal(&req)
			var in wire.ExecRequest
			if err == nil {
				err = wire.DecodeBytes(body, &in)
			}
			if err == nil {
				_, _, err = in.ToPackets()
			}
			if err == nil {
				body, err = json.Marshal(&resp)
			}
			var back wire.ExecResponse
			if err == nil {
				err = wire.DecodeBytes(body, &back)
			}
			execNS += time.Since(t0).Nanoseconds()
			if err != nil {
				b.fail("exec codec round trip: %v", err)
				return
			}
			pkts += len(frames)
		}
	}
	m["wire.exec_codec_us_per_pkt"] = float64(execNS) / 1e3 / float64(max(pkts, 1))
}

// serverLedger derives the daemon-side layers from the metrics flayd
// already exports, scraped around the window.
func (b *bench) serverLedger(m map[string]float64) {
	s := b.srv
	writeMS := histMeanMS(s.write.Sum, s.write.Count)
	applyMS := histMeanMS(s.apply.Sum, s.apply.Count)
	shipMS := histMeanMS(s.ship.Sum, s.ship.Count)
	m["server.queue_wait_ms"] = writeMS - applyMS - shipMS
	m["server.apply_p50_ms"] = s.applyP50
	m["server.apply_p99_ms"] = s.applyP99
	m["server.ship_p50_ms"] = s.shipP50
	m["server.ship_p99_ms"] = s.shipP99
	m["server.rounds_per_write"] = float64(s.apply.Count) / float64(max(s.write.Count, 1))
	standbyMS := histMeanMS(s.standbyApplyNS, s.standbyRounds)
	m["replica.standby_apply_ms"] = standbyMS
	m["replica.transport_ms"] = shipMS - standbyMS
	clientMS := float64(b.win.writeSum.Nanoseconds()) / 1e6 / float64(max(b.win.writes, 1))
	m["client.transport_ms"] = clientMS - writeMS
	m["server.heap_alloc_mb"] = float64(s.heapAllocBytes) / (1 << 20)
	m["server.maxrss_mb"] = b.rss
	m["server.ship_errors"] = float64(s.shipErrors)
	m["server.queue_full"] = float64(s.queueFull)
	m["server.http_errors"] = float64(s.httpErrors)
	m["gen.writer_lag_p99_ms"] = b.win.lag.summarize().Tail
	m["gen.cpu_ms"] = float64(b.win.genCPU.Nanoseconds()) / 1e6
	m["host.steal_frac"] = spanSteal(b.winSamples)
	m["gen.writes"] = float64(b.win.writes)
	m["gen.warmup_write_ms"] = b.win.warmup.summarize().Mean
	st := b.setups
	m["setup.spawn_ms"] = medianMS(st, func(t setupTiming) time.Duration { return t.spawn })
	m["setup.create_ms"] = medianMS(st, func(t setupTiming) time.Duration { return t.create })
	m["setup.representative_ms"] = medianMS(st, func(t setupTiming) time.Duration { return t.representative })
}

func histMeanMS(sumNS, count int64) float64 {
	if count == 0 {
		return 0
	}
	return float64(sumNS) / 1e6 / float64(count)
}

func medianMS(st []setupTiming, f func(setupTiming) time.Duration) float64 {
	xs := make([]float64, len(st))
	for i, t := range st {
		xs[i] = float64(f(t).Nanoseconds()) / 1e6
	}
	return median(xs)
}
