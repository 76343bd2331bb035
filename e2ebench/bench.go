package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/obs"
	"repro/internal/p4/ast"
	"repro/internal/p4/parser"
	"repro/internal/p4/typecheck"
	"repro/internal/progs"
	"repro/internal/wire"
)

const (
	// setupRounds is how many times a run boots the daemon pair and
	// loads the session; setup_s is their median, and the last pair
	// serves the timed window.
	setupRounds = 5
	// warmupStreams is how many churn streams each writer sends before
	// the window opens. The engine's first few hundred updates after
	// set-up run several times slower than later ones (the decision
	// diagram's per-point budgets and the query cache adapt), and a
	// window that mixes the two regimes reports whichever it happened
	// to cover. The warm-up is reported as gen.warmup_write_ms.
	warmupStreams = 8
	// execWarmup /exec requests run untimed before any timed /exec phase.
	execWarmup = 100
	// probeRequests is the size of the post-window /exec probe on the
	// workloads without /exec load in their window. Fewer requests let
	// whether a daemon GC cycle lands in the probe swing its tail.
	probeRequests = 6000
	sessionName   = "bench"
)

// bench is one run of one workload.
type bench struct {
	wl     workload
	prog   *progs.Program
	window time.Duration
	flayd  string
	procs  int

	// The original program, checked and analyzed in the harness: churn
	// generation, the shadow configuration and the bmv2 reference.
	ast  *ast.Program
	info *typecheck.Info
	an   *dataplane.Analysis
	mix  *packetMix

	pair     *pair
	bc       *client.BinClient
	baseline int // churned-table entries after the representative config
	gens     []*writerGen

	mu       sync.Mutex
	sent     []sentWrite // every write after the representative config, in send order
	attempts int
	fails    []string

	setups []setupTiming
	win    windowResult
	exec   execResult
	srv    serverDelta
	rss    float64

	// Progress counters and their samples over the timed phases.
	winUpdates  atomic.Int64
	execPackets atomic.Int64
	winSamples  []progress
	execSamples []progress

	execClient *client.Client
	execReqs   int    // /exec requests sent, indexing the packet mix
	lastEpoch  uint64 // highest epoch an /exec response reported
}

// sentWrite is one write with what the daemon answered. Each writer's
// writes are logged in the order it sent them, which is the order the
// daemon applied them; writers own disjoint keys, so how their writes
// interleave does not change any state.
type sentWrite struct {
	write
	inWindow  bool
	ok        bool
	decisions []wire.Decision
}

type setupTiming struct {
	total, spawn, create, representative time.Duration
}

// windowResult is the timed window's client-side measurements.
type windowResult struct {
	elapsed  time.Duration
	writes   int
	updates  int
	update   latencies // write latency; open loop: from the due time
	lag      latencies // open loop: how late each send was
	genCPU   time.Duration
	writeSum time.Duration // sum of send-to-ack latencies
	warmup   latencies     // writes before the window
}

// execResult is one /exec phase: the window (execLoad) or the probe.
type execResult struct {
	elapsed time.Duration
	packets int
	lat     latencies
}

func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = append(b.fails, fmt.Sprintf(format, args...))
}

// attempt counts one operation or check; a failed one also lands in
// fails.
func (b *bench) attempt() {
	b.mu.Lock()
	b.attempts++
	b.mu.Unlock()
}

func newBench(wl workload, seed uint64, window time.Duration, flayd string, procs int) (*bench, error) {
	p, err := progs.ByName(wl.program)
	if err != nil {
		return nil, err
	}
	prog, err := parser.Parse(p.Name, p.Source)
	if err != nil {
		return nil, err
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		return nil, err
	}
	an, err := dataplane.Analyze(prog, info, dataplane.Options{SkipParser: p.SkipParser})
	if err != nil {
		return nil, err
	}
	mix, err := newPacketMix(p, seed)
	if err != nil {
		return nil, err
	}
	b := &bench{wl: wl, prog: p, window: window, flayd: flayd, procs: procs,
		ast: prog, info: info, an: an, mix: mix}
	n := max(wl.writers, 1)
	for w := 0; w < n; w++ {
		b.gens = append(b.gens, newWriterGen(an, p.BurstTable, seed, w, wl.batch))
	}
	return b, nil
}

// setup boots the pair, creates the session over HTTP and acks the
// representative configuration as one batch over the binary protocol
// the window then writes on. It runs setupRounds times; all but the
// last pair are stopped again.
func (b *bench) setup() error {
	for i := 0; i < setupRounds; i++ {
		if b.pair != nil {
			b.bc.Close()
			if err := b.pair.stop(); err != nil {
				return err
			}
			b.pair, b.bc = nil, nil
		}
		t0 := time.Now()
		pr, err := bootPair(b.flayd, b.procs)
		if err != nil {
			return err
		}
		b.pair = pr
		t1 := time.Now()
		if _, err := pr.active.http.CreateSession(wire.CreateSessionRequest{Name: sessionName, Catalog: b.prog.Name, Exec: b.wl.exec}); err != nil {
			return fmt.Errorf("creating session: %w", err)
		}
		t2 := time.Now()
		bc, err := client.DialBin(pr.active.binAddr)
		if err != nil {
			return err
		}
		b.bc = bc
		if _, err := bc.Attach(sessionName, "", false); err != nil {
			return fmt.Errorf("attaching: %w", err)
		}
		rep := b.prog.Representative()
		resp, err := bc.Write(rep, true)
		if err != nil {
			return fmt.Errorf("representative config: %w", err)
		}
		if err := checkDecisions(rep, resp.Decisions); err != nil {
			return fmt.Errorf("representative config: %w", err)
		}
		t3 := time.Now()
		b.setups = append(b.setups, setupTiming{total: t3.Sub(t0), spawn: t1.Sub(t0), create: t2.Sub(t1), representative: t3.Sub(t2)})
	}
	info, err := b.pair.active.http.Session(sessionName)
	if err != nil {
		return err
	}
	b.baseline = info.Entries[b.prog.BurstTable]
	return nil
}

// checkDecisions is the per-write gate: one decision per update, none
// rejected.
func checkDecisions(us []*controlplane.Update, ds []wire.Decision) error {
	if len(ds) != len(us) {
		return fmt.Errorf("%d decisions for %d updates", len(ds), len(us))
	}
	for i, d := range ds {
		if d.Kind == "rejected" {
			return fmt.Errorf("update %d (%s) rejected: %s", i, us[i], d.Error)
		}
	}
	return nil
}

// logWrite reserves w's place in the send-order log.
func (b *bench) logWrite(w write, inWindow bool) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sent = append(b.sent, sentWrite{write: w, inWindow: inWindow})
	return len(b.sent) - 1
}

// send writes the logged write synchronously, checks the decisions and
// returns the latency measured from since.
func (b *bench) send(slot int, since time.Time) (time.Duration, bool) {
	b.mu.Lock()
	w := b.sent[slot].write
	b.mu.Unlock()
	resp, err := b.bc.Write(w.updates, w.batch)
	lat := time.Since(since)
	b.attempt()
	if err == nil {
		err = checkDecisions(w.updates, resp.Decisions)
	}
	if err != nil {
		b.fail("writer %d: write of %d updates: %v", w.writer, len(w.updates), err)
		return lat, false
	}
	b.mu.Lock()
	e := &b.sent[slot]
	e.ok, e.decisions = true, resp.Decisions
	b.mu.Unlock()
	return lat, true
}

// sendNow logs w and sends it.
func (b *bench) sendNow(w write, inWindow bool) (time.Duration, bool) {
	slot := b.logWrite(w, inWindow)
	return b.send(slot, time.Now())
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// warmUp sends every writer's first warmupStreams streams closed-loop,
// writers concurrently, and warms the /exec path when the window has
// /exec load.
func (b *bench) warmUp() error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, g := range b.gens {
		wg.Add(1)
		go func(g *writerGen) {
			defer wg.Done()
			for g.stream < warmupStreams || len(g.pending) > 0 {
				w, err := g.next()
				if err != nil {
					b.fail("%v", err)
					return
				}
				lat, ok := b.sendNow(w, false)
				if !ok {
					return
				}
				mu.Lock()
				b.win.warmup.add(lat)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if b.wl.execLoad {
		b.execLoop(func(i int) bool { return i < execWarmup })
	}
	if len(b.fails) > 0 {
		return fmt.Errorf("warm-up failed: %s", b.fails[0])
	}
	return nil
}

// progress is a timed phase's counters at one instant. Rate metrics
// are medians over the intervals between samples, so one slow interval
// (a neighbouring process's burst, a GC, a decision-diagram retry)
// moves them by one rank instead of by its whole cost.
type progress struct {
	t       time.Time
	updates int64
	packets int64
	pairCPU time.Duration // active + standby
	actCPU  time.Duration // active only
	// Host CPU ticks stolen by the hypervisor, and all host CPU ticks.
	steal, hostTotal int64
}

// stealFrac is the share of host CPU time stolen between two samples.
func stealFrac(a, b progress) float64 {
	if b.hostTotal == a.hostTotal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.hostTotal-a.hostTotal)
}

// intervals is how many equal parts a timed phase is sampled in.
const intervals = 10

func (b *bench) sample() (progress, error) {
	p := progress{t: time.Now(), updates: b.winUpdates.Load(), packets: b.execPackets.Load()}
	var err error
	if p.actCPU, err = b.pair.active.cpuTime(); err != nil {
		return p, err
	}
	sb, err := b.pair.standby.cpuTime()
	if err != nil {
		return p, err
	}
	p.pairCPU = p.actCPU + sb
	p.steal, p.hostTotal, err = hostCPU()
	return p, err
}

// intervalMedian is the median over consecutive samples of f, skipping
// intervals where f is undefined.
func intervalMedian(ps []progress, f func(a, b progress) (float64, bool)) float64 {
	var xs []float64
	for i := 1; i < len(ps); i++ {
		if v, ok := f(ps[i-1], ps[i]); ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// runWindow drives the workload's traffic for the window length.
func (b *bench) runWindow() error {
	if err := b.warmUp(); err != nil {
		return err
	}
	before, err := b.scrape()
	if err != nil {
		return err
	}
	gen0 := selfCPU()
	runtime.GC() // start every window from the same harness heap state
	first, err := b.sample()
	if err != nil {
		return err
	}
	b.winSamples = []progress{first}
	start := first.t
	deadline := start.Add(b.window)

	var wg sync.WaitGroup
	var writeMu sync.Mutex
	record := func(w write, lat, sendLat time.Duration) {
		writeMu.Lock()
		defer writeMu.Unlock()
		b.win.writes++
		b.win.update.add(lat)
		b.win.writeSum += sendLat
		b.winUpdates.Add(int64(len(w.updates)))
	}
	if b.wl.writers > 0 {
		for _, g := range b.gens {
			wg.Add(1)
			go func(g *writerGen) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					w, err := g.next()
					if err != nil {
						b.fail("%v", err)
						return
					}
					lat, ok := b.sendNow(w, true)
					if !ok {
						return
					}
					record(w, lat, lat)
				}
			}(g)
		}
	} else {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.openLoop(start, deadline, record)
		}()
	}
	if b.wl.execLoad {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.exec = b.execLoop(func(i int) bool { return time.Now().Before(deadline) })
		}()
	}
	for i := 1; i < intervals; i++ {
		time.Sleep(time.Until(start.Add(b.window * time.Duration(i) / intervals)))
		p, err := b.sample()
		if err != nil {
			return err
		}
		b.winSamples = append(b.winSamples, p)
	}
	wg.Wait()
	last, err := b.sample()
	if err != nil {
		return err
	}
	b.winSamples = append(b.winSamples, last)
	b.win.elapsed = last.t.Sub(start)
	b.win.updates = int(last.updates - first.updates)
	b.win.genCPU = selfCPU() - gen0
	if b.wl.execLoad {
		b.execSamples = b.winSamples
	}
	after, err := b.scrape()
	if err != nil {
		return err
	}
	b.srv = diffScrapes(before, after)
	return nil
}

// openLoop sends single-update writes on a fixed schedule, each timed
// from when it was due, whether or not earlier writes have returned.
func (b *bench) openLoop(start, deadline time.Time, record func(write, time.Duration, time.Duration)) {
	g := b.gens[0]
	interval := time.Duration(float64(time.Second) / b.wl.openRate)
	var inflight sync.WaitGroup
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		w, err := g.next()
		if err != nil {
			b.fail("%v", err)
			break
		}
		slot := b.logWrite(w, true)
		sent := time.Now()
		b.win.lag.add(sent.Sub(due))
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			if lat, ok := b.send(slot, due); ok {
				record(w, lat, lat-sent.Sub(due))
			}
		}()
	}
	inflight.Wait()
}

// execLoop is a closed-loop /exec client on one HTTP connection: it
// sends packetsPerExec-frame requests while more(i) holds and checks
// one result per frame and a never-decreasing epoch.
func (b *bench) execLoop(more func(i int) bool) execResult {
	if b.execClient == nil {
		b.execClient = client.New("http://" + b.pair.active.addr)
	}
	var r execResult
	start := time.Now()
	for i := 0; more(i); i++ {
		frames, ports := b.mix.request(b.execReqs)
		b.execReqs++
		t0 := time.Now()
		resp, err := b.execClient.ExecBytes(b.execSession(), frames, ports)
		lat := time.Since(t0)
		b.attempt()
		switch {
		case err != nil:
			b.fail("exec request %d: %v", i, err)
			continue
		case len(resp.Results) != len(frames):
			b.fail("exec request %d: %d results for %d frames", i, len(resp.Results), len(frames))
			continue
		case resp.Epoch < b.lastEpoch:
			b.fail("exec request %d: epoch went back from %d to %d", i, b.lastEpoch, resp.Epoch)
			continue
		}
		b.lastEpoch = resp.Epoch
		r.packets += len(frames)
		b.execPackets.Add(int64(len(frames)))
		r.lat.add(lat)
	}
	r.elapsed = time.Since(start)
	return r
}

// execSession is the session /exec traffic goes to: the churned session
// when it runs the executor, else a twin loaded with the same program
// and representative configuration (see probeTwin).
func (b *bench) execSession() string {
	if b.wl.exec {
		return sessionName
	}
	return sessionName + "-exec"
}

// settle runs after the window, untimed: every writer finishes its
// current stream, the churned table is checked against the streams'
// steady-state invariants, the writers drain back to the
// representative configuration, and the table is checked again.
func (b *bench) settle() error {
	for _, g := range b.gens {
		for _, w := range g.untilCheckpoint() {
			if _, ok := b.sendNow(w, false); !ok {
				return fmt.Errorf("settling writer %d failed", g.writer)
			}
		}
	}
	gained, err := b.gained(b.pair.active)
	if err != nil {
		return err
	}
	want := 0
	for _, g := range b.gens {
		if g.atStreamEnd() {
			want += g.cur.WantLive
		}
	}
	for _, g := range b.gens {
		if g.atStreamEnd() {
			b.attempt()
			if err := g.cur.CheckInvariant(gained - (want - g.cur.WantLive)); err != nil {
				b.fail("writer %d: %v", g.writer, err)
			}
		}
	}
	if want == 0 {
		b.attempt()
		if gained != 0 {
			b.fail("churned table gained %d entries at a stream boundary, want 0", gained)
		}
	}
	for _, g := range b.gens {
		for _, w := range g.drainRest() {
			if _, ok := b.sendNow(w, false); !ok {
				return fmt.Errorf("draining writer %d failed", g.writer)
			}
		}
	}
	b.attempt()
	if gained, err := b.gained(b.pair.active); err != nil {
		return err
	} else if gained != 0 {
		b.fail("churned table holds %d entries beyond the representative config after every drain", gained)
	}
	return nil
}

func (b *bench) gained(d *daemon) (int, error) {
	info, err := d.http.Session(sessionName)
	if err != nil {
		return 0, err
	}
	return info.Entries[b.prog.BurstTable] - b.baseline, nil
}

// probeTwin loads the exec twin of a session without the executor: the
// same program and representative configuration, which is also the
// churned session's configuration once every stream has drained.
func (b *bench) probeTwin() error {
	if _, err := b.pair.active.http.CreateSession(wire.CreateSessionRequest{Name: b.execSession(), Catalog: b.prog.Name, Exec: true}); err != nil {
		return fmt.Errorf("creating exec twin: %w", err)
	}
	rep := b.prog.Representative()
	resp, err := b.pair.active.http.Write(b.execSession(), wire.ModeBatch, rep)
	if err != nil {
		return fmt.Errorf("exec twin representative config: %w", err)
	}
	return checkDecisions(rep, resp.Decisions)
}

// probe measures /exec with the control plane idle: probeRequests
// requests against the final configuration, sampled in equal parts.
func (b *bench) probe() error {
	if !b.wl.exec {
		if err := b.probeTwin(); err != nil {
			return err
		}
	}
	b.execLoop(func(i int) bool { return i < execWarmup })
	p, err := b.sample()
	if err != nil {
		return err
	}
	b.execSamples = []progress{p}
	for k := 0; k < intervals; k++ {
		r := b.execLoop(func(i int) bool { return i < probeRequests/intervals })
		b.exec.packets += r.packets
		b.exec.elapsed += r.elapsed
		b.exec.lat.ms = append(b.exec.lat.ms, r.lat.ms...)
		if p, err = b.sample(); err != nil {
			return err
		}
		b.execSamples = append(b.execSamples, p)
	}
	return nil
}

// finalConfig replays the representative configuration and every
// acknowledged write onto a fresh configuration of the original program.
func (b *bench) finalConfig(session string) (*controlplane.Config, error) {
	cfg := controlplane.NewConfig(b.an)
	for _, u := range b.prog.Representative() {
		if err := cfg.Apply(u); err != nil {
			return nil, err
		}
	}
	if session != sessionName {
		return cfg, nil
	}
	for _, a := range b.sent {
		if !a.ok {
			continue
		}
		for _, u := range a.updates {
			if err := cfg.Apply(u); err != nil {
				return nil, err
			}
		}
	}
	return cfg, nil
}

// agree checks that the standby tracks the active: same update count,
// same entries per table, same specialized source. It returns the
// active's source.
func (b *bench) agree() (string, error) {
	var infos [2]wire.SessionInfo
	var srcs [2]string
	for i, d := range []*daemon{b.pair.active, b.pair.standby} {
		info, err := d.http.Session(sessionName)
		if err != nil {
			return "", err
		}
		src, err := d.http.Source(sessionName, "")
		if err != nil {
			return "", err
		}
		infos[i], srcs[i] = info, src
	}
	check := func(ok bool, format string, args ...any) {
		b.attempt()
		if !ok {
			b.fail(format, args...)
		}
	}
	check(infos[0].Stats.Updates == infos[1].Stats.Updates,
		"active applied %d updates, standby %d", infos[0].Stats.Updates, infos[1].Stats.Updates)
	check(len(infos[0].Entries) == len(infos[1].Entries),
		"active reports %d tables, standby %d", len(infos[0].Entries), len(infos[1].Entries))
	tables := make([]string, 0, len(infos[0].Entries))
	for t := range infos[0].Entries {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		check(infos[0].Entries[t] == infos[1].Entries[t],
			"table %s: active holds %d entries, standby %d", t, infos[0].Entries[t], infos[1].Entries[t])
	}
	check(srcs[0] == srcs[1], "active and standby specialized sources differ")
	return srcs[0], nil
}

// serverDelta is what the daemons' metrics say about the window.
type serverDelta struct {
	write, apply, ship    obs.HistogramSnapshot // active, deltas of count and sum
	applyP50, applyP99    float64               // active, cumulative since boot, ms
	shipP50, shipP99      float64
	standbyApplyNS        int64 // standby engine update time over the window
	standbyRounds         int64
	shipErrors, queueFull int64
	httpErrors            int64
	heapAllocBytes        int64
}

type scrape struct {
	active, standby obs.Snapshot
	standbyStat     wire.Stats
}

func (b *bench) scrape() (scrape, error) {
	var s scrape
	var err error
	if s.active, err = b.pair.active.http.Metrics(); err != nil {
		return s, err
	}
	if s.standby, err = b.pair.standby.http.Metrics(); err != nil {
		return s, err
	}
	if s.standbyStat, err = b.pair.standby.http.Stats(sessionName); err != nil {
		return s, err
	}
	return s, nil
}

func histDelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	return obs.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum}
}

func diffScrapes(a, b scrape) serverDelta {
	h := func(s scrape, n string) obs.HistogramSnapshot { return s.active.Histograms[n] }
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return serverDelta{
		write:          histDelta(h(a, "server.write_ns"), h(b, "server.write_ns")),
		apply:          histDelta(h(a, "server.apply_ns"), h(b, "server.apply_ns")),
		ship:           histDelta(h(a, "server.ship_ns"), h(b, "server.ship_ns")),
		applyP50:       ms(h(b, "server.apply_ns").P50),
		applyP99:       ms(h(b, "server.apply_ns").P99),
		shipP50:        ms(h(b, "server.ship_ns").P50),
		shipP99:        ms(h(b, "server.ship_ns").P99),
		standbyApplyNS: b.standbyStat.UpdateNS - a.standbyStat.UpdateNS,
		standbyRounds:  b.standby.Counters["server.replica_rounds"] - a.standby.Counters["server.replica_rounds"],
		shipErrors:     b.active.Counters["server.ship_errors"],
		queueFull:      b.active.Counters["server.queue_full"],
		httpErrors:     b.active.Counters["server.http_errors"],
		heapAllocBytes: b.active.Gauges["server.heap_alloc_bytes"],
	}
}
