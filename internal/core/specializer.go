// Package core implements Flay's incremental specialization engine
// (paper §4): it combines the one-time data-plane analysis with the
// live control-plane configuration, answers specialization queries at
// every annotated program point, decides for each control-plane update
// whether the program's implementation must change (Recompile) or the
// update can be forwarded to the device as-is (Forward), and produces
// the specialized program.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/obs"
	"repro/internal/p4/ast"
	"repro/internal/p4/parser"
	"repro/internal/p4/typecheck"
	"repro/internal/sym"
)

// VerdictKind classifies a program point's resolved behaviour.
type VerdictKind uint8

const (
	// VerdictDead: the point's condition is provably unsatisfiable.
	VerdictDead VerdictKind = iota
	// VerdictLive: the condition may hold (includes solver Unknown —
	// conservative).
	VerdictLive
	// VerdictConst: the point's value is a single constant.
	VerdictConst
	// VerdictVaries: the value is not provably constant.
	VerdictVaries
)

var verdictNames = [...]string{"dead", "live", "const", "varies"}

func (k VerdictKind) String() string {
	if int(k) < len(verdictNames) {
		return verdictNames[k]
	}
	return "verdict?"
}

// Verdict is the resolved behaviour of one program point under the
// current control-plane configuration.
type Verdict struct {
	Kind VerdictKind
	// Val holds the constant for VerdictConst.
	Val sym.BV
}

func (v Verdict) String() string {
	if v.Kind == VerdictConst {
		return fmt.Sprintf("const %s", v.Val)
	}
	return v.Kind.String()
}

// DecisionKind is the outcome of processing one control-plane update.
type DecisionKind uint8

const (
	// Forward: no program point changed behaviour; the update is
	// installed on the device without recompilation (the paper's fast
	// path).
	Forward DecisionKind = iota
	// Recompile: at least one point's verdict (or an implementation
	// assumption such as a narrowed match kind) changed; the affected
	// components must be respecialized.
	Recompile
	// Rejected: the update failed validation and was not applied.
	Rejected
)

var decisionNames = [...]string{"forward", "recompile", "rejected"}

func (k DecisionKind) String() string {
	if int(k) < len(decisionNames) {
		return decisionNames[k]
	}
	return "decision?"
}

// Decision reports what Flay did with one update.
type Decision struct {
	Kind   DecisionKind
	Update *controlplane.Update
	// AffectedPoints is how many program points the taint map routed
	// the update to.
	AffectedPoints int
	// ChangedPoints lists the IDs of points whose verdict changed.
	ChangedPoints []int
	// ImplementationChange notes a non-verdict assumption violation
	// (e.g. a ternary key narrowed to exact now needs ternary again).
	ImplementationChange string
	// Components lists the qualified names of data-plane components
	// needing recompilation.
	Components []string
	// Elapsed is the update-analysis wall time (the paper's "update
	// analysis time", Tbl. 2/3).
	Elapsed time.Duration
	// Degraded marks a decision evaluated under a degraded assignment:
	// the adaptive precision controller (deadline.go) pinned the target
	// to the overapproximation, so the verdict is conservative rather
	// than precise ("precision":"degraded" on the wire and in the audit
	// trail).
	Degraded bool
	// Err is set for Rejected decisions.
	Err error
}

func (d *Decision) String() string {
	switch d.Kind {
	case Forward:
		return fmt.Sprintf("forward %s (%d points, %v)", d.Update, d.AffectedPoints, d.Elapsed)
	case Recompile:
		return fmt.Sprintf("recompile %v after %s (%d/%d points changed, %v)",
			d.Components, d.Update, len(d.ChangedPoints), d.AffectedPoints, d.Elapsed)
	default:
		return fmt.Sprintf("rejected %s: %v", d.Update, d.Err)
	}
}

// Quality selects how aggressively the specializer rewrites the
// program — the recompilation-time vs specialization-quality tradeoff
// the paper names as future work (§6). Lower quality keeps more of the
// original implementation, so fewer control-plane updates invalidate
// it (fewer recompilations), at the price of higher resource usage.
type Quality uint8

const (
	// QualityFull applies every pass: DCE, constant propagation, table
	// inlining, dead-action removal, match-kind narrowing, parser
	// pruning. Best resource usage, most recompilation triggers.
	QualityFull Quality = iota
	// QualityNoNarrowing skips match-kind narrowing (ternary keys stay
	// ternary), removing the Fig.-3-step-4 class of recompilations for
	// tables with mask churn.
	QualityNoNarrowing
	// QualityDCEOnly additionally skips table inlining and constant
	// propagation: only dead branches, dead actions and empty tables
	// are removed.
	QualityDCEOnly
	// QualityNone performs no specialization at all: the installed
	// implementation is the original program, so no control-plane
	// update ever requires recompilation (the "fall-back datapath"
	// extreme the paper contrasts against).
	QualityNone
)

var qualityNames = [...]string{"full", "no-narrowing", "dce-only", "none"}

func (q Quality) String() string {
	if int(q) < len(qualityNames) {
		return qualityNames[q]
	}
	return "quality?"
}

// Options configures a Specializer.
type Options struct {
	// SkipParser skips parser analysis (paper §4.2, switch.p4).
	SkipParser bool
	// OverapproxThreshold overrides the per-table entry budget
	// (default 100; negative disables overapproximation — "precise
	// mode" in Tbl. 3).
	OverapproxThreshold int
	// Quality selects the specialization aggressiveness (default
	// QualityFull).
	Quality Quality
	// Workers bounds the point re-evaluation worker pool: 1 forces
	// serial evaluation, >1 sets the pool size, and <=0 (the default)
	// uses GOMAXPROCS.
	Workers int
	// NoDD disables the canonical decision-diagram query core (dd.go):
	// every specialization query then runs on the substitute-and-probe
	// solver path. The diagram core is on by default; the differential
	// suite and the flaybench dd section use the ablation to prove
	// verdict equivalence and measure the speedup.
	NoDD bool

	// Exec enables the data-plane executor (exec.go): every epoch
	// publication also compiles and hot-swaps an executable image of
	// the specialized program, served wait-free by Exec/ExecBatch. Off
	// by default — engines that never execute packets pay nothing.
	Exec bool

	// LockedReads is the pre-epoch ablation: read entry points
	// (Verdict, Statistics, Entries, Generation, DegradedTables) take
	// the engine read lock and read mutable state instead of loading
	// the published epoch — the seed engine's behaviour, where every
	// query contends with writers on one RWMutex. It exists for the
	// scaling benchmark's baseline and costs nothing when false.
	LockedReads bool

	// RepairInterval paces the adaptive precision controller's
	// background repair goroutine (deadline.go): after RepairInterval of
	// quiescence, degraded tables are differentially checked and
	// promoted back to precise, one per tick. Zero selects the default
	// (100ms); negative disables background repair (promotion then only
	// happens through PromoteAll).
	RepairInterval time.Duration

	// Trace, when set, records structured spans for every pipeline stage
	// (parse → dataflow → taint → query → pass). Metrics, when set,
	// resolves the engine's counters, gauges and latency histograms.
	// Audit, when set, receives one AuditRecord per decided update. All
	// three default to nil — fully disabled, with no allocation on the
	// update path.
	Trace   *obs.Trace
	Metrics *obs.Registry
	Audit   *obs.Trail
}

// Stats aggregates engine counters. The three outcome counters
// partition Updates: Updates == Forwarded + Recompilations + Rejected.
type Stats struct {
	Points         int
	Tables         int
	AnalysisTime   time.Duration // one-time data-plane analysis
	PreprocessTime time.Duration // initial verdict computation
	Updates        int
	Forwarded      int
	Recompilations int
	Rejected       int
	UpdateTime     time.Duration // cumulative update-analysis time

	// Batch engine counters (ApplyBatch).
	Batches        int // ApplyBatch invocations
	BatchedUpdates int // updates processed through ApplyBatch
	// Coalesced counts updates that shared a per-target assignment
	// recompile + point re-evaluation with at least one other update of
	// the same batch — i.e. evaluation passes the batch engine elided.
	Coalesced int

	// Parallel evaluation counters.
	EvalTime time.Duration // cumulative wall time re-evaluating points
	Workers  int           // configured worker count (0 = GOMAXPROCS)

	// Query-skip counters. CacheHits counts tainted-point
	// re-evaluations answered without a specialization query: either the
	// update left the target's compiled assignment unchanged, so none of
	// its points was re-evaluated, or the point's substituted residue was
	// pointer-equal to the one its verdict was computed from.
	// CacheMisses counts the queries that actually ran.
	CacheHits   int64
	CacheMisses int64

	// Decision-diagram query core counters (zero when the core is
	// disabled). DDQueries counts verdicts answered on the diagram
	// path, DDFallbacks queries punted to the probe solver, DDCompiles
	// root compilations, and DDNodes the interned diagram nodes.
	DDQueries   int64
	DDFallbacks int64
	DDCompiles  int64
	DDNodes     int

	// Adaptive precision controller counters (deadline.go).
	Degradations    int // tables degraded to overapproximation
	Promotions      int // tables promoted back to precise
	DegradedTables  int // tables currently degraded
	UnsoundDegraded int // unsound degraded verdicts observed (must be 0)

	// Expression-arena hygiene counters. Sustained churn interns fresh
	// constants on every update; periodic sweeps keep the hash-consing
	// arena proportional to live state instead of update history.
	ArenaNodes  int // interned expression nodes right now
	ArenaSweeps int // arena garbage collections run
	ArenaSwept  int // nodes reclaimed across all sweeps
}

// Specializer is the incremental specializing compiler.
//
// A Specializer is safe for concurrent use: mutating entry points
// (Apply, ApplyBatch, Preload, ReevaluateAll) serialize behind a write
// lock and end by publishing an immutable epoch (epoch.go), while the
// query-path readers (Verdict, Statistics, Entries, Generation,
// DegradedTables) load the published epoch wait-free — they never
// block a writer and a writer never blocks them. Heavy read entry
// points that need the full mutable state (Snapshot, DifferentialCheck,
// SpecializedProgram) share the read lock, which is what gives them a
// consistent cut against writers. Point re-evaluation inside a mutating
// call fans out over the worker pool in parallel.go, grouped by taint
// partition (shard.go).
type Specializer struct {
	Prog *ast.Program
	Info *typecheck.Info
	An   *dataplane.Analysis
	Cfg  *controlplane.Config

	// source is the program text the engine was opened from
	// (NewFromSource); snapshots embed it so Restore can re-run the
	// deterministic front half of the pipeline.
	source string

	// mu guards every field below as well as Cfg and the Builder's
	// single-threaded substitution memo.
	mu sync.RWMutex

	env      controlplane.Env
	verdicts []Verdict
	impls    map[string]*tableImpl
	stats    Stats
	quality  Quality

	// co is the cross-shard coordination layer (epoch.go): the
	// published epoch pointer, the audit-seq allocator, the arena-sweep
	// trigger, and the taint-partition shard map.
	co coord
	// verdictsDirty is set (single-threaded, in reevalPoints' epilogue)
	// when a pass changed at least one verdict; publish() clears it and
	// only then re-copies the verdict slice.
	verdictsDirty bool
	// Data-plane executor state (exec.go), all guarded by mu: exec is
	// Options.Exec; imgTargets lists the targets forwarded updates
	// touched since the last publication (incremental image rebuild);
	// imgFull forces the next publication to recompile the image from
	// the specialized program. machines pools executor machines for the
	// wait-free Exec path.
	exec       bool
	imgFull    bool
	imgTargets []string
	machines   sync.Pool
	// lockedReads selects the pre-epoch read path (Options.LockedReads).
	lockedReads bool

	// workers is the configured evaluation pool bound (Options.Workers);
	// shards holds the per-worker scratch states, grown lazily.
	workers int
	shards  []*evalShard

	// Observability (all fields are nil-safe; nil means disabled).
	trace  *obs.Trace
	audit  *obs.Trail
	met    coreMetrics
	symMet *sym.SolverMetrics
	// lastChanges is the scratch buffer reevalPoints fills with the
	// point-level verdict flips of the last pass, in point-ID order. It
	// is only populated when the audit trail is enabled.
	lastChanges []obs.PointChange

	// pointSub caches each point's last substituted expression (a
	// hash-consed pointer): when an update's substitution yields the
	// same node, the verdict cannot have changed and the query is
	// skipped entirely.
	pointSub []*sym.Expr
	// hits and misses back Stats.CacheHits/CacheMisses. Workers bump
	// them concurrently, so they are atomics overlaid live by
	// Statistics.
	hits, misses atomic.Int64
	// witnesses caches per-point satisfying assignments; re-evaluating
	// a cached witness is usually all it takes to re-prove liveness.
	witnesses []sym.Env

	// pointDeps holds each point's sorted dependency targets
	// (buildPointDeps).
	pointDeps [][]string

	// The decision-diagram query core (dd.go): ddc is nil when
	// disabled; roDD is the wait-free readers' handle on it — set once
	// at construction, read by Statistics even while ReevaluateAll
	// temporarily nils the locked handle for its ablation pass.
	ddc  *ddCore
	roDD atomic.Pointer[ddCore]

	// Adaptive precision controller state (deadline.go). costNS is the
	// per-target EWMA of precise analysis cost per tainted point (ns),
	// costGlobalNS the engine-wide fallback; degraded maps each
	// currently degraded table to its cause; repair is the configured
	// repair interval and repairOn whether the repair goroutine is live.
	costNS       map[string]float64
	costGlobalNS float64
	degraded     map[string]string
	repair       time.Duration
	repairOn     bool
	unsound      atomic.Int64 // unsound degraded verdicts ever observed
	lastApply    atomic.Int64 // unix ns of the last mutating call (quiescence)
	closedCh     chan struct{}
	closeOnce    sync.Once
}

// New builds a Specializer from parsed+checked inputs: it runs the
// data-plane analysis and the initial specialization pass under the
// empty (device-spec) configuration.
func New(prog *ast.Program, info *typecheck.Info, opts Options) (*Specializer, error) {
	root := opts.Trace.Start("open", 0)
	defer opts.Trace.End(root)
	t0 := time.Now()
	an, err := dataplane.Analyze(prog, info, dataplane.Options{
		SkipParser: opts.SkipParser,
		Trace:      opts.Trace,
		Parent:     root,
		Metrics:    opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	analysisTime := time.Since(t0)

	cfg := controlplane.NewConfig(an)
	cfg.OverapproxThreshold = opts.OverapproxThreshold
	cfg.SetObserver(opts.Metrics)
	s := &Specializer{
		Prog:        prog,
		Info:        info,
		An:          an,
		Cfg:         cfg,
		impls:       make(map[string]*tableImpl),
		quality:     opts.Quality,
		workers:     opts.Workers,
		lockedReads: opts.LockedReads,
		exec:        opts.Exec,
		trace:       opts.Trace,
		audit:       opts.Audit,
		met:         newCoreMetrics(opts.Metrics),
		symMet:      sym.NewSolverMetrics(opts.Metrics),
		repair:      opts.RepairInterval,
		closedCh:    make(chan struct{}),
	}
	if !opts.NoDD {
		s.ddc = newDDCore(an, nil)
		s.roDD.Store(s.ddc)
	}
	t1 := time.Now()
	sp := s.trace.Start("preprocess", root)
	if err := s.initState(); err != nil {
		return nil, err
	}
	// Initial preprocessing: every point's verdict under the empty
	// assignment, fanned out over the worker pool (the changed-IDs
	// return is irrelevant against zero-valued verdicts).
	s.reevalPoints(an.Points)
	for name := range an.Tables {
		s.impls[name] = s.idealImpl(name)
	}
	s.trace.Attr(sp, "points", int64(len(an.Points)))
	s.trace.End(sp)
	s.met.points.Set(int64(len(an.Points)))
	s.met.tables.Set(int64(len(an.Tables)))
	s.stats = Stats{
		Points:         len(an.Points),
		Tables:         len(an.Tables),
		AnalysisTime:   analysisTime,
		PreprocessTime: time.Since(t1),
		Workers:        opts.Workers,
	}
	// Publish the open-time epoch before the engine escapes: readers
	// may load it the moment New returns.
	s.publish()
	return s, nil
}

// NewFromSource parses, checks and analyzes a program in one call.
func NewFromSource(name, src string, opts Options) (*Specializer, error) {
	sp := opts.Trace.Start("parse", 0)
	prog, err := parser.Parse(name, src)
	opts.Trace.End(sp)
	if err != nil {
		return nil, err
	}
	sp = opts.Trace.Start("typecheck", 0)
	info, err := typecheck.Check(prog)
	opts.Trace.End(sp)
	if err != nil {
		return nil, err
	}
	s, err := New(prog, info, opts)
	if err != nil {
		return nil, err
	}
	s.source = src
	return s, nil
}

// initState allocates the per-point state and compiles the full
// control-plane environment one target at a time (New and Restore
// share it).
func (s *Specializer) initState() error {
	an := s.An
	s.env = make(controlplane.Env)
	s.pointDeps = buildPointDeps(an)
	s.co.shards = buildShardMap(an, s.pointDeps)
	s.met.initShards(s.co.shards.count)
	s.verdicts = make([]Verdict, len(an.Points))
	s.pointSub = make([]*sym.Expr, len(an.Points))
	s.witnesses = make([]sym.Env, len(an.Points))
	// Deterministic target order: compile-time state (register refill
	// variables become diagram atoms as they appear) must not depend on
	// map iteration, or restored engines could walk diagrams in a
	// different variable order than the engine that snapshotted them.
	for _, name := range sortedNames(an.Tables) {
		if _, err := s.recompileTarget(name); err != nil {
			return err
		}
	}
	// ValueSets is keyed by alias as well as canonical name; targets are
	// the deduped canonical names, sorted for the same determinism.
	seenVS := make(map[string]bool, len(an.ValueSets))
	vsNames := make([]string, 0, len(an.ValueSets))
	for _, vi := range an.ValueSets {
		if !seenVS[vi.Name] {
			seenVS[vi.Name] = true
			vsNames = append(vsNames, vi.Name)
		}
	}
	sortStrings(vsNames)
	for _, name := range vsNames {
		if _, err := s.recompileTarget(name); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(an.Registers) {
		if _, err := s.recompileTarget(name); err != nil {
			return err
		}
	}
	return nil
}

// Statistics returns a copy of the engine counters as of the published
// epoch. It is wait-free (one atomic load, no lock) and may be called
// concurrently with Apply/ApplyBatch from any number of goroutines
// without ever blocking a writer. The query-skip, diagram and unsound
// counters are overlaid live from their atomics; everything else is
// the consistent cut the last mutating call published.
func (s *Specializer) Statistics() Stats {
	var st Stats
	if s.lockedReads {
		s.mu.RLock()
		st = s.stats
		st.DegradedTables = len(s.degraded)
		st.ArenaNodes = s.An.Builder.NumNodes()
		s.mu.RUnlock()
	} else {
		st = s.loadEpoch().stats
	}
	st.CacheHits = s.hits.Load()
	st.CacheMisses = s.misses.Load()
	if d := s.roDD.Load(); d != nil {
		st.DDQueries = d.queries.Load()
		st.DDFallbacks = d.fallbacks.Load()
		st.DDCompiles = d.compiles.Load()
		st.DDNodes = d.store.Load().NumNodes()
	}
	st.UnsoundDegraded = int(s.unsound.Load())
	return st
}

// Entries returns the live entry count of a table as of the published
// epoch. Like Statistics it is wait-free and safe to call concurrently
// with Apply/ApplyBatch.
func (s *Specializer) Entries(table string) int {
	if s.lockedReads {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.Cfg.NumEntries(table)
	}
	return s.loadEpoch().entries[table]
}

// ReevaluateAll recomputes every program point's verdict from scratch,
// bypassing the taint map and the per-point caches. It exists as the
// ablation baseline: this is the work a non-incremental specializing
// compiler performs on every control-plane update (§2: "recompiling the
// data-plane program every time the control-plane issues an update").
// It returns the number of points whose verdict differs from the cached
// one (always zero when the engine is consistent).
func (s *Specializer) ReevaluateAll() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publish()
	s.imgMarkFull()
	for _, p := range s.An.Points {
		s.pointSub[p.ID] = nil
		s.witnesses[p.ID] = nil
	}
	// The baseline measures the solver path: the diagram core sits the
	// pass out.
	ddc := s.ddc
	s.ddc = nil
	t0 := time.Now()
	changed := s.reevalPoints(s.An.Points)
	s.stats.EvalTime += time.Since(t0)
	s.ddc = ddc
	return len(changed)
}

// Preload installs a batch of updates as initial configuration state,
// without per-update incremental analysis: the configuration is applied
// first, then the affected assignments and point verdicts are
// recomputed once. This mirrors the paper's Tbl.-3 methodology
// ("initialize this ACL table with varying number of entries, then send
// a single update and measure") — initialization is not what is being
// timed. The first invalid update aborts with an error; already-applied
// updates stay applied (their verdicts are still refreshed).
func (s *Specializer) Preload(updates []*controlplane.Update) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publish()
	s.imgMarkFull()
	targets := make(map[string]bool)
	var firstErr error
	for _, u := range updates {
		if err := s.Cfg.Apply(u); err != nil {
			firstErr = err
			break
		}
		targets[u.Target()] = true
	}
	names := make([]string, 0, len(targets))
	for target := range targets {
		names = append(names, target)
		if _, err := s.recompileTarget(target); err != nil {
			return err
		}
	}
	t0 := time.Now()
	s.reevalPoints(s.An.PointsOfTargets(names))
	s.stats.EvalTime += time.Since(t0)
	for target := range targets {
		if _, ok := s.An.Tables[target]; ok {
			s.impls[target] = s.idealImpl(target)
		}
	}
	return firstErr
}

// recompileTarget recompiles the environment fragment of one touched
// object — the assignment of its control-plane variables — leaving the
// rest of the environment untouched. Dispatch is by the object's schema
// class; a successfully applied update always targets a known object.
//
// It reports whether the assignment changed: whether any variable of
// the fresh fragment is bound to a different node than before.
// Hash-consing makes that pointer comparison exact — structurally
// equal assignments are the same nodes, and the environment is an
// arena root, so a sweep never orphans a bound node that a recompile
// could later re-intern under a new pointer. An unchanged assignment
// cannot change any verdict, which is what lets the update paths skip
// the target's points (the common case past the overapproximation
// threshold, where the fragment is the fixed "*any*" assignment).
func (s *Specializer) recompileTarget(target string) (bool, error) {
	b := s.An.Builder
	var frag controlplane.Env
	switch {
	case s.An.Tables[target] != nil:
		te, _, err := s.Cfg.CompileTable(b, target)
		if err != nil {
			return false, err
		}
		frag = te
	case s.An.Registers[target] != nil:
		frag = s.Cfg.CompileRegister(b, target)
	default:
		frag = s.Cfg.CompileValueSet(b, target)
	}
	changed := false
	for k, v := range frag {
		if s.env[k] != v {
			s.env[k] = v
			changed = true
		}
	}
	if changed && s.ddc != nil {
		s.ddc.ensureAtoms(frag)
		s.evictStale(target)
	}
	return changed, nil
}

// evictStale drops the diagram roots of exactly the points a changed
// target taints: the residues they were compiled from are about to
// change, nothing else's are.
func (s *Specializer) evictStale(target string) {
	for _, p := range s.An.PointsOf(target) {
		s.ddc.invalidate(p.ID)
	}
}

// skipPoints accounts n tainted points an unchanged assignment let the
// update path skip: each counts as answered without a query.
func (s *Specializer) skipPoints(n int) {
	s.hits.Add(int64(n))
	s.met.cacheHits.Add(int64(n))
}

// Verdict returns the verdict of a point as of the published epoch —
// one atomic load plus an index into the epoch's frozen verdict copy,
// wait-free against concurrent writers.
func (s *Specializer) Verdict(id int) Verdict {
	if s.lockedReads {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.verdicts[id]
	}
	return s.loadEpoch().verdicts[id]
}

// evalPointWith answers one point's specialization query using the
// given worker shard's solver and substitution memo. Hash-consing makes
// the substituted expression a canonical pointer, so an unchanged
// pointer means an unchanged verdict and the query is skipped;
// otherwise liveness witnesses from previous queries are retried
// before the solver searches.
func (s *Specializer) evalPointWith(sh *evalShard, p *dataplane.Point) Verdict {
	b := s.An.Builder
	sub := b.SubstWith(&sh.sub, p.Expr, s.env)
	if s.pointSub[p.ID] == sub && sub != nil {
		s.hits.Add(1)
		s.met.cacheHits.Inc()
		return s.verdicts[p.ID]
	}
	s.misses.Add(1)
	s.met.cacheMisses.Inc()
	s.pointSub[p.ID] = sub
	return s.queryAny(sh, p, sub)
}

// queryPoint answers the point's specialization query on the
// substituted residue.
func (s *Specializer) queryPoint(sh *evalShard, p *dataplane.Point, sub *sym.Expr) Verdict {
	switch p.Kind {
	case dataplane.PointIfBranch, dataplane.PointActionReach,
		dataplane.PointTableReach, dataplane.PointSelectCase:
		verdict, witness := sh.solver.CheckWitness(sub, s.witnesses[p.ID])
		if verdict == sym.Unsat {
			return Verdict{Kind: VerdictDead}
		}
		if verdict == sym.Sat {
			s.witnesses[p.ID] = witness
		}
		return Verdict{Kind: VerdictLive}
	case dataplane.PointAssignValue, dataplane.PointTableAction:
		res := sh.solver.ConstValue(sub)
		if res.Known && res.IsConst {
			return Verdict{Kind: VerdictConst, Val: res.Val}
		}
		return Verdict{Kind: VerdictVaries}
	default:
		return Verdict{Kind: VerdictLive}
	}
}

// Apply processes one control-plane update: validate, route through the
// taint map, re-evaluate only the affected points, and decide Forward
// vs Recompile (paper Fig. 2). Equivalent to ApplyCtx with a background
// context (no latency budget: the analysis always runs precise).
func (s *Specializer) Apply(u *controlplane.Update) *Decision {
	return s.ApplyCtx(context.Background(), u)
}

// ApplyCtx is Apply with a latency budget: when ctx carries a deadline
// and the projected precise analysis cost of the update does not fit
// the remaining budget, the adaptive precision controller (deadline.go)
// degrades the target table to the overapproximated assignment before
// analysing — keeping the call under its budget at the price of a
// conservative (never wrong) verdict. A context that is already done on
// entry rejects the update with flayerr.ErrDeadlineExceeded (or the
// cancellation cause) without touching any state.
func (s *Specializer) ApplyCtx(ctx context.Context, u *controlplane.Update) *Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.lastApply.Store(time.Now().UnixNano())
	defer s.publish() // runs after the sweep: the epoch sees final arena counts
	defer s.maybeSweepArena()
	return s.applyLocked(ctx, u)
}

func (s *Specializer) applyLocked(ctx context.Context, u *controlplane.Update) *Decision {
	t0 := time.Now()
	d := &Decision{Update: u}
	seq := s.co.nextSeq()
	s.stats.Updates = seq
	s.met.updates.Inc()
	s.lastChanges = s.lastChanges[:0]
	sp := s.trace.Start("update", 0)
	defer func() {
		s.trace.Attr(sp, "seq", int64(seq))
		s.trace.Attr(sp, "decision", int64(d.Kind))
		s.trace.End(sp)
		s.met.decisionCounter(d.Kind).Inc()
		s.met.updateNS.ObserveDuration(d.Elapsed)
		if s.audit != nil {
			workers := 0
			if d.AffectedPoints > 0 {
				workers = s.effectiveWorkers(d.AffectedPoints)
			}
			s.audit.Append(auditRecord(d, seq, 0, workers, s.lastChanges))
		}
	}()
	// Admission: a closed engine or an already-exhausted budget rejects
	// the update before any configuration state is touched.
	if err := s.admit(ctx); err != nil {
		s.stats.Rejected++
		d.Kind = Rejected
		d.Err = err
		d.Elapsed = time.Since(t0)
		return d
	}
	if err := s.Cfg.Apply(u); err != nil {
		s.stats.Rejected++
		d.Kind = Rejected
		d.Err = err
		d.Elapsed = time.Since(t0)
		return d
	}
	target := u.Target()

	// With specialization disabled the installed implementation is the
	// original program; nothing a valid update does can invalidate it.
	if s.quality == QualityNone {
		s.imgMark(target)
		s.stats.Forwarded++
		d.Kind = Forward
		d.Elapsed = time.Since(t0)
		s.stats.UpdateTime += d.Elapsed
		return d
	}

	// Deadline policy (deadline.go): if the projected precise analysis
	// cost of this update does not fit the remaining budget, pin the
	// target to the overapproximated assignment before compiling, so the
	// expensive precise ite chain is never built.
	pts := s.An.PointsOf(target)
	s.maybeDegrade(ctx, target, len(pts))
	if _, deg := s.degraded[target]; deg {
		d.Degraded = true
	}

	// Recompile the assignment for the touched object only; the rest of
	// the environment is unchanged.
	tc := time.Now()
	csp := s.trace.Start("assign-compile", sp)
	changed, err := s.recompileTarget(target)
	s.trace.End(csp)
	if err != nil {
		// The configuration already changed: the next image must not
		// assume the previous epoch's is patchable.
		s.imgMarkFull()
		s.stats.Rejected++
		d.Kind = Rejected
		d.Err = err
		d.Elapsed = time.Since(t0)
		return d
	}

	// Taint lookup → affected points → re-query, fanned out over the
	// worker pool when the update taints enough points. An unchanged
	// assignment cannot change a verdict, so its points are skipped.
	d.AffectedPoints = len(pts)
	te := time.Now()
	qsp := s.trace.Start("query", sp)
	if changed {
		d.ChangedPoints = s.reevalPoints(pts)
	} else {
		s.skipPoints(len(pts))
	}
	s.trace.Attr(qsp, "points", int64(len(pts)))
	s.trace.Attr(qsp, "changed", int64(len(d.ChangedPoints)))
	s.trace.End(qsp)
	evalElapsed := time.Since(te)
	s.stats.EvalTime += evalElapsed
	s.met.evalNS.ObserveDuration(evalElapsed)
	// A precise pass (assignment compile + re-evaluation) feeds the
	// cost estimator; degraded and statically overapproximated passes
	// run the flat path and would poison it.
	if !s.Cfg.Overapproximated(target) {
		s.observeCost(target, time.Since(tc), len(pts))
	}

	// Implementation-assumption check: a narrowed implementation may be
	// invalidated by an update even when no query verdict flips (the
	// Fig. 3 C→D step: a masked entry forces the table back to
	// ternary).
	changedImpls := s.changedImpls(target, d)

	if len(d.ChangedPoints) == 0 && len(changedImpls) == 0 {
		// Forward: the specialized program is unchanged, so the image
		// only needs the touched target patched.
		s.imgMark(target)
		s.stats.Forwarded++
		d.Kind = Forward
		d.Elapsed = time.Since(t0)
		s.stats.UpdateTime += d.Elapsed
		return d
	}

	// Respecialization: adopt the new ideal implementations for the
	// affected components.
	s.imgMarkFull()
	d.Kind = Recompile
	s.stats.Recompilations++
	comps := map[string]bool{}
	for name := range changedImpls {
		comps[name] = true
		s.impls[name] = changedImpls[name]
	}
	for _, id := range d.ChangedPoints {
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
	for c := range comps {
		d.Components = append(d.Components, c)
	}
	sortStrings(d.Components)
	d.Elapsed = time.Since(t0)
	s.stats.UpdateTime += d.Elapsed
	return d
}

// changedImpls compares the installed implementation of the update's
// target table against the ideal one.
func (s *Specializer) changedImpls(target string, d *Decision) map[string]*tableImpl {
	out := make(map[string]*tableImpl)
	if _, ok := s.An.Tables[target]; !ok {
		return out
	}
	ideal := s.idealImpl(target)
	cur := s.impls[target]
	if cur == nil || !cur.equal(ideal) {
		out[target] = ideal
		if cur != nil {
			d.ImplementationChange = cur.diff(ideal)
		}
	}
	return out
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}
