// flaybench regenerates every table and figure from the paper's
// evaluation: Table 1 (from-scratch compile times), Table 2 (analysis
// and update times per program), Table 3 (update scaling, precise vs
// overapproximate), Fig. 1 (input change rates), Fig. 3 (table
// implementation evolution), Fig. 5 (constant-propagation expressions),
// and the §4.2 SCION stage-savings and burst experiments.
//
// Usage:
//
//	flaybench [-only sections] [-full] [-json] [-o FILE] [-gomaxprocs LIST]
//
// Sections: table1, fig1, fig3, fig5, table2, table3, stages, burst,
// batch, warmstart, dd, precision, churn, ablation, scaling, pps,
// cluster. The list is
// generated from the section registry (benchSections) and pinned equal
// to it by TestSectionDocMatchesRegistry; -only takes a comma-separated
// subset ("-only burst,batch"). -full extends Table 3 to 10000
// installed entries (slow in precise mode, as in the paper).
// -json additionally writes a machine-readable report (default
// BENCH_flay.json, override with -o; "-" writes to stdout; an existing
// report file is merged into by section name, so a partial run updates
// only the sections it ran): per-section
// wall times and GOMAXPROCS plus, for the burst section, the engine's
// metrics snapshot, per-update latency quantiles and the audit trail's
// decision tally — each cross-checked exactly against the engine's own
// Statistics. -gomaxprocs "1,4,8,16" re-runs the selected sections at
// each value, merged into the one report (make bench-scaling). The
// scaling section emits the reads-vs-writes multicore curve and fails
// unless wait-free read throughput at GOMAXPROCS=8 beats the seed
// configuration (locked reads, GOMAXPROCS=1) by at least 3x. Any
// verification failure exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"math/rand"

	goflay "repro"
	"repro/internal/bmv2"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/dpexec"
	"repro/internal/devcompiler"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/p4/ast"
	"repro/internal/p4/parser"
	"repro/internal/p4/typecheck"
	"repro/internal/progs"
	"repro/internal/sym"
	"repro/internal/trace"
)

// benchReport is the -json artifact (BENCH_flay.json).
type benchReport struct {
	GOMAXPROCS int              `json:"gomaxprocs"`
	Sections   []sectionReport  `json:"sections"`
	Burst      *burstReport     `json:"burst,omitempty"`
	Warmstart  *warmstartReport `json:"warmstart,omitempty"`
	DD         *ddReport        `json:"dd,omitempty"`
	Precision  *precisionReport `json:"precision,omitempty"`
	Churn      *churnReport     `json:"churn,omitempty"`
	Scaling    *scalingReport   `json:"scaling,omitempty"`
	PPS        *ppsReport       `json:"pps,omitempty"`
	Cluster    *clusterReport   `json:"cluster,omitempty"`
}

type sectionReport struct {
	Name string `json:"name"`
	// GOMAXPROCS the section ran at (the -gomaxprocs sweep runs the
	// selected sections once per value, all merged into this one report).
	GOMAXPROCS int   `json:"gomaxprocs"`
	ElapsedMS  int64 `json:"elapsed_ms"`
}

// burstReport is the observability cross-check: the latency quantiles
// come from the core.update_ns histogram, the decision tally from the
// audit trail, and both must agree exactly with Stats.
type burstReport struct {
	Updates        int            `json:"updates"`
	Forwarded      int            `json:"forwarded"`
	Recompilations int            `json:"recompilations"`
	Rejected       int            `json:"rejected"`
	Decisions      map[string]int `json:"audit_decisions"`
	UpdateP50NS    int64          `json:"update_p50_ns"`
	UpdateP95NS    int64          `json:"update_p95_ns"`
	UpdateP99NS    int64          `json:"update_p99_ns"`
	HistCount      int64          `json:"update_hist_count"`
	Metrics        obs.Snapshot   `json:"metrics"`
}

// warmstartReport records the unchanged-assignment skip on the burst
// workload, plus the snapshot warm-restart comparison. The skip share
// and the restore-equals-rebuild check are verified before the report
// is emitted; a failure exits non-zero.
type warmstartReport struct {
	Updates       int     `json:"updates"`
	Skipped       int     `json:"skipped"`
	BurstMS       int64   `json:"burst_ms"`
	PerUpdateUS   float64 `json:"per_update_us"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	SpecFNV       string  `json:"spec_fnv64a"`
	SnapshotBytes int     `json:"snapshot_bytes"`
	RestoreMS     float64 `json:"restore_ms"`
	FreshMS       float64 `json:"fresh_ms"`
}

// ddReport records the decision-diagram query core's effect on the
// precise query pass: the same burst replayed with the diagram path on
// and off, with the verdict-for-verdict differential and the >= 3x
// query-pass gate verified before the report is emitted.
type ddReport struct {
	Updates      int     `json:"updates"`
	SolverEvalMS int64   `json:"solver_eval_ms"`
	DDEvalMS     int64   `json:"dd_eval_ms"`
	Speedup      float64 `json:"speedup"`
	DDQueries    int64   `json:"dd_queries"`
	DDFallbacks  int64   `json:"dd_fallbacks"`
	DDCompiles   int64   `json:"dd_compiles"`
	DDNodes      int     `json:"dd_nodes"`
}

// precisionReport records the adaptive-precision deadline experiment:
// a 10000-entry ACL burst driven with a per-update latency budget on a
// never-statically-overapproximating engine. The cross-checks (at least
// one degradation, p99 under the budget, zero unsound degraded
// verdicts from both the differential check and promotion) run before
// the report is emitted; a failure exits non-zero.
type precisionReport struct {
	Entries         int   `json:"entries"`
	DeadlineMS      int64 `json:"deadline_ms"`
	Degradations    int   `json:"degradations"`
	Promotions      int   `json:"promotions"`
	DegradedTables  int   `json:"degraded_tables_at_peak"`
	P50NS           int64 `json:"update_p50_ns"`
	P95NS           int64 `json:"update_p95_ns"`
	P99NS           int64 `json:"update_p99_ns"`
	MaxNS           int64 `json:"update_max_ns"`
	BaselineEntries int   `json:"baseline_entries"`
	BaselineP99NS   int64 `json:"baseline_p99_ns"`
	BaselineMaxNS   int64 `json:"baseline_max_ns"`
	DiffChecked     int   `json:"diff_checked"`
	Unsound         int   `json:"unsound"`
	AuditDegrades   int   `json:"audit_degrades"`
	AuditPromotes   int   `json:"audit_promotes"`
}

var rep = &benchReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}

// benchSections is the section registry, in run order. selectSections
// validates -only against it.
var benchSections = []struct {
	name string
	run  func(full bool)
}{
	{"table1", table1},
	{"fig1", fig1},
	{"fig3", fig3},
	{"fig5", fig5},
	{"table2", table2},
	{"table3", table3},
	{"stages", stages},
	{"burst", burst},
	{"batch", batchSection},
	{"warmstart", warmstartSection},
	{"dd", ddSection},
	{"precision", precisionSection},
	{"churn", churnSection},
	{"ablation", ablation},
	{"scaling", scalingSection},
	{"pps", ppsSection},
	{"cluster", clusterSection},
}

func sectionNames() []string {
	names := make([]string, len(benchSections))
	for i, s := range benchSections {
		names[i] = s.name
	}
	return names
}

// selectSections resolves the -only flag against the known section
// names. Empty selects every section (nil map); an unknown name or a
// selection that matches nothing is an error — silently printing
// nothing would make a typo look like a clean run.
func selectSections(only string, known []string) (map[string]bool, error) {
	if only == "" {
		return nil, nil
	}
	k := make(map[string]bool, len(known))
	for _, n := range known {
		k[n] = true
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !k[name] {
			return nil, fmt.Errorf("unknown section %q (have %s)", name, strings.Join(known, "|"))
		}
		want[name] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("-only %q selects no sections", only)
	}
	return want, nil
}

// parseGomaxprocs resolves the -gomaxprocs flag: empty runs one pass at
// the ambient value; a comma-separated list runs the selected sections
// once per value, merged into one report.
func parseGomaxprocs(s string) ([]int, error) {
	if s == "" {
		return []int{runtime.GOMAXPROCS(0)}, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		var g int
		if _, err := fmt.Sscanf(f, "%d", &g); err != nil || g < 1 {
			return nil, fmt.Errorf("bad -gomaxprocs value %q", f)
		}
		out = append(out, g)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-gomaxprocs %q selects no values", s)
	}
	return out, nil
}

func main() {
	only := flag.String("only", "", "comma-separated sections to run ("+strings.Join(sectionNames(), "|")+")")
	full := flag.Bool("full", false, "extend Table 3 to 10000 entries (slow in precise mode)")
	jsonOut := flag.Bool("json", false, "write a machine-readable report (see -o)")
	outPath := flag.String("o", "BENCH_flay.json", `report path for -json ("-" = stdout)`)
	gmp := flag.String("gomaxprocs", "", "comma-separated GOMAXPROCS values to sweep (default: current)")
	flag.Parse()

	want, err := selectSections(*only, sectionNames())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sweep, err := parseGomaxprocs(*gmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ambient := runtime.GOMAXPROCS(0)
	for _, g := range sweep {
		runtime.GOMAXPROCS(g)
		if len(sweep) > 1 {
			fmt.Printf("==== GOMAXPROCS=%d ====\n\n", g)
		}
		for _, s := range benchSections {
			if len(want) > 0 && !want[s.name] {
				continue
			}
			t0 := time.Now()
			s.run(*full)
			rep.Sections = append(rep.Sections, sectionReport{
				Name:       s.name,
				GOMAXPROCS: runtime.GOMAXPROCS(0),
				ElapsedMS:  time.Since(t0).Milliseconds(),
			})
			fmt.Println()
		}
	}
	runtime.GOMAXPROCS(ambient)
	if *jsonOut {
		if err := writeReport(*outPath); err != nil {
			log.Fatal(err)
		}
	}
}

// writeReport writes the -json report. An existing report at path is
// merged into rather than overwritten (mergeReport), so make targets
// that run different section subsets into one file compose.
func writeReport(path string) error {
	out := rep
	if path != "-" {
		old, err := os.ReadFile(path)
		switch {
		case err == nil:
			var prev benchReport
			if err := json.Unmarshal(old, &prev); err != nil {
				return fmt.Errorf("existing report %s: %w", path, err)
			}
			out = mergeReport(&prev, rep)
		case !os.IsNotExist(err):
			return err
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", path)
	return nil
}

// mergeReport folds the sections of cur into prev by section name: each
// section detail cur carries replaces prev's, timing rows of the
// sections cur ran replace prev's rows of the same name, and everything
// else in prev is kept.
func mergeReport(prev, cur *benchReport) *benchReport {
	pv, cv := reflect.ValueOf(prev).Elem(), reflect.ValueOf(cur).Elem()
	for i := 0; i < cv.NumField(); i++ {
		if f := cv.Field(i); f.Kind() == reflect.Pointer && !f.IsNil() {
			pv.Field(i).Set(f)
		}
	}
	ran := make(map[string]bool, len(cur.Sections))
	for _, sec := range cur.Sections {
		ran[sec.Name] = true
	}
	rows := make([]sectionReport, 0, len(prev.Sections)+len(cur.Sections))
	for _, sec := range prev.Sections {
		if !ran[sec.Name] {
			rows = append(rows, sec)
		}
	}
	prev.Sections = append(rows, cur.Sections...)
	prev.GOMAXPROCS = cur.GOMAXPROCS
	return prev
}

func header(title string) {
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

// ---------------------------------------------------------------------------

func table1(bool) {
	header("Table 1: from-scratch device compile times (paper vs modelled)")
	fmt.Printf("%-12s %-8s %8s %10s %12s\n", "program", "target", "paper", "model", "lowering")
	for _, name := range []string{"switch", "scion", "beaucoup", "accturbo", "dta", "middleblock", "dash"} {
		p, err := progs.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		prog, err := parser.Parse(p.Name, p.Source)
		if err != nil {
			log.Fatal(err)
		}
		res, err := devcompiler.New(p.Target).Compile(prog)
		if err != nil {
			log.Fatal(err)
		}
		paper := "-"
		if p.PaperCompileSeconds > 0 {
			paper = fmt.Sprintf("%.0fs", p.PaperCompileSeconds)
		}
		fmt.Printf("%-12s %-8s %8s %9.1fs %12v\n",
			p.Name, p.Target, paper, res.ModelSeconds, res.Elapsed.Round(10*time.Microsecond))
	}
	fmt.Println("\n(absolute seconds are a calibrated cost model; the shape — switch >>")
	fmt.Println("scion >> accturbo > dta > beaucoup >> bmv2 targets — is structural)")
}

// ---------------------------------------------------------------------------

func fig1(bool) {
	header("Fig. 1: rate of change of network program inputs")
	span := 24 * time.Hour
	events := trace.Generate(span, trace.Profile{})
	fmt.Printf("trace span %v, %d control-plane events\n\n", span, len(events))
	fmt.Println("  data-plane source   ~days..weeks (out of scope: recompilation via goflay)")
	for _, s := range trace.Summarize(events, span) {
		fmt.Printf("  %s\n", s)
	}
	fmt.Println("  packets             nanoseconds  (never specialized on: traffic profile)")
}

// ---------------------------------------------------------------------------

func fig3(bool) {
	header("Fig. 3: one table's implementation across five control-plane updates")
	p := progs.Fig3()
	pipe, err := goflay.Open(p.Name, p.Source)
	if err != nil {
		log.Fatal(err)
	}
	describe := func() string {
		prog := pipe.SpecializedProgram()
		cd := prog.Control("Ingress")
		tb := cd.Table("eth_table")
		switch {
		case tb == nil && strings.Contains(goflaySource(pipe), "hdr.eth.type ="):
			return "table inlined to an assignment"
		case tb == nil:
			return "table removed entirely (impl. A)"
		default:
			acts := make([]string, len(tb.Actions))
			for i, a := range tb.Actions {
				acts[i] = a.Name
			}
			return fmt.Sprintf("%s match, actions {%s}", tb.Keys[0].Match, strings.Join(acts, ", "))
		}
	}
	fmt.Printf("(1) initial, empty table:        %s\n", describe())
	labels := []string{
		"(2) insert [0x1 &&& 0x0]->set",
		"(3a) delete that entry",
		"(3b) insert [0x2 &&& full]->set",
		"(4) insert [0x5 &&& 0x8]->set",
		"(5) insert [0x6 &&& 0x7]->set",
	}
	for i, u := range progs.Fig3Updates() {
		d := pipe.Apply(u)
		fmt.Printf("%-33s decision=%-9s impl: %s\n", labels[i]+":", d.Kind, describe())
	}
}

func goflaySource(pipe *goflay.Pipeline) string { return pipe.SpecializedSource() }

// ---------------------------------------------------------------------------

func fig5(bool) {
	header("Fig. 5: the symbolic value of egress_port under three configurations")
	p := progs.Fig5()
	prog, err := parser.Parse(p.Name, p.Source)
	if err != nil {
		log.Fatal(err)
	}
	info, err := typecheck.Check(prog)
	if err != nil {
		log.Fatal(err)
	}
	an, err := dataplane.Analyze(prog, info, dataplane.Options{})
	if err != nil {
		log.Fatal(err)
	}
	b := an.Builder
	egress := an.Final["std.egress_port"]
	fmt.Printf("block A (general data-plane model):\n  egress_port = %s\n\n", egress)

	cfg := controlplane.NewConfig(an)
	env, _, err := cfg.CompileEnv(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block B (initial configuration: empty table):\n  egress_port = %s\n\n", b.Subst(egress, env))

	if err := cfg.Apply(progs.Fig5Entry()); err != nil {
		log.Fatal(err)
	}
	env, _, err = cfg.CompileEnv(b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("block C (insert [0xDEADBEEFF00D] -> set(0x01)):\n  egress_port = %s\n", b.Subst(egress, env))
}

// ---------------------------------------------------------------------------

func table2(bool) {
	header("Table 2: per-program analysis and update times (paper vs measured)")
	fmt.Printf("%-12s %10s %10s | %10s %10s | %12s %12s | %12s %10s\n",
		"program", "stmts", "(paper)", "compile", "(paper)", "dp-analysis", "(paper)", "update", "(paper)")
	for _, name := range []string{"scion", "switch", "middleblock", "dash"} {
		p, err := progs.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		prog, err := parser.Parse(p.Name, p.Source)
		if err != nil {
			log.Fatal(err)
		}
		res, err := devcompiler.New(p.Target).Compile(prog)
		if err != nil {
			log.Fatal(err)
		}

		s, err := p.Load()
		if err != nil {
			log.Fatal(err)
		}
		if err := p.ApplyRepresentative(s); err != nil {
			log.Fatal(err)
		}
		// One further update, timed: the paper's "update analysis time".
		var probe *controlplane.Update
		if name == "middleblock" {
			probe = progs.MiddleblockACLEntry(1000)
		} else if name == "scion" {
			probe = progs.ScionBurstEntry(5000)
		} else {
			probe = genericProbe(s, p.BurstTable)
		}
		d := s.Apply(probe)
		if d.Kind == core.Rejected {
			log.Fatalf("%s probe rejected: %v", name, d.Err)
		}
		st := s.Statistics()
		fmt.Printf("%-12s %10d %10d | %9.1fs %10s | %12v %12s | %12v %10s\n",
			p.Name, res.Statements, p.PaperStatements,
			res.ModelSeconds, fmt.Sprintf("%.0fs", p.PaperCompileSeconds),
			st.AnalysisTime.Round(time.Millisecond), p.PaperAnalysis,
			d.Elapsed.Round(10*time.Microsecond), p.PaperUpdate)
	}
	fmt.Println("\n(dp-analysis runs once; updates touch only tainted points — and stay")
	fmt.Println("milliseconds-class regardless of program size, the paper's key claim)")
}

func genericProbe(s *core.Specializer, table string) *controlplane.Update {
	ti := s.An.Tables[table]
	e := &controlplane.TableEntry{Priority: 999999}
	for i, w := range ti.KeyWidths {
		m := controlplane.FieldMatch{Kind: ti.KeyMatch[i], Value: sym.NewBV(w, uint64(0xF0F0)%((uint64(1)<<min(w, 60))-1))}
		switch ti.KeyMatch[i] {
		case controlplane.MatchTernary:
			m.Mask = sym.AllOnes(w)
		case controlplane.MatchLPM:
			m.PrefixLen = int(w)
		}
		e.Matches = append(e.Matches, m)
	}
	for _, ai := range ti.Actions {
		if ai.Name == "NoAction" {
			continue
		}
		e.Action = ai.Name
		for _, pw := range ai.ParamWidths {
			e.Params = append(e.Params, sym.NewBV(pw, 1))
		}
		break
	}
	return &controlplane.Update{Kind: controlplane.InsertEntry, Table: table, Entry: e}
}

func min(a uint16, b uint16) uint16 {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------

func table3(full bool) {
	header("Table 3: update analysis time vs installed Pre-Ingress ACL entries")
	sizes := []int{1, 10, 100, 1000}
	if full {
		sizes = append(sizes, 10000)
	}
	fmt.Printf("%-10s | %-14s | %-14s | %s\n", "installed", "precise", "overapprox", "paper (precise / overapprox)")
	paper := map[int]string{
		1: "~1ms / -", 10: "~5ms / -", 100: "~100ms / ~1ms",
		1000: "~4000ms / ~1ms", 10000: "~265319ms / ~1ms",
	}
	for _, n := range sizes {
		precise := table3Measure(n, -1)
		approx := table3Measure(n, controlplane.DefaultOverapproxThreshold)
		fmt.Printf("%-10d | %-14v | %-14v | %s\n", n, precise, approx, paper[n])
	}
	if !full {
		fmt.Println("(run with -full for the 10000-entry row; precise mode is slow by design)")
	}
}

func table3Measure(n, threshold int) time.Duration {
	p := progs.Middleblock()
	s, err := p.LoadWith(core.Options{OverapproxThreshold: threshold})
	if err != nil {
		log.Fatal(err)
	}
	// Initialize the table with n entries (not timed), per the paper's
	// methodology, then time a single further update.
	batch := make([]*controlplane.Update, n)
	for i := range batch {
		batch[i] = progs.MiddleblockACLEntry(i)
	}
	if err := s.Preload(batch); err != nil {
		log.Fatal(err)
	}
	d := s.Apply(progs.MiddleblockACLEntry(n))
	if d.Kind == core.Rejected {
		log.Fatal(d.Err)
	}
	return d.Elapsed.Round(10 * time.Microsecond)
}

// ---------------------------------------------------------------------------

func stages(bool) {
	header("§4.2: SCION stage savings on the Tofino-2 model")
	p := progs.Scion()
	pipe, err := goflay.Open(p.Name, p.Source, goflay.WithTarget(goflay.TargetTofino))
	if err != nil {
		log.Fatal(err)
	}
	full, err := pipe.CompileOriginal()
	if err != nil {
		log.Fatal(err)
	}
	for _, u := range p.Representative() {
		pipe.Apply(u)
	}
	spec, err := pipe.Compile()
	if err != nil {
		log.Fatal(err)
	}
	for _, u := range p.IPv6Enable() {
		pipe.Apply(u)
	}
	after, err := pipe.Compile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unspecialized:            %s\n", full)
	fmt.Printf("specialized (no IPv6):    %s\n", spec)
	fmt.Printf("after IPv6-enable batch:  %s\n", after)
	fmt.Printf("\nsavings: %d -> %d stages (%.0f%%; paper: 20%% fewer), restored to %d after IPv6\n",
		full.Stages, spec.Stages,
		100*float64(full.Stages-spec.Stages)/float64(full.Stages), after.Stages)
}

// ---------------------------------------------------------------------------

// burst runs with the full observability layer enabled — metrics
// registry and audit trail — and then proves the layer's accounting
// against the engine's own Statistics: the audit trail's decision
// tally and the update-latency histogram's population must match the
// engine counters exactly. A mismatch is a bug in the observability
// layer and exits non-zero.
func burst(bool) {
	header("§4.2: burst of 1000 fuzzer-generated IPv4 entries (SCION)")
	p := progs.Scion()
	reg := obs.NewRegistry()
	trail := obs.NewTrail(0)
	s, err := p.LoadWith(core.Options{Metrics: reg, Audit: trail})
	if err != nil {
		log.Fatal(err)
	}
	if err := p.ApplyRepresentative(s); err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	forwarded, recompiled := 0, 0
	for i := 0; i < 1000; i++ {
		switch s.Apply(progs.ScionBurstEntry(i)).Kind {
		case core.Forward:
			forwarded++
		case core.Recompile:
			recompiled++
		default:
			log.Fatalf("burst entry %d rejected", i)
		}
	}
	el := time.Since(t0)
	fmt.Printf("1000 updates in %v (%v/update): %d forwarded, %d recompiled\n",
		el.Round(time.Millisecond), (el / 1000).Round(time.Microsecond), forwarded, recompiled)

	st := s.Statistics()
	hist := reg.Histogram("core.update_ns").Snapshot()
	decisions := trail.CountByDecision()
	fmt.Printf("\nobservability cross-check (%d updates total incl. representative config):\n", st.Updates)
	fmt.Printf("  update latency p50=%v p95=%v p99=%v\n",
		time.Duration(hist.P50).Round(time.Microsecond),
		time.Duration(hist.P95).Round(time.Microsecond),
		time.Duration(hist.P99).Round(time.Microsecond))
	fmt.Printf("  audit trail: %d forward, %d recompile, %d rejected\n",
		decisions["forward"], decisions["recompile"], decisions["rejected"])

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "burst verification failed: "+format+"\n", args...)
		os.Exit(1)
	}
	if trail.Total() != int64(st.Updates) {
		fail("audit trail holds %d records, engine processed %d updates", trail.Total(), st.Updates)
	}
	if decisions["forward"] != st.Forwarded || decisions["recompile"] != st.Recompilations || decisions["rejected"] != st.Rejected {
		fail("audit tally %v, engine counters forwarded=%d recompiled=%d rejected=%d",
			decisions, st.Forwarded, st.Recompilations, st.Rejected)
	}
	if hist.Count != int64(st.Updates) {
		fail("latency histogram holds %d samples, engine processed %d updates", hist.Count, st.Updates)
	}
	if got := reg.Counter("core.updates").Value(); got != int64(st.Updates) {
		fail("core.updates counter %d, engine processed %d", got, st.Updates)
	}
	fmt.Println("  cross-check: metrics, histogram and audit trail agree with Statistics")

	rep.Burst = &burstReport{
		Updates:        st.Updates,
		Forwarded:      st.Forwarded,
		Recompilations: st.Recompilations,
		Rejected:       st.Rejected,
		Decisions:      decisions,
		UpdateP50NS:    hist.P50,
		UpdateP95NS:    hist.P95,
		UpdateP99NS:    hist.P99,
		HistCount:      hist.Count,
		Metrics:        reg.Snapshot(),
	}
	fmt.Println("\n(the batch is recognised as semantics-preserving; past the 100-entry")
	fmt.Println("threshold the table is overapproximated and updates become ~constant-time)")
}

// ---------------------------------------------------------------------------

// batchSection compares the sequential per-update engine with the
// coalescing parallel batch engine on the same SCION burst, and
// verifies the two end in byte-identical specialized programs.
func batchSection(bool) {
	header("Batch engine: sequential Apply vs coalesced ApplyBatch (SCION burst)")
	p := progs.Scion()
	load := func(workers int) *core.Specializer {
		s, err := p.LoadWith(core.Options{Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		if err := p.ApplyRepresentative(s); err != nil {
			log.Fatal(err)
		}
		return s
	}
	batch := make([]*controlplane.Update, 1000)
	for i := range batch {
		batch[i] = progs.ScionBurstEntry(i)
	}

	seq := load(1)
	t0 := time.Now()
	for i, u := range batch {
		if seq.Apply(u).Kind == core.Rejected {
			log.Fatalf("burst entry %d rejected", i)
		}
	}
	seqTime := time.Since(t0)

	bat := load(0)
	t0 = time.Now()
	for i, d := range bat.ApplyBatch(batch) {
		if d.Kind == core.Rejected {
			log.Fatalf("batched entry %d rejected", i)
		}
	}
	batTime := time.Since(t0)

	fmt.Printf("sequential: 1000 × Apply      %12v  (%v/update)\n",
		seqTime.Round(time.Millisecond), (seqTime / 1000).Round(time.Microsecond))
	st := bat.Statistics()
	workers := st.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("batched:    1 × ApplyBatch    %12v  (%v/update, %d eval passes coalesced, %d workers)\n",
		batTime.Round(time.Millisecond), (batTime / 1000).Round(time.Microsecond), st.Coalesced, workers)
	fmt.Printf("speedup:    %.1f×\n", float64(seqTime)/float64(batTime))
	if goflaySpec(seq) != goflaySpec(bat) {
		log.Fatal("batched and sequential specialized programs diverged")
	}
	fmt.Println("\n(end states verified byte-identical; the batch engine recompiles each")
	fmt.Println("touched assignment once and re-evaluates the union of tainted points in")
	fmt.Println("a single parallel pass instead of per update)")
}

func goflaySpec(s *core.Specializer) string { return ast.Print(s.SpecializedProgram()) }

// ---------------------------------------------------------------------------

// warmstartSection measures the unchanged-assignment skip on the
// Fig. 1-style SCION burst: representative config + 1000 fuzzer
// entries. Past the overapproximation threshold the burst table's
// compiled assignment stops changing, so the engine re-evaluates none
// of its points; the section counts the burst updates that re-evaluated
// no point and gates that share at >= 50%. It then snapshots the engine
// and checks that a warm restore equals a rebuild from source.
func warmstartSection(bool) {
	header("Warm start: unchanged-assignment skip + snapshot restore (SCION burst)")
	p := progs.Scion()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "warmstart verification failed: "+format+"\n", args...)
		os.Exit(1)
	}
	const updates = 1000
	load := func(reg *obs.Registry) *core.Specializer {
		s, err := p.LoadWith(core.Options{Metrics: reg})
		if err != nil {
			log.Fatal(err)
		}
		if err := p.ApplyRepresentative(s); err != nil {
			log.Fatal(err)
		}
		return s
	}
	reg := obs.NewRegistry()
	evaluated := reg.Counter("core.points_evaluated")
	s := load(reg)
	st0 := s.Statistics()
	skipped := 0
	var burstTime time.Duration
	for i := 0; i < updates; i++ {
		before := evaluated.Value()
		t0 := time.Now()
		d := s.Apply(progs.ScionBurstEntry(i))
		burstTime += time.Since(t0)
		if d.Kind == core.Rejected {
			log.Fatalf("burst entry %d rejected", i)
		}
		if evaluated.Value() == before {
			skipped++
		}
	}
	st := s.Statistics()
	hits, misses := st.CacheHits-st0.CacheHits, st.CacheMisses-st0.CacheMisses
	spec := goflaySpec(s)
	h := fnv.New64a()
	h.Write([]byte(spec))
	specFNV := fmt.Sprintf("%016x", h.Sum64())
	fmt.Printf("burst:      %d × Apply      %12v  (%v/update)\n", updates,
		burstTime.Round(time.Millisecond), (burstTime / updates).Round(time.Microsecond))
	fmt.Printf("skipped:    %d of %d updates re-evaluated no point\n", skipped, updates)
	fmt.Printf("queries:    %d tainted points answered without a query, %d queries run\n", hits, misses)
	fmt.Printf("program:    specialized source fnv64a %s\n", specFNV)
	if 2*skipped < updates {
		fail("only %d of %d burst updates skipped re-evaluation (gate: >= 50%%)", skipped, updates)
	}

	// Warm start: snapshot the engine, then compare restoring it against
	// rebuilding the same state from source.
	snap, err := s.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	restored, err := core.Restore(snap, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	restoreTime := time.Since(t0)
	t0 = time.Now()
	fresh := load(nil)
	for i := 0; i < updates; i++ {
		if fresh.Apply(progs.ScionBurstEntry(i)).Kind == core.Rejected {
			log.Fatalf("burst entry %d rejected", i)
		}
	}
	freshTime := time.Since(t0)
	if goflaySpec(restored) != goflaySpec(fresh) || goflaySpec(fresh) != spec {
		fail("restored, rebuilt and snapshotted specialized programs diverged")
	}
	fmt.Printf("\nsnapshot:   %d bytes\n", len(snap))
	fmt.Printf("restore:    %12v  (vs %v rebuilding from source, %.1f×)\n",
		restoreTime.Round(time.Microsecond), freshTime.Round(time.Millisecond),
		float64(freshTime)/float64(restoreTime))
	fmt.Println("cross-check: skip share above the 50% bar; restore equals rebuild")

	rep.Warmstart = &warmstartReport{
		Updates:       updates,
		Skipped:       skipped,
		BurstMS:       burstTime.Milliseconds(),
		PerUpdateUS:   float64(burstTime.Microseconds()) / updates,
		Hits:          hits,
		Misses:        misses,
		SpecFNV:       specFNV,
		SnapshotBytes: len(snap),
		RestoreMS:     float64(restoreTime.Microseconds()) / 1000,
		FreshMS:       float64(freshTime.Microseconds()) / 1000,
	}
	fmt.Println("\n(past the overapproximation threshold the burst table compiles to the")
	fmt.Println("same hash-consed assignment, so the taint map still routes each update")
	fmt.Println("to its points but none of them needs a query)")
}

// ---------------------------------------------------------------------------

// ddSection measures the decision-diagram query core against the probe
// solver on a precise-mode ACL burst, where every insert changes the
// table's assignment, so every tainted point re-evaluation runs a real
// specialization query. The diagram arm compiles each point's residue once and answers
// subsequent queries by walking the canonical diagram; the solver arm
// substitutes and probes per query. The section verifies the two arms
// verdict-for-verdict and byte-identical on the specialized program,
// then gates the query-pass (EvalTime) speedup at >= 3x.
func ddSection(bool) {
	header("Decision diagrams: compiled residues vs per-query solver probes (middleblock ACL, precise mode)")
	p := progs.Middleblock()
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dd verification failed: "+format+"\n", args...)
		os.Exit(1)
	}
	// Precise mode (no overapproximation) on a growing ACL is the
	// query shape the diagram core exists for: every installed entry
	// re-evaluates match-conjunction residues whose satisfying
	// assignments the probe solver hunts across a >100-bit space,
	// while the diagram answers from compiled roots and memoized
	// re-compiles.
	const updates = 250
	run := func(noDD bool) *core.Specializer {
		s, err := p.LoadWith(core.Options{NoDD: noDD, OverapproxThreshold: -1})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < updates; i++ {
			if d := s.Apply(progs.MiddleblockACLEntry(i)); d.Kind == core.Rejected {
				log.Fatalf("ACL entry %d rejected: %v", i, d.Err)
			}
		}
		return s
	}

	solver := run(true)
	ddEng := run(false)
	sst, dst := solver.Statistics(), ddEng.Statistics()
	if dst.DDQueries == 0 {
		fail("diagram engine answered no queries on the diagram path")
	}
	if sst.DDQueries != 0 || sst.DDNodes != 0 {
		fail("NoDD engine reported diagram activity: %+v", sst)
	}
	for id := 0; id < sst.Points; id++ {
		sv, dv := solver.Verdict(id), ddEng.Verdict(id)
		if sv.Kind != dv.Kind || sv.Val != dv.Val {
			fail("point %d: solver says %s, diagram says %s", id, sv, dv)
		}
	}
	if goflaySpec(solver) != goflaySpec(ddEng) {
		fail("diagram and solver specialized programs diverged")
	}

	speedup := float64(sst.EvalTime) / float64(dst.EvalTime)
	fmt.Printf("solver:   %d × Apply  query pass %12v  (%v/update)\n",
		updates, sst.EvalTime.Round(time.Millisecond), (sst.EvalTime / updates).Round(time.Microsecond))
	fmt.Printf("diagram:  %d × Apply  query pass %12v  (%v/update)\n",
		updates, dst.EvalTime.Round(time.Millisecond), (dst.EvalTime / updates).Round(time.Microsecond))
	fmt.Printf("speedup:  %.1f×\n", speedup)
	fmt.Printf("\ndd queries=%d fallbacks=%d compiles=%d nodes=%d\n",
		dst.DDQueries, dst.DDFallbacks, dst.DDCompiles, dst.DDNodes)
	fmt.Println("cross-check: verdicts identical point-for-point, end states byte-identical")
	if speedup < 3.0 {
		fail("query-pass speedup %.2fx is below the 3x acceptance bar", speedup)
	}

	rep.DD = &ddReport{
		Updates:      updates,
		SolverEvalMS: sst.EvalTime.Milliseconds(),
		DDEvalMS:     dst.EvalTime.Milliseconds(),
		Speedup:      speedup,
		DDQueries:    dst.DDQueries,
		DDFallbacks:  dst.DDFallbacks,
		DDCompiles:   dst.DDCompiles,
		DDNodes:      dst.DDNodes,
	}
	fmt.Println("\n(each point's residual condition compiles into the shared canonical")
	fmt.Println("diagram exactly once per assignment epoch; a query is then a")
	fmt.Println("root-to-terminal walk instead of substitution plus solver probes)")
}

// ---------------------------------------------------------------------------

// precisionSection exercises the adaptive precision controller on the
// paper's worst-case workload (Table 3): the middleblock Pre-Ingress
// ACL with static overapproximation disabled, so precise update cost
// grows linearly with installed entries. A 10000-entry burst driven
// with a 50ms per-update budget must keep p99 under the budget by
// degrading the table mid-flight — soundly, which the differential
// check and a final promotion both verify (zero unsound degraded
// verdicts). A short no-deadline baseline shows the latency growth the
// controller is defending against.
func precisionSection(bool) {
	header("Adaptive precision: 10000-entry ACL burst under a 50ms deadline (middleblock)")
	const (
		entries  = 10000
		baseline = 300 // no-deadline arm, truncated: precise cost is O(entries) per update
		budget   = 50 * time.Millisecond
	)
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "precision verification failed: "+format+"\n", args...)
		os.Exit(1)
	}
	quantile := func(sorted []time.Duration, q float64) time.Duration {
		if len(sorted) == 0 {
			return 0
		}
		return sorted[int(q*float64(len(sorted)-1)+0.5)]
	}
	p := progs.Middleblock()
	opts := func(reg *obs.Registry, trail *obs.Trail) core.Options {
		return core.Options{
			OverapproxThreshold: -1, // never overapproximate statically
			RepairInterval:      -1, // no background repair: promotion is explicit below
			Metrics:             reg, Audit: trail,
		}
	}

	// Baseline arm: no deadline, precise forever. Truncated to
	// `baseline` entries — the full 10k precise run is the quadratic
	// blowup this section exists to avoid.
	base, err := p.LoadWith(opts(nil, nil))
	if err != nil {
		log.Fatal(err)
	}
	baseLat := make([]time.Duration, 0, baseline)
	for i := 0; i < baseline; i++ {
		d := base.Apply(progs.MiddleblockACLEntry(i))
		if d.Kind == core.Rejected {
			log.Fatalf("baseline entry %d rejected: %v", i, d.Err)
		}
		baseLat = append(baseLat, d.Elapsed)
	}
	sortDurations(baseLat)
	basep99, basemax := quantile(baseLat, 0.99), baseLat[len(baseLat)-1]
	fmt.Printf("no deadline (first %d entries, precise): p99=%v max=%v — unbounded growth\n",
		baseline, basep99.Round(10*time.Microsecond), basemax.Round(10*time.Microsecond))

	// Deadline arm: the full burst, each update under a 50ms budget.
	reg := obs.NewRegistry()
	trail := obs.NewTrail(0)
	s, err := p.LoadWith(opts(reg, trail))
	if err != nil {
		log.Fatal(err)
	}
	lat := make([]time.Duration, 0, entries)
	degradedVerdicts := 0
	t0 := time.Now()
	for i := 0; i < entries; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		d := s.ApplyCtx(ctx, progs.MiddleblockACLEntry(i))
		cancel()
		if d.Kind == core.Rejected {
			log.Fatalf("deadline entry %d rejected: %v", i, d.Err)
		}
		if d.Degraded {
			degradedVerdicts++
		}
		lat = append(lat, d.Elapsed)
	}
	el := time.Since(t0)
	st := s.Statistics()
	peakDegraded := st.DegradedTables
	sortDurations(lat)
	p50, p95, p99 := quantile(lat, 0.50), quantile(lat, 0.95), quantile(lat, 0.99)
	max := lat[len(lat)-1]
	fmt.Printf("50ms deadline (%d entries):             p50=%v p95=%v p99=%v max=%v (%v total)\n",
		entries, p50.Round(time.Microsecond), p95.Round(time.Microsecond),
		p99.Round(10*time.Microsecond), max.Round(10*time.Microsecond), el.Round(time.Millisecond))
	fmt.Printf("degradations=%d degraded_tables=%d degraded_verdicts=%d (%.1f%% of burst)\n",
		st.Degradations, peakDegraded, degradedVerdicts, 100*float64(degradedVerdicts)/entries)

	// Soundness: every degraded verdict re-run precisely must agree
	// (conservative flips allowed, unsound ones counted — must be zero),
	// both via the background differential check and a full promotion.
	checked, unsound, err := s.DifferentialCheck()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("differential check: %d degraded verdicts re-run precisely, %d unsound\n", checked, unsound)
	promoteUnsound, err := s.PromoteAll()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("promotion: all tables restored to precise, %d unsound flips\n", promoteUnsound)

	decisions := trail.CountByDecision()
	if st.Degradations < 1 {
		fail("no degradations on a %d-entry precise burst under a %v budget", entries, budget)
	}
	if p99 >= budget {
		fail("p99 %v did not stay under the %v budget", p99, budget)
	}
	if unsound != 0 || promoteUnsound != 0 {
		fail("unsound degraded verdicts: differential=%d promotion=%d (must be zero)", unsound, promoteUnsound)
	}
	if checked == 0 {
		fail("differential check examined no points despite %d degradations", st.Degradations)
	}
	if decisions["degrade"] < 1 || decisions["promote"] < 1 {
		fail("audit trail tally %v lacks degrade/promote records", decisions)
	}
	if got := reg.Counter("core.degradations").Value(); got != int64(st.Degradations) {
		fail("core.degradations counter %d, engine stats %d", got, st.Degradations)
	}
	if len(s.DegradedTables()) != 0 {
		fail("tables still degraded after PromoteAll: %v", s.DegradedTables())
	}
	fmt.Println("cross-check: p99 under budget, audit + metrics agree, zero unsound verdicts")

	rep.Precision = &precisionReport{
		Entries:         entries,
		DeadlineMS:      budget.Milliseconds(),
		Degradations:    st.Degradations,
		Promotions:      s.Statistics().Promotions,
		DegradedTables:  peakDegraded,
		P50NS:           p50.Nanoseconds(),
		P95NS:           p95.Nanoseconds(),
		P99NS:           p99.Nanoseconds(),
		MaxNS:           max.Nanoseconds(),
		BaselineEntries: baseline,
		BaselineP99NS:   basep99.Nanoseconds(),
		BaselineMaxNS:   basemax.Nanoseconds(),
		DiffChecked:     checked,
		Unsound:         unsound + promoteUnsound,
		AuditDegrades:   decisions["degrade"],
		AuditPromotes:   decisions["promote"],
	}
	fmt.Println("\n(the controller degrades the ACL to the overapproximated assignment the")
	fmt.Println("moment its EWMA cost projection no longer fits the budget, so the burst")
	fmt.Println("stays milliseconds-class; promotion restores full precision afterwards)")
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}

// ---------------------------------------------------------------------------

// churnReport records the trace-driven churn section: per program ×
// pattern latency quantiles and throughput, with the pattern's
// steady-state invariant and the engine's accounting verified before
// the report is emitted.
type churnReport struct {
	Updates int        `json:"updates_per_pattern"`
	Rows    []churnRow `json:"rows"`
}

type churnRow struct {
	Program       string  `json:"program"`
	Pattern       string  `json:"pattern"`
	Batches       int     `json:"batches"`
	LiveEntries   int     `json:"live_entries"`
	P50NS         int64   `json:"update_p50_ns"`
	P95NS         int64   `json:"update_p95_ns"`
	P99NS         int64   `json:"update_p99_ns"`
	UpdatesPerSec float64 `json:"updates_per_sec"`
}

// churnSection replays every trace-driven churn pattern against the
// production-shaped programs, batched the way a controller would push
// it. Each cell cross-checks the engine's accounting (exact update
// count, zero rejections, the pattern's declared steady-state entry
// count) and any violation exits non-zero. The soak tier
// (make soak-churn) runs the same patterns orders of magnitude longer
// through flayd.
func churnSection(bool) {
	header("Churn: trace-driven update patterns on the production-shaped programs")
	const n = 240
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "churn verification failed: "+format+"\n", args...)
		os.Exit(1)
	}
	quantile := func(sorted []time.Duration, q float64) time.Duration {
		if len(sorted) == 0 {
			return 0
		}
		return sorted[int(q*float64(len(sorted)-1)+0.5)]
	}
	fmt.Printf("%-11s %-12s %8s %8s | %10s %10s %10s | %10s\n",
		"program", "pattern", "updates", "batches", "p50", "p95", "p99", "upd/s")
	report := &churnReport{Updates: n}
	for _, name := range []string{"nat44", "l4lb", "tunnelterm"} {
		p, err := progs.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		for _, kind := range fuzz.PatternKinds() {
			s, err := p.LoadWith(core.Options{})
			if err != nil {
				log.Fatal(err)
			}
			if err := p.ApplyRepresentative(s); err != nil {
				log.Fatal(err)
			}
			before := s.Cfg.NumEntries(p.BurstTable)
			beforeUpdates := s.Statistics().Updates
			cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
				Kind: kind, Table: p.BurstTable, Updates: n, Seed: 1,
			})
			if err != nil {
				log.Fatal(err)
			}
			batches := cs.Batches()
			lat := make([]time.Duration, 0, n)
			t0 := time.Now()
			for _, batch := range batches {
				for i, d := range s.ApplyBatch(batch) {
					if d.Kind == core.Rejected {
						fail("%s/%s: update %s rejected: %v", name, kind, batch[i], d.Err)
					}
					lat = append(lat, d.Elapsed)
				}
			}
			el := time.Since(t0)

			st := s.Statistics()
			if got := st.Updates - beforeUpdates; got != n {
				fail("%s/%s: engine processed %d churn updates, want %d", name, kind, got, n)
			}
			if st.Rejected != 0 {
				fail("%s/%s: %d rejections", name, kind, st.Rejected)
			}
			live := s.Cfg.NumEntries(p.BurstTable) - before
			if err := cs.CheckInvariant(live); err != nil {
				fail("%v", err)
			}
			sortDurations(lat)
			p50, p95, p99 := quantile(lat, 0.50), quantile(lat, 0.95), quantile(lat, 0.99)
			ups := float64(n) / el.Seconds()
			fmt.Printf("%-11s %-12s %8d %8d | %10v %10v %10v | %10.0f\n",
				name, kind, n, len(batches),
				p50.Round(time.Microsecond), p95.Round(time.Microsecond),
				p99.Round(time.Microsecond), ups)
			report.Rows = append(report.Rows, churnRow{
				Program: name, Pattern: kind.String(),
				Batches: len(batches), LiveEntries: live,
				P50NS: p50.Nanoseconds(), P95NS: p95.Nanoseconds(), P99NS: p99.Nanoseconds(),
				UpdatesPerSec: ups,
			})
		}
	}
	rep.Churn = report
	fmt.Println("\ncross-check: per-cell update counts, zero rejections, and each")
	fmt.Println("pattern's steady-state entry invariant verified against the engine")
	fmt.Println("\n(diurnal/flap streams end where they began; acl-rollout only grows;")
	fmt.Println("gc retains a small working set — the engine must track all of it exactly)")
}

// ---------------------------------------------------------------------------

// ablation explores the paper's §6 future-work axis: the tradeoff
// between recompilation frequency and specialization quality, measured
// on the SCION representative-config + burst workload.
func ablation(bool) {
	header("Ablation (§6): specialization quality vs recompilation frequency")
	fmt.Printf("%-14s | %12s | %8s | %6s | %6s | %8s\n",
		"quality", "recompiles", "forwards", "stages", "tcam", "mean-upd")
	for _, q := range []core.Quality{core.QualityFull, core.QualityNoNarrowing, core.QualityDCEOnly, core.QualityNone} {
		p := progs.Scion()
		s, err := p.LoadWith(core.Options{Quality: q})
		if err != nil {
			log.Fatal(err)
		}
		for _, u := range p.Representative() {
			if d := s.Apply(u); d.Kind == core.Rejected {
				log.Fatal(d.Err)
			}
		}
		for i := 0; i < 200; i++ {
			if d := s.Apply(progs.ScionBurstEntry(i)); d.Kind == core.Rejected {
				log.Fatal("burst entry rejected")
			}
		}
		res, err := devcompiler.New(devcompiler.TargetTofino).Compile(s.SpecializedProgram())
		if err != nil {
			log.Fatal(err)
		}
		st := s.Statistics()
		mean := time.Duration(0)
		if st.Updates > 0 {
			mean = st.UpdateTime / time.Duration(st.Updates)
		}
		fmt.Printf("%-14s | %12d | %8d | %3d/%2d | %6d | %8v\n",
			q, st.Recompilations, st.Forwarded,
			res.Allocation.StagesUsed, res.Allocation.Device.Stages,
			res.Allocation.TCAMBlocks, mean.Round(10*time.Microsecond))
	}
	// The recompilation axis shows up under mask churn (the Fig. 3
	// pattern): alternating full- and partial-mask entries repeatedly
	// flip a narrowed implementation back and forth.
	fmt.Println("\nmask-churn workload (fig3 table, 40 alternating-mask inserts):")
	fmt.Printf("%-14s | %12s | %8s\n", "quality", "recompiles", "forwards")
	for _, q := range []core.Quality{core.QualityFull, core.QualityNoNarrowing, core.QualityDCEOnly, core.QualityNone} {
		p3 := progs.Fig3()
		s, err := p3.LoadWith(core.Options{Quality: q})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			mask := uint64(0xFFFFFFFFFFFF)
			if i%4 == 3 {
				mask = 0xFFFFFFFFFFF0 // every 4th entry is partially masked
			}
			e := &controlplane.TableEntry{
				Priority: i,
				Matches: []controlplane.FieldMatch{{
					Kind: controlplane.MatchTernary, Value: sym.NewBV(48, uint64(0x1000+i)), Mask: sym.NewBV(48, mask),
				}},
				Action: "set", Params: []sym.BV{sym.NewBV(16, uint64(i))},
			}
			kind := controlplane.InsertEntry
			u := &controlplane.Update{Kind: kind, Table: "Ingress.eth_table", Entry: e}
			if d := s.Apply(u); d.Kind == core.Rejected {
				log.Fatal(d.Err)
			}
			if i%4 == 3 {
				// Remove the masked entry again: with narrowing enabled
				// this forces exact→ternary→exact flapping.
				u := &controlplane.Update{Kind: controlplane.DeleteEntry, Table: "Ingress.eth_table", Entry: e}
				if d := s.Apply(u); d.Kind == core.Rejected {
					log.Fatal(d.Err)
				}
			}
		}
		st := s.Statistics()
		fmt.Printf("%-14s | %12d | %8d\n", q, st.Recompilations, st.Forwarded)
	}
	fmt.Println("\nlower quality trades resource savings (more stages/TCAM used) for")
	fmt.Println("stability (fewer recompilations and cheaper updates) — the tradeoff")
	fmt.Println("space the paper proposes exploring with Flay as the vehicle.")
}

// ---------------------------------------------------------------------------

// scalingCell is one point on the reads-vs-writes scaling curve.
type scalingCell struct {
	// Mode is "lockfree" (the epoch read path) or "locked" (the
	// Options.LockedReads ablation — the seed engine's RWMutex path).
	Mode       string  `json:"mode"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Readers    int     `json:"readers"`
	ReadOps    int64   `json:"read_ops"`
	ReadRate   float64 `json:"read_ops_per_sec"`
	Updates    int     `json:"writer_updates"`
	WriteRate  float64 `json:"writer_updates_per_sec"`
	ElapsedMS  int64   `json:"elapsed_ms"`
}

// scalingReport is the multicore scaling curve: wait-free read
// throughput under continuous write churn, across GOMAXPROCS, against
// the locked-read ablation. The gates run before the report is
// emitted; a failure exits non-zero.
type scalingReport struct {
	Program string        `json:"program"`
	Readers int           `json:"readers"`
	NumCPU  int           `json:"num_cpu"`
	Cells   []scalingCell `json:"cells"`
	// SpeedupVsSeed is lockfree@8 read throughput over the seed
	// configuration (locked reads at GOMAXPROCS=1). Gated >= 3.0.
	SpeedupVsSeed float64 `json:"speedup_vs_seed"`
	// Speedup8v1 is lockfree@8 over lockfree@1; gated >= 3.0 only when
	// the host actually has 8 CPUs (pure GOMAXPROCS scaling needs them).
	Speedup8v1 float64 `json:"speedup_8v1"`
}

// scalingVerdictHash folds an engine's published epoch into one
// comparable fingerprint for the replay-equivalence gate.
func scalingVerdictHash(s *core.Specializer) uint64 {
	h := fnv.New64a()
	v := s.Epoch()
	var buf [8]byte
	put := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	for id := 0; id < v.NumVerdicts(); id++ {
		vd := v.Verdict(id)
		put(uint64(vd.Kind))
		put(uint64(vd.Val.W))
		put(vd.Val.Hi)
		put(vd.Val.Lo)
	}
	put(v.Generation)
	return h.Sum64()
}

// scalingMeasure runs one cell: a write goroutine churning the engine
// through controller-shaped batches while fixed reader goroutines hammer
// the read API, for a fixed window at the given GOMAXPROCS. It verifies
// audit continuity and replay equivalence (the concurrent engine's end
// state must equal a sequential engine replaying the same batch prefix)
// before reporting, and returns the cell.
func scalingMeasure(p *progs.Program, mode string, g, readers int, window time.Duration, fail func(string, ...any)) scalingCell {
	old := runtime.GOMAXPROCS(g)
	defer runtime.GOMAXPROCS(old)

	trail := obs.NewTrail(0)
	s, err := p.LoadWith(core.Options{Workers: 4, LockedReads: mode == "locked", Audit: trail})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	if err := p.ApplyRepresentative(s); err != nil {
		log.Fatal(err)
	}
	baseUpdates := s.Statistics().Updates

	// One churn cycle plus its drain returns the table to its pre-churn
	// state, so the writer can cycle indefinitely without key collisions.
	cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
		Kind: fuzz.Diurnal, Table: p.BurstTable, Updates: 256, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	cycle := append(cs.Batches(), cs.Drain())

	done := make(chan struct{})
	var wg sync.WaitGroup
	ops := make([]int64, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var n int64
			for {
				select {
				case <-done:
					ops[r] = n
					return
				default:
				}
				// The decision-query read mix: a verdict probe, a table
				// entry count, and the snapshot-dirtiness cursor.
				_ = s.Verdict(int(n) % len(s.An.Points))
				_ = s.Entries(p.BurstTable)
				_ = s.Generation()
				n += 3
			}
		}(r)
	}

	var applied [][]*controlplane.Update
	updates := 0
	t0 := time.Now()
	deadline := t0.Add(window)
	for bi := 0; time.Now().Before(deadline); bi++ {
		batch := cycle[bi%len(cycle)]
		for i, d := range s.ApplyBatch(batch) {
			if d.Kind == core.Rejected {
				fail("%s@%d: update %s rejected: %v", mode, g, batch[i], d.Err)
			}
		}
		applied = append(applied, batch)
		updates += len(batch)
	}
	elapsed := time.Since(t0)
	close(done)
	wg.Wait()

	// Audit continuity: one record per update, Seq 1..N with no gap.
	recs := trail.Records()
	if len(recs) != baseUpdates+updates {
		fail("%s@%d: %d audit records for %d updates", mode, g, len(recs), baseUpdates+updates)
	}
	for i, rec := range recs {
		if rec.Seq != i+1 {
			fail("%s@%d: audit record %d has seq %d (gap)", mode, g, i, rec.Seq)
		}
	}

	// Replay equivalence: a sequential engine applying the same batch
	// prefix must land in the same end state.
	ref, err := p.LoadWith(core.Options{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer ref.Close()
	if err := p.ApplyRepresentative(ref); err != nil {
		log.Fatal(err)
	}
	for _, batch := range applied {
		ref.ApplyBatch(batch)
	}
	if scalingVerdictHash(s) != scalingVerdictHash(ref) {
		fail("%s@%d: concurrent end state diverges from sequential replay", mode, g)
	}
	if a, b := s.Entries(p.BurstTable), ref.Entries(p.BurstTable); a != b {
		fail("%s@%d: %d live entries, sequential replay has %d", mode, g, a, b)
	}

	var total int64
	for _, n := range ops {
		total += n
	}
	return scalingCell{
		Mode: mode, GOMAXPROCS: g, Readers: readers,
		ReadOps: total, ReadRate: float64(total) / elapsed.Seconds(),
		Updates: updates, WriteRate: float64(updates) / elapsed.Seconds(),
		ElapsedMS: elapsed.Milliseconds(),
	}
}

// scalingSection emits the reads-vs-writes scaling curve: wait-free
// epoch readers against the LockedReads ablation (the seed engine's
// read path), under continuous write churn, across GOMAXPROCS 1/4/8/16.
// Gate: lockfree read throughput at GOMAXPROCS=8 must be at least 3x
// the seed configuration (locked reads at GOMAXPROCS=1); the pure
// lockfree 8-vs-1 ratio is additionally gated when the host has >= 8
// CPUs. Every cell also verifies audit continuity and sequential-replay
// equivalence — throughput never at the cost of consistency.
func scalingSection(full bool) {
	header("Scaling: wait-free reads vs locked baseline under write churn")
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "scaling verification failed: "+format+"\n", args...)
		os.Exit(1)
	}
	window := 200 * time.Millisecond
	if full {
		window = 600 * time.Millisecond
	}
	const readers = 4
	p, err := progs.ByName("nat44")
	if err != nil {
		log.Fatal(err)
	}

	specs := []struct {
		mode string
		g    int
	}{
		{"locked", 1}, {"locked", 8},
		{"lockfree", 1}, {"lockfree", 4}, {"lockfree", 8}, {"lockfree", 16},
	}
	report := &scalingReport{Program: p.Name, Readers: readers, NumCPU: runtime.NumCPU()}
	rate := make(map[string]float64, len(specs))
	fmt.Printf("%-9s %11s %8s | %14s %14s\n", "mode", "gomaxprocs", "readers", "reads/s", "writes/s")
	for _, sp := range specs {
		cell := scalingMeasure(p, sp.mode, sp.g, readers, window, fail)
		report.Cells = append(report.Cells, cell)
		rate[fmt.Sprintf("%s@%d", sp.mode, sp.g)] = cell.ReadRate
		fmt.Printf("%-9s %11d %8d | %14.0f %14.0f\n",
			cell.Mode, cell.GOMAXPROCS, cell.Readers, cell.ReadRate, cell.WriteRate)
	}

	report.SpeedupVsSeed = rate["lockfree@8"] / rate["locked@1"]
	report.Speedup8v1 = rate["lockfree@8"] / rate["lockfree@1"]
	fmt.Printf("\nlockfree@8 vs seed (locked@1): %.2fx (gate: >= 3.0)\n", report.SpeedupVsSeed)
	fmt.Printf("lockfree@8 vs lockfree@1:      %.2fx (gated >= 3.0 when NumCPU >= 8; host has %d)\n",
		report.Speedup8v1, report.NumCPU)
	if report.SpeedupVsSeed < 3.0 {
		fail("lockfree@8 read throughput is %.2fx the seed configuration, want >= 3.0x", report.SpeedupVsSeed)
	}
	if report.NumCPU >= 8 && report.Speedup8v1 < 3.0 {
		fail("lockfree 8-vs-1 scaling is %.2fx on a %d-CPU host, want >= 3.0x", report.Speedup8v1, report.NumCPU)
	}
	rep.Scaling = report
	fmt.Println("\ncross-check: every cell verified audit continuity (gap-free seq) and")
	fmt.Println("sequential-replay equivalence of the concurrent end state")
}

// ---------------------------------------------------------------------------

// ppsRow is one program's packets/sec cell: the reference interpreter
// ("generic") against the bytecode executor ("jit") on the same frames
// and config, plus the jit rate under concurrent control-plane churn.
type ppsRow struct {
	Program      string  `json:"program"`
	Frames       int     `json:"frames"`
	GenericPPS   float64 `json:"generic_pps"`
	JITPPS       float64 `json:"jit_pps"`
	Speedup      float64 `json:"speedup"`
	DiffChecked  int     `json:"diff_checked"`
	ChurnPPS     float64 `json:"churn_pps"`
	ChurnUpdates int     `json:"churn_updates"`
}

// ppsReport is the packet-execution section: the 2x gate must hold on
// at least three catalog programs, every cell is differentially
// verified against the interpreter before and after churn, and audit
// and epoch continuity are checked under the concurrent writer.
type ppsReport struct {
	Rows []ppsRow `json:"rows"`
	At2x int      `json:"programs_at_2x"`
}

// ppsFrames builds a deterministic mix of plausible ethernet+IPv4+UDP
// frames (randomized addresses, ports and TTLs) and short junk frames,
// so the measurement exercises both the parsed fast path and the
// parser-reject path.
func ppsFrames(seed int64, n int) ([][]byte, []uint16) {
	r := rand.New(rand.NewSource(seed))
	frames := make([][]byte, n)
	ports := make([]uint16, n)
	for i := range frames {
		if i%8 == 7 {
			f := make([]byte, r.Intn(32))
			r.Read(f)
			frames[i] = f
		} else {
			f := make([]byte, 46)
			r.Read(f[:12])   // eth dst+src
			f[12], f[13] = 0x08, 0x00
			f[14] = 0x45     // v4, IHL 5
			f[17] = 32       // total length
			f[19] = byte(i)  // id
			f[22] = byte(1 + r.Intn(255)) // ttl
			f[23] = 17       // udp
			r.Read(f[26:38]) // src+dst addr, src+dst port
			f[39] = 12       // udp length
			frames[i] = f
		}
		ports[i] = uint16(r.Intn(48))
	}
	return frames, ports
}

// ppsSection measures packets/sec on the catalog's production-shaped
// programs: the flattened bytecode image against the tree-walking
// reference interpreter, packet-for-packet equivalent by construction
// and by the per-cell differential check run before and after a churn
// arm that hammers the executor while a writer replays trace-driven
// batches. Gates: jit >= 2x generic on at least three programs; zero
// verdict divergences; gap-free audit trail; epoch update counters
// never observed going backwards mid-churn. Any violation exits
// non-zero.
func ppsSection(full bool) {
	header("Packets/sec: bytecode executor vs reference interpreter (catalog)")
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pps verification failed: "+format+"\n", args...)
		os.Exit(1)
	}
	window := 150 * time.Millisecond
	if full {
		window = 500 * time.Millisecond
	}
	const nframes = 256
	report := &ppsReport{}
	fmt.Printf("%-12s %8s | %12s %12s %8s | %12s %8s\n",
		"program", "frames", "generic/s", "jit/s", "speedup", "churn jit/s", "updates")
	for _, name := range []string{"nat44", "l4lb", "tunnelterm", "scion", "middleblock"} {
		p, err := progs.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		trail := obs.NewTrail(0)
		s, err := p.LoadWith(core.Options{Exec: true, Workers: 4, Audit: trail})
		if err != nil {
			log.Fatal(err)
		}
		if err := p.ApplyRepresentative(s); err != nil {
			log.Fatal(err)
		}
		frames, ports := ppsFrames(int64(len(name)), nframes)

		// Per-cell differential: every frame must produce the same
		// verdict and output bytes on the jit image as on the reference
		// interpreter, with error parity.
		diffCell := func(stage string) int {
			in := bmv2.New(s.Prog, s.Info, s.Cfg)
			img := s.ExecImage()
			if img == nil {
				fail("%s: engine published no exec image", name)
			}
			m := dpexec.NewMachine()
			for i, data := range frames {
				want, err1 := in.Run(bmv2.Packet{Data: data, IngressPort: ports[i]})
				got, err2 := m.Run(img, data, ports[i])
				if (err1 == nil) != (err2 == nil) {
					fail("%s %s frame %d: error divergence: bmv2 %v vs jit %v", name, stage, i, err1, err2)
				}
				if err1 == nil && !got.Equal(dpexec.Result{Dropped: want.Dropped, EgressPort: want.EgressPort,
					McastGrp: want.McastGrp, Emitted: want.Emitted}) {
					fail("%s %s frame %d: verdict divergence", name, stage, i)
				}
			}
			return len(frames)
		}
		checked := diffCell("pre-churn")

		measure := func(run func(i int)) float64 {
			t0 := time.Now()
			deadline := t0.Add(window)
			n := 0
			for time.Now().Before(deadline) {
				run(n % nframes)
				n++
			}
			return float64(n) / time.Since(t0).Seconds()
		}
		in := bmv2.New(s.Prog, s.Info, s.Cfg)
		generic := measure(func(i int) {
			_, _ = in.Run(bmv2.Packet{Data: frames[i], IngressPort: ports[i]})
		})
		img := s.ExecImage()
		m := dpexec.NewMachine()
		jit := measure(func(i int) {
			_, _ = m.Run(img, frames[i], ports[i])
		})

		// Churn arm: a writer replays trace-driven diurnal batches (each
		// cycle drains back to the pre-churn state) while the executor
		// re-reads the epoch per packet — image always present, update
		// counter never going backwards.
		cs, err := fuzz.Churn(s.An, fuzz.ChurnSpec{
			Kind: fuzz.Diurnal, Table: p.BurstTable, Updates: 128, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		cycle := append(cs.Batches(), cs.Drain())
		baseUpdates := s.Statistics().Updates
		done := make(chan struct{})
		var wg sync.WaitGroup
		churnUpdates := 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bi := 0; ; bi++ {
				select {
				case <-done:
					return
				default:
				}
				batch := cycle[bi%len(cycle)]
				for i, d := range s.ApplyBatch(batch) {
					if d.Kind == core.Rejected {
						fail("%s: churn update %s rejected: %v", name, batch[i], d.Err)
					}
				}
				churnUpdates += len(batch)
			}
		}()
		lastUpdates := 0
		churn := measure(func(i int) {
			v := s.Epoch()
			im := v.Image()
			if im == nil {
				fail("%s: nil exec image mid-churn", name)
			}
			if v.Stats.Updates < lastUpdates {
				fail("%s: epoch update counter went backwards (%d after %d)", name, v.Stats.Updates, lastUpdates)
			}
			lastUpdates = v.Stats.Updates
			if _, err := m.Run(im, frames[i], ports[i]); err != nil {
				fail("%s: jit trap mid-churn on frame %d: %v", name, i, err)
			}
		})
		close(done)
		wg.Wait()

		// Audit continuity: one record per update, gap-free sequence.
		recs := trail.Records()
		if len(recs) != baseUpdates+churnUpdates {
			fail("%s: %d audit records for %d updates", name, len(recs), baseUpdates+churnUpdates)
		}
		for i, rec := range recs {
			if rec.Seq != i+1 {
				fail("%s: audit record %d has seq %d (gap)", name, i, rec.Seq)
			}
		}
		// Post-churn differential: the quiesced image is still
		// packet-for-packet equivalent to the interpreter on the
		// post-churn config.
		checked += diffCell("post-churn")

		speedup := jit / generic
		fmt.Printf("%-12s %8d | %12.0f %12.0f %7.1fx | %12.0f %8d\n",
			name, nframes, generic, jit, speedup, churn, churnUpdates)
		report.Rows = append(report.Rows, ppsRow{
			Program: name, Frames: nframes,
			GenericPPS: generic, JITPPS: jit, Speedup: speedup,
			DiffChecked: checked, ChurnPPS: churn, ChurnUpdates: churnUpdates,
		})
		if speedup >= 2 {
			report.At2x++
		}
		s.Close()
	}
	fmt.Printf("\nprograms at >= 2x: %d/%d (gate: >= 3)\n", report.At2x, len(report.Rows))
	if report.At2x < 3 {
		fail("only %d programs reached 2x specialized-vs-generic packets/sec, want >= 3", report.At2x)
	}
	rep.PPS = report
	fmt.Println("\ncross-check: every cell differentially verified against the reference")
	fmt.Println("interpreter before and after churn, with gap-free audit and monotone")
	fmt.Println("epoch update counters under the concurrent writer")
}
