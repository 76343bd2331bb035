// Command e2ebench is goflay's end-to-end benchmark. One run boots an
// active flayd and a hot standby (-standby, -replicate-to) from binaries
// built from the checkout, drives one named workload through them from
// this single load-generator process, checks that every output is
// correct, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also replays the workload's identical input in process under the
// engine tracer and reports the per-layer ledger instead (README.md
// maps each layer metric to the end-to-end metric it moves).
//
// Usage (run.sh builds both binaries first):
//
//	e2ebench -workload NAME -seed N -seconds S -trace 0|1
//	e2ebench -diff OLD.json NEW.json   # per-layer deltas of two ledgers
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec is one reported metric.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the numbers a flayd user sees; BENCHMARK.json lists the
// same names with their regression bounds.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"update_p50_ms", "ms"},
	{"updates_per_s", "1/s"},
	{"cpu_ms_per_update", "ms"},
	{"exec_pps", "1/s"},
	{"exec_p50_ms", "ms"},
	{"cpu_us_per_packet", "us"},
	{"ok_frac", "ratio"},
}

// tails are the end-to-end latency tails. They are reported on every
// run and listed with the per-layer metrics, which carry no regression
// bound: across seeds they spread wider than any bound the benchmark
// may set (README.md, "Notes on steadiness").
var tails = []metricSpec{
	{"update_p99_ms", "ms"},
	{"exec_p99_ms", "ms"},
}

// perLayer is the traced run's ledger, grouped by module, after the
// tails.
var perLayer = append(append([]metricSpec(nil), tails...), []metricSpec{
	{"server.queue_wait_ms", "ms"},
	{"server.apply_p50_ms", "ms"},
	{"server.apply_p99_ms", "ms"},
	{"server.ship_p50_ms", "ms"},
	{"server.ship_p99_ms", "ms"},
	{"server.rounds_per_write", "ratio"},
	{"server.heap_alloc_mb", "MB"},
	{"server.maxrss_mb", "MB"},
	{"server.ship_errors", "count"},
	{"server.queue_full", "count"},
	{"server.http_errors", "count"},
	{"replica.standby_apply_ms", "ms"},
	{"replica.transport_ms", "ms"},
	{"wire.replica_codec_us_per_round", "us"},
	{"wire.exec_codec_us_per_pkt", "us"},
	{"binproto.codec_us_per_write", "us"},
	{"client.transport_ms", "ms"},
	{"core.apply_ms", "ms"},
	{"core.query_ms", "ms"},
	{"core.query_frac", "ratio"},
	{"core.assign_compile_ms", "ms"},
	{"core.pass_ms", "ms"},
	{"core.unattributed_frac", "ratio"},
	{"core.updates", "count"},
	{"core.forwarded", "count"},
	{"core.recompiled", "count"},
	{"core.coalesced", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.dd_answer_ratio", "ratio"},
	{"core.solver_fallbacks", "count"},
	{"core.dd_compiles", "count"},
	{"core.dd_nodes", "count"},
	{"core.arena_sweeps", "count"},
	{"core.arena_nodes", "count"},
	{"dpexec.compile_ms", "ms"},
	{"dpexec.with_target_us", "us"},
	{"dpexec.run_ns_per_pkt", "ns"},
	{"dpexec.instrs", "count"},
	{"setup.spawn_ms", "ms"},
	{"setup.create_ms", "ms"},
	{"setup.representative_ms", "ms"},
	{"setup.parse_ms", "ms"},
	{"setup.typecheck_ms", "ms"},
	{"setup.dataflow_ms", "ms"},
	{"setup.taint_ms", "ms"},
	{"setup.preprocess_ms", "ms"},
	{"gen.writes", "count"},
	{"gen.warmup_write_ms", "ms"},
	{"gen.writer_lag_p99_ms", "ms"},
	{"gen.cpu_ms", "ms"},
	{"host.steal_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}...)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	wlName := fl.String("workload", "", "workload name (see README.md)")
	seed := fl.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fl.Int("seconds", 10, "length of the timed window")
	traced := fl.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	flayd := fl.String("flayd", ".bench_build/bin/flayd", "flayd binary built from this checkout")
	ledgerDir := fl.String("ledger-dir", ".bench_build/ledger", "where traced runs write their ledger and spans")
	diff := fl.Bool("diff", false, "print per-layer deltas between two ledger files given as arguments")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *diff {
		if fl.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "e2ebench: -diff needs two ledger files")
			return 2
		}
		if err := diffLedgers(os.Stdout, fl.Arg(0), fl.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
		return 0
	}
	wl, err := workloadByName(*wlName)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: bad arguments: %v\n", err)
		return 2
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	prov := newProvenance(wl.name, *seed)
	fmt.Printf("provenance: workload=%s seed=%d num_cpu=%d gomaxprocs=%d go=%s commit=%s\n",
		prov.Workload, prov.Seed, prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion, prov.Commit)

	b, err := newBench(wl, *seed, time.Duration(*seconds)*time.Second, *flayd, procs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	res, err := b.execute(*traced == 1, prov, *ledgerDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	specs := endToEnd
	if *traced == 1 {
		specs = perLayer
	}
	out := report{Correct: len(b.fails) == 0, Attempted: b.attempts, Failed: len(b.fails), Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := res[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "e2ebench: metric %s was not measured\n", s.Name)
			return 1
		}
		out.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	printMetrics(specs, res)
	if *traced == 0 {
		printMetrics(tails, res)
	}
	fmt.Printf("%-34s %14.6g ratio (%d of %d operations failed)\n", "fail_frac", float64(out.Failed)/float64(max(out.Attempted, 1)), out.Failed, out.Attempted)
	for _, f := range b.fails {
		fmt.Printf("FAIL %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs the whole benchmark: set-up, the timed window, the
// untimed gates and, when traced, the ledger. Daemons are stopped on
// every path.
func (b *bench) execute(traced bool, prov provenance, ledgerDir string) (map[string]float64, error) {
	defer func() {
		if b.bc != nil {
			b.bc.Close()
		}
		_ = b.pair.stop()
	}()
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := b.runWindow(); err != nil {
		return nil, fmt.Errorf("timed window: %w", err)
	}
	if err := b.settle(); err != nil {
		return nil, fmt.Errorf("settling: %w", err)
	}
	if !b.wl.execLoad {
		if err := b.probe(); err != nil {
			return nil, fmt.Errorf("exec probe: %w", err)
		}
	}
	execResps, err := b.execCheck()
	if err != nil {
		return nil, fmt.Errorf("exec check: %w", err)
	}
	source, err := b.agree()
	if err != nil {
		return nil, fmt.Errorf("replica agreement: %w", err)
	}
	b.bc.Close()
	b.bc = nil
	err = b.pair.stop()
	b.rss = b.pair.active.maxRSSMB()
	b.pair = nil
	if err != nil {
		return nil, err
	}

	m := b.endToEnd()
	if !traced {
		return m, nil
	}
	printMetrics(endToEnd, m)
	lg, err := b.buildLedger(source, execResps)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	lg.Provenance = prov
	for _, t := range tails {
		lg.Metrics[t.Name] = m[t.Name]
	}
	if err := writeLedger(ledgerDir, lg); err != nil {
		return nil, err
	}
	return lg.Metrics, nil
}

// endToEnd reduces the run's measurements to the end-to-end metrics.
func (b *bench) endToEnd() map[string]float64 {
	m := map[string]float64{}
	totals := make([]float64, len(b.setups))
	for i, s := range b.setups {
		totals[i] = s.total.Seconds()
	}
	m["setup_s"] = median(totals)
	up := b.win.update.summarize()
	m["update_p50_ms"] = up.P50
	m["update_p99_ms"] = up.Tail
	secs := b.win.elapsed.Seconds()
	m["updates_per_s"] = intervalMedian(b.winSamples, func(a, b progress) (float64, bool) {
		return float64(b.updates-a.updates) / b.t.Sub(a.t).Seconds(), true
	})
	m["cpu_ms_per_update"] = intervalMedian(b.winSamples, func(a, b progress) (float64, bool) {
		n := b.updates - a.updates
		return float64((b.pairCPU - a.pairCPU).Nanoseconds()) / 1e6 / float64(n), n > 0
	})
	ex := b.exec.lat.summarize()
	m["exec_pps"] = intervalMedian(b.execSamples, func(a, b progress) (float64, bool) {
		return float64(b.packets-a.packets) / b.t.Sub(a.t).Seconds(), true
	})
	m["exec_p50_ms"] = ex.P50
	m["exec_p99_ms"] = ex.Tail
	m["cpu_us_per_packet"] = intervalMedian(b.execSamples, func(a, b progress) (float64, bool) {
		n := b.packets - a.packets
		return float64((b.actCPU - a.actCPU).Nanoseconds()) / 1e3 / float64(n), n > 0
	})
	m["ok_frac"] = 1 - float64(len(b.fails))/float64(max(b.attempts, 1))
	fmt.Printf("samples: %d writes (%d updates) in %.2fs, update tail p%.1f; %d exec requests (%d packets) in %.2fs, exec tail p%.1f; host steal %.1f%% (window), %.1f%% (exec)\n",
		up.N, b.win.updates, secs, up.TailPct, ex.N, b.exec.packets, b.exec.elapsed.Seconds(), ex.TailPct,
		100*spanSteal(b.winSamples), 100*spanSteal(b.execSamples))
	return m
}

// spanSteal is the host steal share over a sampled phase.
func spanSteal(ps []progress) float64 {
	if len(ps) < 2 {
		return 0
	}
	return stealFrac(ps[0], ps[len(ps)-1])
}

func printMetrics(specs []metricSpec, m map[string]float64) {
	for _, s := range specs {
		fmt.Printf("%-34s %14.6g %s\n", s.Name, m[s.Name], s.Unit)
	}
}

// provenance identifies what was measured and where.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newProvenance(wl string, seed uint64) provenance {
	return provenance{Workload: wl, Seed: seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commitID()}
}

// commitID is the git commit of the checkout, or, outside a git
// repository, a hash of the Go sources and module files it builds from.
func commitID() string {
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if wd, _ := os.Getwd(); err == nil && strings.TrimSpace(string(top)) == wd {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func writeLedger(dir string, lg *ledger) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(lg, "", "  ")
	if err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", lg.Workload, lg.Provenance.Seed))
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := lg.trace.WriteJSONL(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("ledger: %s.json (spans: %s.spans.jsonl)\n", base, base)
	return nil
}
