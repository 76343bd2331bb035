package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// diffLedgers prints, per workload and per layer, how two traced runs
// differ: every ledger metric, every ratio with its base, and the self
// time and count of every span name. Both arguments are ledger files,
// or directories of them matched by file name.
func diffLedgers(w io.Writer, a, b string) error {
	pairs, err := ledgerPairs(a, b)
	if err != nil {
		return err
	}
	for _, p := range pairs {
		la, err := readLedger(p[0])
		if err != nil {
			return err
		}
		lb, err := readLedger(p[1])
		if err != nil {
			return err
		}
		writeDiff(w, la, lb)
	}
	return nil
}

func ledgerPairs(a, b string) ([][2]string, error) {
	st, err := os.Stat(a)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		return [][2]string{{a, b}}, nil
	}
	names, err := filepath.Glob(filepath.Join(a, "*.json"))
	if err != nil {
		return nil, err
	}
	var out [][2]string
	for _, n := range names {
		other := filepath.Join(b, filepath.Base(n))
		if _, err := os.Stat(other); err == nil {
			out = append(out, [2]string{n, other})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no ledger file name appears in both %s and %s", a, b)
	}
	return out, nil
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lg ledger
	if err := json.Unmarshal(data, &lg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if lg.Workload == "" || lg.Metrics == nil {
		return nil, fmt.Errorf("%s: not a ledger file", path)
	}
	return &lg, nil
}

// layerOf is the module a ledger entry belongs to: its name up to the
// first dot; undotted names are end-to-end tails.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "e2e"
}

func writeDiff(w io.Writer, a, b *ledger) {
	fmt.Fprintf(w, "== %s: %s (seed %d, %s) -> %s (seed %d, %s)\n", a.Workload,
		a.Provenance.Commit, a.Provenance.Seed, a.Provenance.GoVersion,
		b.Provenance.Commit, b.Provenance.Seed, b.Provenance.GoVersion)
	if a.Workload != b.Workload {
		fmt.Fprintf(w, "   warning: comparing workload %s with %s\n", a.Workload, b.Workload)
	}
	type row struct{ layer, text string }
	var rows []row
	for _, s := range perLayer {
		va, okA := a.Metrics[s.Name]
		vb, okB := b.Metrics[s.Name]
		if !okA || !okB {
			continue
		}
		text := fmt.Sprintf("%-34s %12.6g -> %-12.6g %s  %s", s.Name, va, vb, s.Unit, relDelta(va, vb))
		if ra, ok := a.Ratios[s.Name]; ok {
			rb := b.Ratios[s.Name]
			text += fmt.Sprintf("  (%.6g of %.6g -> %.6g of %.6g)", ra[0], ra[1], rb[0], rb[1])
		}
		rows = append(rows, row{layerOf(s.Name), text})
	}
	names := map[string]bool{}
	for n := range a.Spans {
		names[n] = true
	}
	for n := range b.Spans {
		names[n] = true
	}
	var spans []string
	for n := range names {
		spans = append(spans, n)
	}
	sort.Strings(spans)
	for _, n := range spans {
		sa, sb := a.Spans[n], b.Spans[n]
		if sa == nil {
			sa = &spanTotal{}
		}
		if sb == nil {
			sb = &spanTotal{}
		}
		rows = append(rows, row{"core", fmt.Sprintf("span %-29s self %10.3f -> %-10.3f ms  %s  count %d -> %d",
			n, float64(sa.SelfNS)/1e6, float64(sb.SelfNS)/1e6, relDelta(float64(sa.SelfNS), float64(sb.SelfNS)), sa.Count, sb.Count)})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].layer < rows[j].layer })
	last := ""
	for _, r := range rows {
		if r.layer != last {
			fmt.Fprintf(w, "-- %s\n", r.layer)
			last = r.layer
		}
		fmt.Fprintf(w, "   %s\n", r.text)
	}
}

func relDelta(a, b float64) string {
	if a == 0 {
		if b == 0 {
			return "  +0.0%"
		}
		return "   new"
	}
	return fmt.Sprintf("%+6.1f%%", 100*(b-a)/a)
}
