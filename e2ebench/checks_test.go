package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/bmv2"
	"repro/internal/dpexec"
	"repro/internal/wire"
)

// referenceResults runs nat44's packet mix through bmv2 at the
// representative configuration and renders the results the way /exec
// answers them.
func referenceResults(t *testing.T) ([]wire.ExecResult, []bmv2.Result) {
	t.Helper()
	b, err := newBench(workloads[0], 1, 0, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := b.finalConfig(b.execSession())
	if err != nil {
		t.Fatal(err)
	}
	ref := bmv2.New(b.ast, b.info, cfg)
	var got []wire.ExecResult
	var want []bmv2.Result
	for i, f := range b.mix.frames {
		r, err := ref.Run(bmv2.Packet{Data: f, IngressPort: b.mix.ports[i]})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
		got = append(got, wire.FromExecResult(dpexec.Result{Dropped: r.Dropped, ParserRejected: r.ParserRejected,
			EgressPort: r.EgressPort, McastGrp: r.McastGrp, Emitted: r.Emitted}))
	}
	return got, want
}

func TestExecGateAcceptsMatchingResults(t *testing.T) {
	got, want := referenceResults(t)
	if err := compareExec(got, want); err != nil {
		t.Fatal(err)
	}
	forwarded, dropped := 0, 0
	for _, w := range want {
		if w.Dropped {
			dropped++
		} else {
			forwarded++
		}
	}
	if forwarded == 0 || dropped == 0 {
		t.Fatalf("the packet mix should both forward and drop: %d forwarded, %d dropped", forwarded, dropped)
	}
}

func TestExecGateRejectsCorruptedExpectation(t *testing.T) {
	got, want := referenceResults(t)
	i := 0
	for want[i].Dropped {
		i++
	}
	corrupt := func(name string, edit func(r *bmv2.Result)) {
		w := append([]bmv2.Result(nil), want...)
		w[i].Emitted = append([]byte(nil), w[i].Emitted...)
		edit(&w[i])
		if err := compareExec(got, w); err == nil {
			t.Errorf("%s: the gate accepted a corrupted expectation", name)
		}
	}
	corrupt("emitted byte", func(r *bmv2.Result) { r.Emitted[len(r.Emitted)-1] ^= 1 })
	corrupt("egress port", func(r *bmv2.Result) { r.EgressPort++ })
	corrupt("verdict", func(r *bmv2.Result) { r.Dropped = true })
	if err := compareExec(got[1:], want); err == nil {
		t.Error("the gate accepted a missing result")
	}
}

func TestCheckDecisionsGate(t *testing.T) {
	p := workloads[0]
	b, err := newBench(p, 1, 0, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	us := b.prog.Representative()[:2]
	ok := []wire.Decision{{Kind: "recompile"}, {Kind: "forward"}}
	if err := checkDecisions(us, ok); err != nil {
		t.Fatal(err)
	}
	if checkDecisions(us, ok[:1]) == nil {
		t.Error("accepted one decision for two updates")
	}
	if checkDecisions(us, []wire.Decision{{Kind: "forward"}, {Kind: "rejected"}}) == nil {
		t.Error("accepted a rejected update")
	}
}

// The names a run emits are exactly the ones BENCHMARK.json declares,
// with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, a, b []metricSpec) {
		if len(a) != len(b) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", what, len(a), len(b))
			return
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", what, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the harness %s", i, w.Name, workloads[i].name)
		}
	}

	// endToEnd() fills exactly the declared end-to-end names and the
	// latency tails.
	b := &bench{setups: []setupTiming{{}}}
	var names []string
	for k := range b.endToEnd() {
		names = append(names, k)
	}
	var declared []string
	for _, m := range append(append([]metricSpec(nil), endToEnd...), tails...) {
		declared = append(declared, m.Name)
	}
	sort.Strings(names)
	sort.Strings(declared)
	if len(names) != len(declared) {
		t.Fatalf("endToEnd() emits %v, declared %v", names, declared)
	}
	for i := range names {
		if names[i] != declared[i] {
			t.Fatalf("endToEnd() emits %v, declared %v", names, declared)
		}
	}
}
