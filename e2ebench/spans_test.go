package main

import (
	"testing"

	"repro/internal/obs"
)

func selfOf(roots []*spanNode) map[string]int64 {
	out := map[string]int64{}
	var walk func(n *spanNode)
	walk = func(n *spanNode) {
		out[n.span.Name] += n.self
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// A span recorded as a root but running inside another is that span's
// child: its time is not counted twice.
func TestSelfTimeNestsRootLevelSpansByContainment(t *testing.T) {
	spans := []obs.Span{
		{ID: 1, Name: "update", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "query", StartNS: 10, EndNS: 60},
		{ID: 3, Name: "pass", StartNS: 70, EndNS: 90}, // root by ID, inside update by time
		{ID: 4, Name: "pass", StartNS: 120, EndNS: 130},
	}
	roots := spanForest(spans)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (update and the later pass)", len(roots))
	}
	got := selfOf(roots)
	want := map[string]int64{"update": 30, "query": 50, "pass": 30}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, got[k], v)
		}
	}
}

// Children that overlap each other count their shared time once.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []obs.Span{
		{ID: 1, Name: "write", StartNS: 0, EndNS: 100},
		{ID: 2, Name: "a", StartNS: 10, EndNS: 60},
		{ID: 3, Name: "b", StartNS: 50, EndNS: 80}, // overlaps a without nesting
		{ID: 4, Name: "c", StartNS: 55, EndNS: 58}, // inside both: nests in the latest container
	}
	roots := spanForest(spans)
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	got := selfOf(roots)
	if got["write"] != 30 { // 100 - |[10,80]|
		t.Errorf("self[write] = %d, want 30", got["write"])
	}
	if got["a"] != 50 || got["b"] != 27 || got["c"] != 3 {
		t.Errorf("self = %v, want a=50 b=27 c=3", got)
	}
}

// Identical intervals nest in ID order, open spans are ignored, and
// per-name totals add up.
func TestSelfTimeTiesAndOpenSpans(t *testing.T) {
	spans := []obs.Span{
		{ID: 2, Name: "inner", StartNS: 0, EndNS: 10},
		{ID: 1, Name: "outer", StartNS: 0, EndNS: 10},
		{ID: 3, Name: "open", StartNS: 5},
	}
	roots := spanForest(spans)
	if len(roots) != 1 || roots[0].span.Name != "outer" {
		t.Fatalf("roots = %+v, want outer alone", roots)
	}
	lt := layerTime{}
	lt.addTree(roots[0])
	if lt["outer"].SelfNS != 0 || lt["inner"].SelfNS != 10 || lt["inner"].Count != 1 || lt["open"] != nil {
		t.Fatalf("totals = outer %+v inner %+v open %+v", lt["outer"], lt["inner"], lt["open"])
	}
}
