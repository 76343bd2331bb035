package main

import (
	"sort"

	"repro/internal/obs"
)

// spanNode is a span placed in the containment forest: its parent is
// the innermost span whose interval contains it, whatever parent ID the
// span was recorded with. The engine opens some spans as roots that run
// inside others (a "pass" during an update's epoch publication), so
// parent IDs alone would count their time twice.
type spanNode struct {
	span     obs.Span
	children []*spanNode
	// self is the span's duration minus the union of its children's
	// intervals, in ns.
	self int64
}

func (n *spanNode) dur() int64 { return n.span.EndNS - n.span.StartNS }

func contains(outer, inner obs.Span) bool {
	return outer.StartNS <= inner.StartNS && inner.EndNS <= outer.EndNS
}

// spanForest nests closed spans by interval containment and computes
// every node's self time. Identical intervals nest in start order (the
// lower ID is the outer span). Spans that overlap without nesting are
// siblings; their shared time is counted once in the parent.
func spanForest(spans []obs.Span) []*spanNode {
	closed := make([]obs.Span, 0, len(spans))
	for _, s := range spans {
		if s.EndNS >= s.StartNS && s.EndNS != 0 {
			closed = append(closed, s)
		}
	}
	sort.Slice(closed, func(i, j int) bool {
		a, b := closed[i], closed[j]
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		if a.EndNS != b.EndNS {
			return a.EndNS > b.EndNS
		}
		return a.ID < b.ID
	})
	var roots []*spanNode
	var stack []*spanNode
	for _, s := range closed {
		n := &spanNode{span: s}
		for len(stack) > 0 && !contains(stack[len(stack)-1].span, s) {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			roots = append(roots, n)
		} else {
			p := stack[len(stack)-1]
			p.children = append(p.children, n)
		}
		stack = append(stack, n)
	}
	for _, r := range roots {
		computeSelf(r)
	}
	return roots
}

func computeSelf(n *spanNode) {
	for _, c := range n.children {
		computeSelf(c)
	}
	n.self = n.dur() - unionNS(n.children)
}

// unionNS is the total length covered by the nodes' intervals (sorted
// by start, as spanForest leaves children).
func unionNS(ns []*spanNode) int64 {
	var total, curS, curE int64
	open := false
	for _, n := range ns {
		s, e := n.span.StartNS, n.span.EndNS
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s > curE:
			total += curE - curS
			curS, curE = s, e
		case e > curE:
			curE = e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// layerTime accumulates self time and span counts per span name.
type layerTime map[string]*spanTotal

type spanTotal struct {
	Count  int   `json:"count"`
	SelfNS int64 `json:"self_ns"`
}

// addTree adds n and every span under it.
func (lt layerTime) addTree(n *spanNode) {
	t := lt[n.span.Name]
	if t == nil {
		t = &spanTotal{}
		lt[n.span.Name] = t
	}
	t.Count++
	t.SelfNS += n.self
	for _, c := range n.children {
		lt.addTree(c)
	}
}
