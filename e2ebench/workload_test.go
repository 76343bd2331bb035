package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/progs"
	"repro/internal/wire/binproto"
)

// fingerprint renders the first n writes of every writer of a workload
// (update text, batch grouping) and its packet mix.
func fingerprint(t *testing.T, wl workload, seed uint64, n int) (warmup, timed, mix string) {
	t.Helper()
	b, err := newBench(wl, seed, 0, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	var w, tm strings.Builder
	for _, g := range b.gens {
		for i := 0; i < n; i++ {
			wr, err := g.next()
			if err != nil {
				t.Fatal(err)
			}
			out := &tm
			if g.stream <= warmupStreams {
				out = &w
			}
			fmt.Fprintf(out, "w%d batch=%v n=%d:", wr.writer, wr.batch, len(wr.updates))
			for _, u := range wr.updates {
				fmt.Fprintf(out, " %x", binproto.AppendUpdate(nil, u))
			}
			out.WriteByte('\n')
		}
	}
	var m bytes.Buffer
	for i, f := range b.mix.frames {
		fmt.Fprintf(&m, "%d %x\n", b.mix.ports[i], f)
	}
	return w.String(), tm.String(), m.String()
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			const n = 1200 // past the warm-up streams of every writer
			w1, t1, m1 := fingerprint(t, wl, 7, n)
			w1b, t1b, m1b := fingerprint(t, wl, 7, n)
			if w1 != w1b || t1 != t1b || m1 != m1b {
				t.Fatal("the same seed gave different inputs")
			}
			if t1 == "" {
				t.Fatal("no timed writes generated")
			}
			w2, t2, m2 := fingerprint(t, wl, 8, n)
			if t1 == t2 {
				t.Error("a different seed gave the same timed update sequence")
			}
			if m1 == m2 {
				t.Error("a different seed gave the same packet mix")
			}
			if w1 != w2 {
				t.Error("warm-up streams must not depend on the seed")
			}
		})
	}
}

// Each batch writer's writes follow the streams' controller batch
// boundaries; single writers send one update per write.
func TestBatchGrouping(t *testing.T) {
	for _, wl := range workloads {
		b, err := newBench(wl, 1, 0, "", 1)
		if err != nil {
			t.Fatal(err)
		}
		g := b.gens[0]
		sizes := map[int]int{}
		for i := 0; i < 200; i++ {
			w, err := g.next()
			if err != nil {
				t.Fatal(err)
			}
			if w.batch != wl.batch {
				t.Fatalf("%s: write batch=%v", wl.name, w.batch)
			}
			sizes[len(w.updates)]++
		}
		if !wl.batch && (len(sizes) != 1 || sizes[1] != 200) {
			t.Errorf("%s: single writer sent sizes %v", wl.name, sizes)
		}
		if wl.batch && len(sizes) < 2 {
			t.Errorf("%s: batch writer sent only sizes %v", wl.name, sizes)
		}
	}
}

// A writer can always be brought to a checkpoint, and a stream plus its
// drain nets out to nothing.
func TestCheckpointsAndDrainsBalance(t *testing.T) {
	p, err := progs.ByName("nat44")
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(workloads[0], 3, 0, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	g := b.gens[0]
	net := 0
	for i := 0; i < 37; i++ {
		w, _ := g.next()
		net += w.net
	}
	for _, w := range g.untilCheckpoint() {
		net += w.net
	}
	if !g.atStreamEnd() || net != g.cur.WantLive {
		t.Fatalf("at checkpoint: stream end %v, net %d, want live %d", g.atStreamEnd(), net, g.cur.WantLive)
	}
	for _, w := range g.drainRest() {
		net += w.net
	}
	if net != 0 || g.atStreamEnd() {
		t.Fatalf("after drain: net %d, stream end %v", net, g.atStreamEnd())
	}
	if g.table != p.BurstTable {
		t.Fatalf("churned table %s, want %s", g.table, p.BurstTable)
	}
}
