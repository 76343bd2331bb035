package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/controlplane"
	"repro/internal/server"
	"repro/internal/sym"
	"repro/internal/wire"
)

// clusterReport is the binary-vs-HTTP protocol comparison: the same
// batched update workload driven into one in-process flayd over both
// surfaces. The binary protocol's pitch is per-update overhead — no
// HTTP framing, no JSON, pipelined batches instead of request/response
// round trips — so its batched update throughput is gated at >= 2x the
// HTTP/JSON surface on the same workload.
type clusterReport struct {
	Updates      int     `json:"updates"`
	Batch        int     `json:"batch"`
	Workers      int     `json:"workers"`
	HTTPUpdatesS float64 `json:"http_updates_per_sec"`
	BinUpdatesS  float64 `json:"bin_updates_per_sec"`
	Speedup      float64 `json:"speedup"`
}

// clusterUpdate builds the i-th update of a churn-shaped workload:
// each batch inserts distinct eth_table entries and then deletes them
// again, so chunks are order-independent across concurrent loops (no
// rejects) and the table stays small — the steady-state regime where
// per-update protocol overhead, the thing this section compares, is
// the dominant cost rather than a growing analysis.
func clusterUpdate(i int, del bool) *controlplane.Update {
	kind := controlplane.InsertEntry
	if del {
		kind = controlplane.DeleteEntry
	}
	return &controlplane.Update{
		Kind: kind, Table: "Ingress.eth_table",
		Entry: &controlplane.TableEntry{
			Matches: []controlplane.FieldMatch{{
				Kind:  controlplane.MatchTernary,
				Value: sym.NewBV(48, uint64(0x020000000000+i)),
				Mask:  sym.NewBV(48, 0xffffffffffff),
			}},
			Action: "drop",
		},
	}
}

func clusterSection(full bool) {
	header("Cluster: binary protocol vs HTTP/JSON update throughput")
	const batch, workers = 8, 8
	n := 4096
	if full {
		n = 16384
	}

	srv, err := server.New(server.Config{})
	if err != nil {
		log.Fatal(err)
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	web := server.NewHTTPServer(srv)
	go web.Serve(httpLn)
	defer web.Close()
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer binLn.Close()
	go srv.ServeBin(binLn)

	chunks := func() [][]*controlplane.Update {
		var out [][]*controlplane.Update
		id := 0
		for total := 0; total < n; total += batch {
			b := make([]*controlplane.Update, 0, batch)
			for k := 0; k < batch/2; k++ {
				b = append(b, clusterUpdate(id+k, false))
			}
			for k := 0; k < batch/2; k++ {
				b = append(b, clusterUpdate(id+k, true))
			}
			id += batch / 2
			out = append(out, b)
		}
		return out
	}

	// HTTP/JSON arm: a pooled client, `workers` closed loops, one
	// batched POST per chunk.
	hc := client.NewPooled("http://"+httpLn.Addr().String(), workers)
	if _, err := hc.CreateSession(wire.CreateSessionRequest{Name: "wire-http", Catalog: "fig3"}); err != nil {
		log.Fatal(err)
	}
	httpElapsed := clusterDrive(chunks(), workers, func(b []*controlplane.Update) error {
		resp, err := hc.Write("wire-http", wire.ModeBatch, b)
		if err == nil && len(resp.Decisions) != len(b) {
			err = fmt.Errorf("%d decisions for %d updates", len(resp.Decisions), len(b))
		}
		return err
	})

	// Binary arm: the same chunks pipelined over one connection shared
	// by the same number of loops.
	bc, err := client.DialBin(binLn.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer bc.Close()
	if _, err := bc.Attach("wire-bin", "fig3", false); err != nil {
		log.Fatal(err)
	}
	binElapsed := clusterDrive(chunks(), workers, func(b []*controlplane.Update) error {
		resp, err := bc.Write(b, true)
		if err == nil && len(resp.Decisions) != len(b) {
			err = fmt.Errorf("%d decisions for %d updates", len(resp.Decisions), len(b))
		}
		return err
	})

	// Both arms must have applied the whole workload, exactly.
	for _, name := range []string{"wire-http", "wire-bin"} {
		st, err := hc.Stats(name)
		if err != nil {
			log.Fatal(err)
		}
		if st.Updates != n || st.Rejected != 0 {
			fmt.Printf("FAIL: session %s applied %d/%d updates (%d rejected)\n", name, st.Updates, n, st.Rejected)
			os.Exit(1)
		}
	}

	cr := &clusterReport{
		Updates:      n,
		Batch:        batch,
		Workers:      workers,
		HTTPUpdatesS: float64(n) / httpElapsed.Seconds(),
		BinUpdatesS:  float64(n) / binElapsed.Seconds(),
	}
	cr.Speedup = cr.BinUpdatesS / cr.HTTPUpdatesS
	rep.Cluster = cr
	fmt.Printf("%d updates in %d-update batches over %d loops\n", n, batch, workers)
	fmt.Printf("  HTTP/JSON  %9.0f updates/s (%v)\n", cr.HTTPUpdatesS, httpElapsed.Round(time.Millisecond))
	fmt.Printf("  binary     %9.0f updates/s (%v)\n", cr.BinUpdatesS, binElapsed.Round(time.Millisecond))
	fmt.Printf("  speedup    %.2fx (gate: >= 2x)\n", cr.Speedup)
	if cr.Speedup < 2.0 {
		fmt.Printf("FAIL: binary protocol speedup %.2fx under the 2x gate\n", cr.Speedup)
		os.Exit(1)
	}
}

// clusterDrive runs the chunks through `write` from `workers`
// concurrent loops and returns the wall-clock elapsed.
func clusterDrive(chunks [][]*controlplane.Update, workers int, write func([]*controlplane.Update) error) time.Duration {
	next := make(chan []*controlplane.Update, len(chunks))
	for _, b := range chunks {
		next <- b
	}
	close(next)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range next {
				if err := write(b); err != nil {
					log.Fatalf("cluster write: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}
