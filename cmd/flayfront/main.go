// flayfront is the fleet front door: it consistent-hashes session
// names onto a set of flayd shards, proxies both the HTTP/JSON API and
// the binary protocol onto the owning shard, aggregates per-shard
// /metrics into one fleet view, and — when a shard is configured with
// a standby — health-probes the actives and promotes the standby when
// one dies.
//
// Usage:
//
//	flayfront -addr HOST:PORT [-bin-addr HOST:PORT] -shard SPEC [-shard SPEC ...]
//
// Each -shard SPEC is a comma-separated list of key=value fields:
//
//	name=shard-a,addr=http://h1:9444[,bin=h1:9445][,standby=http://h2:9444][,standby-bin=h2:9445]
//
// name is the shard's stable ring identity: failover swaps the address
// behind it, so session placement never changes. Flags:
//
//	-addr HOST:PORT      HTTP listen address (default 127.0.0.1:9440)
//	-bin-addr HOST:PORT  binary-protocol listen address (empty disables)
//	-probe DUR           health-probe cadence (0 disables auto-failover)
//	-fail-after N        consecutive probe failures declaring a shard dead
//	-vnodes N            virtual nodes per shard on the hash ring
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// shardSpecs collects repeated -shard flags.
type shardSpecs []string

func (s *shardSpecs) String() string     { return strings.Join(*s, " ") }
func (s *shardSpecs) Set(v string) error { *s = append(*s, v); return nil }

// parseShard decodes one -shard SPEC into a ShardConfig.
func parseShard(spec string) (cluster.ShardConfig, error) {
	var sc cluster.ShardConfig
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return sc, fmt.Errorf("field %q is not key=value", field)
		}
		switch k {
		case "name":
			sc.Name = v
		case "addr":
			sc.Addr = v
		case "bin":
			sc.BinAddr = v
		case "standby":
			sc.StandbyAddr = v
		case "standby-bin":
			sc.StandbyBin = v
		default:
			return sc, fmt.Errorf("unknown field %q", k)
		}
	}
	if sc.Name == "" || sc.Addr == "" {
		return sc, fmt.Errorf("shard spec needs name= and addr=")
	}
	return sc, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "flayfront: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, logw *os.File) error {
	fs := flag.NewFlagSet("flayfront", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9440", "HTTP listen address")
	binAddr := fs.String("bin-addr", "", "binary-protocol listen address (empty disables)")
	probe := fs.Duration("probe", 250*time.Millisecond, "health-probe cadence (0 disables auto-failover)")
	failAfter := fs.Int("fail-after", 3, "consecutive probe failures declaring a shard dead")
	vnodes := fs.Int("vnodes", 0, "virtual nodes per shard on the hash ring (0 = default)")
	var specs shardSpecs
	fs.Var(&specs, "shard", "shard spec name=...,addr=...[,bin=...][,standby=...][,standby-bin=...] (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(specs) == 0 {
		return fmt.Errorf("at least one -shard is required")
	}
	logger := log.New(logw, "flayfront: ", log.LstdFlags)

	front := cluster.New(cluster.Config{
		Vnodes:        *vnodes,
		ProbeInterval: *probe,
		FailAfter:     *failAfter,
		Logf:          logger.Printf,
	})
	for _, spec := range specs {
		sc, err := parseShard(spec)
		if err != nil {
			return fmt.Errorf("-shard %q: %w", spec, err)
		}
		if err := front.AddShard(sc); err != nil {
			return err
		}
		logger.Printf("shard %s at %s (standby: %s)", sc.Name, sc.Addr, orNone(sc.StandbyAddr))
	}
	front.Start()
	defer front.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := server.NewHTTPServer(front)
	logger.Printf("fronting %d shards on http://%s", len(specs), ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	var binLn net.Listener
	if *binAddr != "" {
		binLn, err = net.Listen("tcp", *binAddr)
		if err != nil {
			return err
		}
		logger.Printf("binary protocol on %s", binLn.Addr())
		go func() {
			if err := front.ServeBin(binLn); err != nil {
				logger.Printf("binary listener: %v", err)
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Printf("signal received; draining")
	if binLn != nil {
		binLn.Close()
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("drained; exiting")
	return nil
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
