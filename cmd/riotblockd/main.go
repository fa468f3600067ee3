// Command riotblockd is the standalone network block server: it exposes
// one shard root directory over the blockproto wire protocol, so a
// riotshared front-end can stripe a block store across machines instead of
// local directories (shard specs `host:port` and `dir` mix freely).
//
//	riotblockd -addr :8441 -root /var/lib/riotshare/shard-0
//	riotshared serve -shard-addrs host0:8441,host1:8441,host2:8441,host3:8441 -replicas 2 -persist
//
// One process serves one shard; run one riotblockd per shard root. The
// protocol is specified in docs/remote-protocol.md and the deployment
// runbook in docs/operations.md. The server shuts down gracefully on
// SIGINT/SIGTERM: the listener closes, in-flight connections drain, block
// stores close.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"riotshare/internal/blockd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "riotblockd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", ":8441", "listen address")
		root    = flag.String("root", "", "shard root directory this server exposes (required)")
		quiet   = flag.Bool("quiet", false, "suppress per-connection logging")
		metrics = flag.String("metrics-addr", "", "optional HTTP sidecar address serving GET /metrics and /healthz (e.g. :9441)")
	)
	flag.Parse()
	if *root == "" {
		return fmt.Errorf("-root required: the shard directory this server exposes")
	}
	var opt blockd.Options
	if !*quiet {
		opt.Logf = blockd.StdLogf
	}
	srv, err := blockd.New(*root, opt)
	if err != nil {
		return err
	}
	if err := srv.ListenAndServe(*addr); err != nil {
		return err
	}
	if *metrics != "" {
		// The sidecar is observability-only: a bind failure is fatal (a
		// silent half-deployment is worse), but serve errors after that
		// only lose metrics, never block traffic.
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			srv.Close()
			return fmt.Errorf("metrics listener: %w", err)
		}
		go func() { _ = http.Serve(mln, srv.MetricsHandler()) }()
		defer mln.Close()
		fmt.Printf("riotblockd: metrics on http://%s/metrics\n", mln.Addr())
	}
	fmt.Printf("riotblockd: serving shard root %s on %s\n", *root, srv.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("riotblockd: shutting down")
	return srv.Close()
}
