// Command vibed is the VIBe benchmark service: a long-lived daemon that
// accepts scenario/sweep submissions over HTTP, runs them as jobs on the
// shared runner pool, and serves live progress (SSE), Prometheus metrics,
// and downloadable run artifacts.
//
// Usage:
//
//	vibed                        # listen on :8080, NumCPU workers
//	vibed -addr 127.0.0.1:9999   # explicit listen address
//	vibed -workers 4 -queue 32   # pool width and queue bound
//
// Submit a run and follow it:
//
//	curl -s -X POST localhost:8080/api/jobs \
//	     -d '{"quick": true, "experiments": ["T1","F1"]}'
//	curl -N localhost:8080/api/jobs/job-1/events
//	curl -s localhost:8080/api/jobs/job-1/artifacts/results.json
//	curl -s localhost:8080/metrics
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"vibe/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send request
// headers, so idle or slow connections cannot pin the server.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		workers = flag.Int("workers", runtime.NumCPU(), "runner pool width per job")
		queue   = flag.Int("queue", 16, "bound on queued jobs (full queue rejects with 503)")
	)
	flag.Parse()

	srv := serve.New(serve.Options{Workers: *workers, QueueCap: *queue})
	go srv.Run()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vibed:", err)
		os.Exit(1)
	}
	log.Printf("vibed: listening on %s (%d workers, queue %d)", ln.Addr(), *workers, *queue)

	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("vibed: shutting down")
		hs.Close()
	}()
	if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "vibed:", err)
		os.Exit(1)
	}
	srv.Close()
}
