// Command tempserve runs the partition-mapping service: an HTTP/JSON
// daemon solving scenario requests for many concurrent tenants over
// one shared evaluation engine, so every request after the first hits
// warm interned topologies and memoized prices. Concurrent requests'
// cache misses coalesce into shared batched pricing calls; admission
// control bounds load per tenant (503 + Retry-After past capacity);
// streamed requests get live best-so-far checkpoints over SSE.
//
//	tempserve -listen :8080
//	tempserve -listen :8080 -memo-dir memo -coalesce 2ms
//	tempserve -listen :8080 -distribute 4
//	tempserve -loadtest -url http://127.0.0.1:8080 -mix examples/serve_mix -clients 8 -json load.json
//
//	curl -s localhost:8080/v1/solve -d '{"scenario":{"model":"gpt3-6.7b","wafer":"wsc-4x8"}}'
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"temp/internal/distrib"
	"temp/internal/engine"
	"temp/internal/serve"
)

// Connection timeouts of the HTTP server. Only the request header and
// keep-alive idle time are bounded: request bodies are small and
// size-limited, and a streamed solve legitimately writes for as long
// as its budget runs, so there is no read or write deadline.
const (
	// readHeaderTimeout stops a slow-header client from holding a
	// connection open forever.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections left unused this long.
	idleTimeout = 2 * time.Minute
)

func main() {
	var (
		listen        = flag.String("listen", ":8080", "HTTP listen address")
		workers       = flag.Int("workers", runtime.GOMAXPROCS(0), "evaluation worker-pool size")
		memoDir       = flag.String("memo-dir", os.Getenv("TEMPMEMO"), "persist priced results in this directory and warm-start from them (default $TEMPMEMO)")
		coalesce      = flag.Duration("coalesce", 2*time.Millisecond, "cross-request miss-coalescing window (0 disables)")
		maxConcurrent = flag.Int("max-concurrent", runtime.GOMAXPROCS(0), "solve requests running at once")
		maxQueue      = flag.Int("max-queue", 64, "solve requests waiting past -max-concurrent before 503")
		distribute    = flag.Int("distribute", 0, "fan multi-scenario requests across N worker subprocesses")
		syncMemo      = flag.Bool("sync-memo", false, "ship the warm disk-memo to workers over the wire instead of sharing -memo-dir (shared-nothing workers)")
		drainGrace    = flag.Duration("drain-grace", 30*time.Second, "SIGTERM drain: time in-flight solves get to finish before cancellation")
		checkpointDir = flag.String("checkpoint-dir", "", "persist best-so-far checkpoints of solves cancelled during drain to this directory")
		workerMode    = flag.Bool("worker-mode", false, "internal: serve shards from a coordinator over stdio")

		loadtest = flag.Bool("loadtest", false, "run as load generator against -url instead of serving")
		url      = flag.String("url", "http://127.0.0.1:8080", "-loadtest: daemon base URL")
		mixDir   = flag.String("mix", "examples/serve_mix", "-loadtest: directory of request/scenario JSON files to replay")
		clients  = flag.Int("clients", 8, "-loadtest: concurrent client loops")
		repeat   = flag.Int("repeat", 1, "-loadtest: times each mix entry is replayed per pass")
		passes   = flag.Int("passes", 2, "-loadtest: sweeps over the mix (first cold, rest warm)")
		verify   = flag.Bool("verify", true, "-loadtest: byte-compare served results against a direct in-process solve")
		jsonPath = flag.String("json", "", "-loadtest: write the load report to this file")
	)
	flag.Parse()
	engine.SetWorkers(*workers)

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "tempserve:", err)
		os.Exit(1)
	}
	if *memoDir != "" {
		dm, err := engine.AttachDiskMemo(*memoDir)
		if err != nil {
			fail(err)
		}
		defer dm.Close()
	}
	if *workerMode {
		if err := distrib.ServeStdio(); err != nil {
			fail(err)
		}
		return
	}
	if *loadtest {
		runLoadtest(*url, *mixDir, *clients, *repeat, *passes, *verify, *jsonPath, fail)
		return
	}

	if *coalesce > 0 {
		engine.SetCoalescer(engine.NewCoalescer(nil, *coalesce, 0))
	}
	var fab *distrib.Fabric
	if *distribute > 0 {
		exe, err := os.Executable()
		if err != nil {
			fail(err)
		}
		cmdline := []string{exe, "-worker-mode", "-workers", fmt.Sprint(*workers)}
		if *memoDir != "" && !*syncMemo {
			// Workers share the memo directory; with -sync-memo they
			// instead receive the warm segment over the wire at attach.
			cmdline = append(cmdline, "-memo-dir", *memoDir)
		}
		if fab, err = distrib.New(distrib.Options{Workers: *distribute, Command: cmdline, SyncMemo: *syncMemo}); err != nil {
			fmt.Fprintln(os.Stderr, "tempserve: distrib:", err)
		}
		defer fab.Shutdown()
	}

	srv := serve.New(serve.Options{
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		Fabric:        fab,
		CheckpointDir: *checkpointDir,
	})
	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	// Graceful shutdown on SIGTERM/SIGINT: new solves get 503 +
	// Retry-After while in-flight ones finish inside the grace period
	// (stragglers are checkpointed then cancelled), the fabric stops
	// dealing shards, and only then does the listener close — so the
	// 503s are servable for the whole drain.
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintf(os.Stderr, "tempserve: draining (grace %s)\n", *drainGrace)
		dctx, dcancel := context.WithTimeout(context.Background(), *drainGrace)
		rep := srv.Drain(dctx)
		dcancel()
		fmt.Fprintf(os.Stderr, "tempserve: drain done: %d in-flight, %d completed, %d canceled\n",
			rep.Inflight, rep.Completed, rep.Canceled)
		for _, cp := range rep.Checkpoints {
			fmt.Fprintf(os.Stderr, "tempserve: checkpoint persisted: %s\n", cp)
		}
		for _, e := range rep.Errors {
			fmt.Fprintf(os.Stderr, "tempserve: drain: %s\n", e)
		}
		if fab != nil {
			fab.Drain()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
		close(done)
	}()

	fmt.Fprintf(os.Stderr, "tempserve: listening on %s (workers %d, max-concurrent %d, queue %d, coalesce %s, distribute %d)\n",
		*listen, *workers, *maxConcurrent, *maxQueue, *coalesce, *distribute)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fail(err)
	}
	<-done
}

// runLoadtest drives a running daemon and prints the report.
func runLoadtest(url, mixDir string, clients, repeat, passes int, verify bool, jsonPath string, fail func(error)) {
	mix, err := serve.LoadMix(mixDir)
	if err != nil {
		fail(err)
	}
	rep, err := serve.RunLoad(serve.LoadOptions{
		URL: url, Clients: clients, Repeat: repeat, Passes: passes,
		Mix: mix, Verify: verify,
	})
	if err != nil {
		fail(err)
	}
	for _, p := range rep.Passes {
		fmt.Printf("pass %d  %4d requests (%d errors)  %8.2f solves/s  p50 %s  p95 %s  p99 %s  queue %s  hit ratio %.2f\n",
			p.Pass, p.Requests, p.Errors, p.SolvesSec,
			time.Duration(p.P50NS), time.Duration(p.P95NS), time.Duration(p.P99NS),
			time.Duration(p.MeanQueueNS), p.HitRatio)
	}
	fmt.Printf("warm speedup %.2fx\n", rep.WarmSpeedup)
	if rep.Verify != nil {
		if rep.Verify.Match {
			fmt.Printf("verify       %d/%d served results bit-identical to direct solve\n",
				rep.Verify.Checked, len(mix))
		} else {
			fmt.Printf("verify       MISMATCH: %s\n", rep.Verify.Mismatch)
		}
	}
	if jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			fail(err)
		}
	}
	if rep.Verify != nil && !rep.Verify.Match {
		os.Exit(1)
	}
}
