package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"graft"
	"graft/internal/pregel"
	"graft/internal/serve"
)

// readHeaderTimeout bounds how long a client of graft serve or of
// graft run -metrics-addr may take to send its request headers, and
// readTimeout the whole request, body included, so idle or trickling
// connections cannot pile up.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
)

// httpServer is the server graft serve and graft run -metrics-addr
// listen with. It sets no WriteTimeout: a replay-check page re-runs
// every capture of a superstep and may take long to answer.
func httpServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}

// cmdServe runs the multi-job daemon: one graft.Session over a shared
// trace store, jobs submitted and canceled over HTTP, the GUI mounted
// on the same address.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	traceDir := fs.String("trace-dir", "graft-traces", "shared trace directory (one subdirectory per job)")
	maxConcurrent := fs.Int("max-concurrent", 4, "jobs running superstep loops at once")
	maxPending := fs.Int("max-pending", 0, "queued-job admission limit (0: 4x max-concurrent)")
	// The default cap keeps a submission's message lanes (workers²) to
	// what the machine can run, yet admits the worker count a submission
	// that names none runs with.
	maxWorkersPerJob := fs.Int("max-workers-per-job", max(runtime.NumCPU(), pregel.DefaultNumWorkers),
		"per-job NumWorkers cap (0: uncapped)")
	workersTotal := fs.Int("workers-total", 0, "global worker-goroutine budget across all jobs (0: uncapped)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	store, err := openStore(*traceDir)
	if err != nil {
		return err
	}
	session, err := graft.NewSession(graft.SessionConfig{
		Store:             store,
		MaxConcurrentJobs: *maxConcurrent,
		MaxPendingJobs:    *maxPending,
		MaxWorkersPerJob:  *maxWorkersPerJob,
		MaxTotalWorkers:   *workersTotal,
	})
	if err != nil {
		return err
	}
	daemon, err := serve.New(session)
	if err != nil {
		return err
	}

	srv := httpServer(*addr, daemon.Handler())
	errCh := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()
	fmt.Printf("graft serve: listening on http://%s (traces under %s, max %d concurrent jobs)\n",
		*addr, *traceDir, *maxConcurrent)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		daemon.Close()
		return err
	case s := <-sig:
		fmt.Printf("graft serve: %v, shutting down\n", s)
	}

	// Cancel every unfinished job (their engines stop at the next
	// barrier, traces stay readable), then drain the HTTP server.
	daemon.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	return <-errCh
}
