// Command crmon is the long-running discovery monitor and service: it
// serves live metrics endpoints and either repeatedly runs one discovery
// pipeline (monitor mode) or accepts discovery jobs over a multi-tenant
// HTTP/JSON API (-serve mode):
//
//	crmon -addr :9090 -target nginx              # loop the syscall pipeline
//	crmon -addr :9090 -target ie -pipeline seh -runs 3
//	crmon -addr :9090 -serve                     # discovery-as-a-service
//	curl localhost:9090/metrics                  # Prometheus text format
//	curl localhost:9090/profile                  # exact virtual-cost profile
//	curl localhost:9090/trace.json               # Chrome trace-event JSON
//	curl localhost:9090/debug/pprof/             # runtime profiles
//
// In -serve mode the job API is live on the same address:
//
//	curl -X POST localhost:9090/v1/jobs -d '{"tenant":"t1","target":"nginx","seed":42}'
//	curl localhost:9090/v1/jobs/j00000001        # status + result
//	curl localhost:9090/v1/jobs/j00000001/events # SSE progress stream
//	curl 'localhost:9090/v1/jobs?tenant=t1'      # tenant listing
//
// Endpoints are live from before the first analysis starts. With -runs 0
// (the default) crmon keeps analyzing until interrupted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"crashresist"
	"crashresist/cmd/internal/cliflags"
	"crashresist/internal/metrics"
	"crashresist/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], nil)
	stop()
	if errors.Is(err, context.Canceled) {
		// Interrupted: the normal way to stop the monitor.
		err = nil
	}
	os.Exit(cliflags.ExitCode(os.Stderr, "crmon", err))
}

// run drives the whole command. ready, when non-nil, receives the bound
// listen address once the endpoints are serving — the test hook that makes
// `-addr 127.0.0.1:0` usable.
func run(ctx context.Context, args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("crmon", flag.ContinueOnError)
	var an cliflags.Analysis
	var (
		addr     = fs.String("addr", ":9090", "listen address for /metrics, /profile, /trace.json, /debug/pprof")
		serve    = fs.Bool("serve", false, "serve the multi-tenant job API (POST /v1/jobs) instead of looping one pipeline")
		target   = fs.String("target", "nginx", "nginx|cherokee|lighttpd|memcached|postgresql|ie|firefox|gen-<i>")
		pipeline = fs.String("pipeline", "", "syscall|api|seh (default: syscall for servers, seh for browsers)")
		runs     = fs.Int("runs", 0, "stop after this many analysis runs (0 = loop until interrupted)")
		budget   = fs.Int("budget", 0, "serve: worker-token budget shared by concurrent jobs (0 = max(4, GOMAXPROCS))")
		maxQueue = fs.Int("max-queue", 0, "serve: queued-job bound before 429 backpressure (0 = 256)")
		retain   = fs.Int("retain", 0, "serve: completed jobs retained for GET before eviction (0 = 1024)")
	)
	an.RegisterScale(fs, "small")
	an.RegisterSeed(fs)
	an.RegisterPool(fs)
	if err := cliflags.Parse(fs, args); err != nil {
		return err
	}

	cache := an.OpenCache(os.Stderr, "crmon")
	reg := crashresist.NewMetricsRegistry()

	if *serve {
		return serveJobs(ctx, *addr, reg, cache, service.Config{
			Budget:   *budget,
			MaxQueue: *maxQueue,
			Retain:   *retain,
		}, ready)
	}

	pl := *pipeline
	if pl == "" {
		if *target == "ie" || *target == "firefox" {
			pl = "seh"
		} else {
			pl = "syscall"
		}
	}

	req := crashresist.Request{
		Pipeline: pl,
		Target:   *target,
		Scale:    an.Scale,
		Seed:     an.Seed,
		Workers:  an.Workers,
	}
	if err := req.Validate(); err != nil {
		return err
	}
	if cache != nil {
		req.Cache = cache
	}
	req.Sinks = append(req.Sinks, reg)
	// The monitor profiles every run into one cumulative profile served at
	// /profile — profiling never changes report contents, so it is always on.
	req.Profile = crashresist.NewProfile()
	reg.SetProfile(req.Profile)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: reg.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "crmon: serving http://%s/metrics (%s pipeline, target %s)\n", ln.Addr(), pl, *target)
	if ready != nil {
		ready(ln.Addr().String())
	}

	for n := 0; *runs == 0 || n < *runs; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := crashresist.Run(ctx, req); err != nil {
			if errors.Is(err, context.Canceled) {
				return err
			}
			return fmt.Errorf("run %d: %w", n+1, err)
		}
		select {
		case err := <-serveErr:
			return fmt.Errorf("serve: %w", err)
		default:
		}
	}
	fmt.Fprintf(os.Stderr, "crmon: %d run(s) complete; serving until interrupted\n", *runs)
	<-ctx.Done()
	return ctx.Err()
}

// serveJobs runs the discovery-as-a-service mode: the job API plus the
// observability endpoints on one listener, until the context is done.
func serveJobs(ctx context.Context, addr string, reg *metrics.Registry, cache *crashresist.AnalysisCache, cfg service.Config, ready func(addr string)) error {
	cfg.Cache = cache
	cfg.Registry = reg
	svc := service.New(cfg)
	defer svc.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "crmon: job API serving http://%s/v1/jobs (budget %d)\n", ln.Addr(), svc.Budget())
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case <-ctx.Done():
		return ctx.Err()
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}
}
