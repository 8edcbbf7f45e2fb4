// Command rapserve runs the multi-tenant streaming match service: a
// long-lived HTTP server in front of the refmatch engine with a compiled-
// program cache, persistent per-session scan state, a sharded worker
// pool, and a full observability surface (see internal/service and
// internal/telemetry).
//
//	rapserve -addr :8844
//
//	# compile (or cache-hit) a ruleset
//	curl -s localhost:8844/v1/programs -d '{"patterns":["cat","ab{10,48}c"]}'
//	# live ruleset hot-swap: same ID, open sessions stay on the old rules
//	curl -s -X PUT localhost:8844/v1/programs/$ID -d '{"patterns":["dog"]}'
//	# one-shot scan
//	curl -s localhost:8844/v1/programs/$ID/scan --data-binary @input.bin
//	# streaming session
//	curl -s localhost:8844/v1/sessions -d '{"program_id":"'$ID'"}'
//	curl -s localhost:8844/v1/sessions/$SID/data --data-binary @chunk1.bin
//	curl -s -X DELETE localhost:8844/v1/sessions/$SID
//	# counters (JSON), Prometheus exposition, recent slow traces
//	curl -s localhost:8844/v1/stats
//	curl -s localhost:8844/metrics
//	curl -s localhost:8844/debug/traces
//
// Every request is traced (incoming traceparent headers are honored, the
// trace ID is echoed as X-Trace-Id) and logged as one structured slog
// line. -pprof additionally mounts net/http/pprof under /debug/pprof/.
// Optionally a ruleset can be preloaded at startup with -f, so the first
// request needs no compile round trip.
//
// Multi-tenant QoS: requests are attributed to the tenant named by the
// identity header (-tenant-header, default X-RAP-Tenant; absent maps to
// "anonymous"), and -qos-config points at a JSON file of per-tenant
// limits (weight, scan bytes/sec + burst, session and compile-slot caps,
// speculative pre-compilation opt-in — see internal/qos.Config). SIGHUP
// reloads the file in place: live tenants are re-limited without a
// restart, keeping their accounting state.
//
// SLO engine: -slo-config points at a JSON file of burn-rate objectives
// (see internal/slo.Config); SIGHUP reloads it alongside the QoS file,
// preserving the rolling good/bad counts of unchanged objectives. Health
// scoring is served at /v1/health (component scores) and /readyz (503
// when critical); /debug/slo exposes burn rates, the admission shed
// level, and the breach log with linked trace IDs. -health-addr starts a
// second listener carrying only /healthz, /readyz, /v1/health and
// /metrics, so monitoring can live off the request port.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/patfile"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8844", "listen address")
	workers := flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "bounded queue depth per worker (full queue -> 429)")
	cacheSize := flag.Int("cache", 128, "compiled-program LRU capacity")
	maxSessions := flag.Int("max-sessions", 4096, "open streaming session cap")
	preload := flag.String("f", "", "preload a pattern file (one pattern per line) into the cache")
	logFormat := flag.String("log", "text", "access/runtime log format: text or json")
	slowTrace := flag.Duration("slow-trace", 0, "retain only traces at least this slow in /debug/traces (0 = all)")
	traceRing := flag.Int("trace-ring", 128, "finished traces retained for /debug/traces")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	tenantHeader := flag.String("tenant-header", "", "tenant identity header (default "+qos.DefaultHeader+")")
	qosConfig := flag.String("qos-config", "", "JSON per-tenant limits file (SIGHUP reloads it in place)")
	sloConfig := flag.String("slo-config", "", "JSON SLO objectives file (SIGHUP reloads it in place)")
	healthAddr := flag.String("health-addr", "", "optional second listener serving only /healthz, /readyz, /v1/health and /metrics")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stdout, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stdout, nil)
	default:
		fatal(fmt.Errorf("unknown -log format %q (want text or json)", *logFormat))
	}
	logger := slog.New(handler)

	qosCfg := qos.Config{Header: *tenantHeader}
	if *qosConfig != "" {
		loaded, err := qos.LoadFile(*qosConfig)
		if err != nil {
			fatal(err)
		}
		if *tenantHeader != "" {
			loaded.Header = *tenantHeader // flag wins over file
		}
		qosCfg = loaded
	}

	sloCfg := slo.Config{}
	if *sloConfig != "" {
		loaded, err := slo.LoadFile(*sloConfig)
		if err != nil {
			fatal(err)
		}
		sloCfg = loaded
	}

	svc := service.New(service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		ProgramCacheSize: *cacheSize,
		MaxSessions:      *maxSessions,
		Logger:           logger,
		TraceRing:        *traceRing,
		SlowTrace:        *slowTrace,
		QoS:              qosCfg,
		SLO:              sloCfg,
	})
	defer svc.Close()

	// SIGHUP re-reads the tenant-limits and SLO-objectives files and
	// applies both in place (no restart, accounting and burn-rate state
	// survive). Each applied file gets a one-line change summary.
	if *qosConfig != "" || *sloConfig != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if *qosConfig != "" {
					loaded, err := qos.LoadFile(*qosConfig)
					if err != nil {
						logger.Error("qos reload failed", "file", *qosConfig, "err", err)
					} else {
						if *tenantHeader != "" {
							loaded.Header = *tenantHeader
						}
						svc.QoS().SetConfig(loaded)
						logger.Info("qos reloaded", "file", *qosConfig, "tenants", len(loaded.Tenants))
					}
				}
				if *sloConfig != "" {
					loaded, err := slo.LoadFile(*sloConfig)
					if err != nil {
						logger.Error("slo reload failed", "file", *sloConfig, "err", err)
					} else {
						svc.SLO().SetConfig(loaded)
						applied := svc.SLO().Config()
						logger.Info("slo reloaded", "file", *sloConfig,
							"objectives", len(applied.Objectives),
							"admission", applied.Admission.Enabled,
							"admission_objective", applied.Admission.Objective)
					}
				}
			}
		}()
	}

	// Goroutine/heap/GC gauges land on the same /metrics endpoint as the
	// service counters, so one scrape captures process + workload health.
	telemetry.RegisterRuntimeMetrics(svc.Telemetry())

	if *preload != "" {
		patterns, err := patfile.Read(*preload)
		if err != nil {
			fatal(err)
		}
		prog, _, err := svc.Compile(context.Background(), patterns, service.CompileOptions{})
		if err != nil {
			fatal(fmt.Errorf("preload %s: %w", *preload, err))
		}
		logger.Info("preloaded ruleset", "patterns", len(patterns), "program", prog.ID)
	}

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)

	// Optional monitoring listener: health probes and the metrics scrape
	// on a port that can stay off the request path (and off its ACLs).
	if *healthAddr != "" {
		hm := http.NewServeMux()
		hm.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"ok"}`)
		})
		hm.Handle("GET /readyz", slo.ReadyHandler(svc.Health()))
		hm.Handle("GET /v1/health", slo.HealthHandler(svc.Health()))
		hm.Handle("GET /metrics", svc.Telemetry().Handler())
		hsrv := &http.Server{Addr: *healthAddr, Handler: hm, ReadHeaderTimeout: 10 * time.Second}
		go func() { errCh <- hsrv.ListenAndServe() }()
		logger.Info("health listener", "addr", *healthAddr)
	}

	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "pprof", *pprofOn,
		"go_version", telemetry.Build().GoVersion, "revision", telemetry.Build().Revision)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(err)
	case s := <-sig:
		logger.Info("draining", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(err)
		}
		// The listener is stopped; flush every open streaming session so
		// end-anchored matches are emitted rather than silently dropped.
		drained := svc.DrainSessions()
		finals := 0
		for _, d := range drained {
			finals += len(d.FinalMatches)
			logger.Info("drained session",
				"session", d.Summary.SessionID, "program", d.Summary.ProgramID,
				"bytes", d.Summary.Bytes, "matches", d.Summary.Matches,
				"end_anchored", len(d.FinalMatches))
		}
		logger.Info("drained", "sessions", len(drained), "end_anchored_matches", finals)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rapserve:", err)
	os.Exit(1)
}
