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
// Health scoring (worker pool, program cache, hot-swap stalls) is served
// at /v1/health (component scores) and /readyz (503 when critical);
// /v1/stats and /metrics count finished requests, 5xx answers and
// answers slower than 250 ms. Overload is answered by the QoS token
// buckets and per-tenant queues alone. -health-addr starts a second
// listener carrying only /healthz, /readyz, /v1/health and /metrics
// (Service.MonitorHandler, the same routes the request port serves), so
// monitoring can live off the request port.
//
// Cluster mode: -id names this process as one node of a sharded,
// replicated cluster (see internal/cluster) and serves the node's
// handler instead of the bare service's. Every node serves the full /v1
// API; clients may point at any of them. Programs are placed on a
// consistent-hash ring over their content-hash IDs, scans fan out over
// each program's replica set, streaming sessions stay sticky to the node
// that opened them, and ruleset updates roll out as canaries judged on
// the requests they finish while watched. Everything above — SIGHUP
// reload, -pprof, -health-addr, the trace flags — works the same on a
// node; only -f is refused, because a preloaded program would bypass the
// gossiped catalog.
//
//	rapserve -id n1 -addr :8851 -seeds http://localhost:8852,http://localhost:8853
//	rapserve -id n2 -addr :8852 -seeds http://localhost:8851,http://localhost:8853
//	rapserve -id n3 -addr :8853 -seeds http://localhost:8851,http://localhost:8852
//	# talk to any node; the cluster routes
//	curl -s localhost:8852/v1/programs -d '{"patterns":["cat","dog"]}'
//	curl -s localhost:8851/v1/programs/$ID/scan --data-binary @input.bin
//	# canary rollout: staged on a replica fraction, then promoted or
//	# rolled back on a 5xx or slow share, or a critical health score
//	curl -s -X PUT localhost:8853/v1/programs/$ID -d '{"patterns":["bird"]}'
//	# cluster view: membership states, ring, catalog digests
//	curl -s localhost:8851/cluster/members
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/patfile"
	"repro/internal/qos"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	if err := run(os.Args[1:], nil, sig); err != nil {
		fmt.Fprintln(os.Stderr, "rapserve:", err)
		os.Exit(1)
	}
}

// run is main with the process edges as parameters, so a test can start
// the binary in-process: args are the command line, ready (when non-nil)
// receives the request listener's bound address once it accepts, and
// stop delivers signals — SIGHUP reloads the -qos-config file, anything else
// drains and returns.
func run(args []string, ready chan<- string, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("rapserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8844", "listen address")
	workers := fs.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "bounded queue depth per worker (full queue -> 429)")
	cacheSize := fs.Int("cache", 128, "compiled-program LRU capacity")
	maxSessions := fs.Int("max-sessions", 4096, "open streaming session cap")
	preload := fs.String("f", "", "preload a pattern file (one pattern per line) into the cache (not with -id)")
	logFormat := fs.String("log", "text", "access/runtime log format: text or json")
	slowTrace := fs.Duration("slow-trace", 0, "retain only traces at least this slow in /debug/traces (0 = all)")
	traceRing := fs.Int("trace-ring", 128, "finished traces retained for /debug/traces")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	tenantHeader := fs.String("tenant-header", "", "tenant identity header (default "+qos.DefaultHeader+")")
	qosConfig := fs.String("qos-config", "", "JSON per-tenant limits file (SIGHUP reloads it in place)")
	healthAddr := fs.String("health-addr", "", "optional second listener serving only /healthz, /readyz, /v1/health and /metrics")
	id := fs.String("id", "", "cluster-unique node name; set, this process serves as a cluster node")
	advertise := fs.String("advertise", "", "cluster: base URL peers reach this node at (default http://<host>:<port> of the listener)")
	seeds := fs.String("seeds", "", "cluster: comma-separated peer base URLs to bootstrap gossip")
	replicas := fs.Int("replicas", 2, "cluster: placement width per program (owner + replicas)")
	maxReplicas := fs.Int("max-replicas", 0, "cluster: hot-program fan-out cap (0 = replicas+1)")
	hotRate := fs.Float64("hot-scan-rate", 200, "cluster: routed scans/sec beyond which a program's replica set widens (<0 disables)")
	gossipEvery := fs.Duration("gossip-interval", time.Second, "cluster: tick that re-announces to one peer, ages members, warms replicas and samples scan rates (joins, new programs and promotions spread at once)")
	canaryFraction := fs.Float64("canary-fraction", 0.34, "cluster: replica fraction staged first on ruleset updates (<=0 applies directly)")
	canaryObserve := fs.Duration("canary-observe", 15*time.Second, "cluster: how long canaries are watched before promote/rollback")
	canaryMinHealth := fs.Float64("canary-min-health", 0.35, "cluster: health score below which a canary rolls back")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *id != "" && *preload != "" {
		return errors.New("-f cannot be combined with -id: a preloaded program would bypass the gossiped catalog (compile it through any node)")
	}

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stdout, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stdout, nil)
	default:
		return fmt.Errorf("unknown -log format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	loadQoS := func() (qos.Config, error) {
		if *qosConfig == "" {
			return qos.Config{Header: *tenantHeader}, nil
		}
		loaded, err := qos.LoadFile(*qosConfig)
		if *tenantHeader != "" {
			loaded.Header = *tenantHeader // flag wins over file
		}
		return loaded, err
	}
	qosCfg, err := loadQoS()
	if err != nil {
		return err
	}

	svcCfg := service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		ProgramCacheSize: *cacheSize,
		MaxSessions:      *maxSessions,
		Logger:           logger,
		TraceRing:        *traceRing,
		SlowTrace:        *slowTrace,
		QoS:              qosCfg,
	}
	var (
		svc      *service.Service
		node     *cluster.Node
		seedList []string
		root     http.Handler
	)
	if *id == "" {
		svc = service.New(svcCfg)
		defer svc.Close()
		root = svc.Handler()
	} else {
		for _, s := range strings.Split(*seeds, ",") {
			if s = strings.TrimSpace(s); s != "" {
				seedList = append(seedList, strings.TrimRight(s, "/"))
			}
		}
		node, err = cluster.NewNode(cluster.Config{
			ID:             *id,
			Seeds:          seedList,
			Replicas:       *replicas,
			MaxReplicas:    *maxReplicas,
			HotScanRate:    *hotRate,
			GossipInterval: *gossipEvery,
			Canary: cluster.CanaryConfig{
				Fraction:  *canaryFraction,
				Observe:   *canaryObserve,
				MinHealth: *canaryMinHealth,
			},
			Service: svcCfg,
			Logger:  logger,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		svc, root = node.Service(), node.Handler()
	}

	// SIGHUP re-reads the tenant-limits file and applies it in place (no
	// restart, accounting state survives), with a one-line summary.
	reload := func() {
		if *qosConfig == "" {
			return
		}
		if loaded, err := loadQoS(); err != nil {
			logger.Error("qos reload failed", "file", *qosConfig, "err", err)
		} else {
			svc.QoS().SetConfig(loaded)
			logger.Info("qos reloaded", "file", *qosConfig, "tenants", len(loaded.Tenants))
		}
	}

	// Goroutine/heap/GC gauges land on the same /metrics endpoint as the
	// service counters, so one scrape captures process + workload health.
	telemetry.RegisterRuntimeMetrics(svc.Telemetry())

	if *preload != "" {
		patterns, err := patfile.Read(*preload)
		if err != nil {
			return err
		}
		prog, _, err := svc.Compile(context.Background(), patterns, service.CompileOptions{})
		if err != nil {
			return fmt.Errorf("preload %s: %w", *preload, err)
		}
		logger.Info("preloaded ruleset", "patterns", len(patterns), "program", prog.ID)
	}

	mux := http.NewServeMux()
	mux.Handle("/", root)
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	defer srv.Close()
	errCh := make(chan error, 2) // one slot per listener: neither Serve goroutine blocks after run returns

	// Optional monitoring listener: health probes and the metrics scrape
	// on a port that can stay off the request path (and off its ACLs).
	if *healthAddr != "" {
		hsrv := &http.Server{Addr: *healthAddr, Handler: svc.MonitorHandler(), ReadHeaderTimeout: 10 * time.Second}
		defer hsrv.Close()
		go func() { errCh <- hsrv.ListenAndServe() }()
		logger.Info("health listener", "addr", *healthAddr)
	}

	go func() { errCh <- srv.Serve(ln) }()
	bound := ln.Addr().String()
	logger.Info("listening", "addr", bound, "pprof", *pprofOn,
		"go_version", telemetry.Build().GoVersion, "revision", telemetry.Build().Revision)
	if node != nil {
		adv := *advertise
		if adv == "" {
			// Peers reach the node at the listener's port; an unspecified
			// host means every interface, of which localhost is one.
			host, port, _ := net.SplitHostPort(bound)
			if net.ParseIP(host).IsUnspecified() {
				host = "localhost"
			}
			adv = "http://" + net.JoinHostPort(host, port)
		}
		node.Start(adv)
		logger.Info("cluster node", "id", *id, "advertise", adv, "seeds", len(seedList), "replicas", *replicas)
	}
	if ready != nil {
		ready <- bound
	}

	for {
		select {
		case err := <-errCh:
			return err
		case s := <-stop:
			if s == syscall.SIGHUP {
				reload()
				continue
			}
			logger.Info("draining", "signal", s.String())
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				return err
			}
			// The listener is stopped (in a cluster, peers notice the
			// silence and age this node out suspect->dead); flush every
			// open streaming session so end-anchored matches are emitted
			// rather than silently dropped.
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
			return nil
		}
	}
}
