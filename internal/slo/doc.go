// Package slo closes the telemetry loop: it turns the raw rap_* series
// the serving stack emits into machine-judgeable good/bad decisions.
//
// The core is a rolling multi-window burn-rate engine in the Google-SRE
// style: every objective (request latency, error rate, per-stage p99,
// per-tenant queue wait) counts good and bad events into a ring of
// aligned time buckets and evaluates two windows over it — a fast window
// that reacts within seconds and a slow window that filters noise. The
// burn rate is the observed bad fraction divided by the objective's
// error budget (1 - target): burn 1.0 spends the budget exactly at the
// target rate, burn N spends it N times too fast. An objective breaches
// when both windows exceed their thresholds; the fast window alone is
// the early-warning signal.
//
// On top of the engine sit two consumers:
//
//   - A health Scorer folds burn rates and subsystem probes (worker-pool
//     saturation, program-cache pressure, reconfig stalls) into per-
//     component scores and one overall score — the per-node signal
//     served at /v1/health (and gossiped by cluster mode).
//   - A breach flight recorder: every objective state escalation is
//     logged with a snapshot of the slow-trace ring, so each SLO
//     violation on /debug/slo links directly to representative traces
//     (whose IDs resolve on /debug/traces and, via exemplars, on
//     /metrics).
//
// Engine.Start evaluates every objective once per EvaluateEvery on the
// engine's clock, so an escalation is logged within a second. The
// engine observes and reports; it admits nothing. Overload is answered
// by the QoS layer alone: per-tenant token buckets and the worker pool's
// bounded per-tenant deficit-round-robin queues (EXPERIMENTS.md,
// "Overload: DRR queues, token buckets and the SLO shed").
//
// Objectives are configured by a JSON file (rapserve -slo-config)
// reloaded on SIGHUP, mirroring the QoS limits file. The zero Config
// means the default objectives.
package slo
