// Package service is the multi-tenant serving layer of the reproduction:
// a long-lived match service in front of the refmatch engine, shaped like
// the systems the paper positions RAP against (Hyperscan's
// compile-once/scan-many, persistent per-stream state) and like the
// paper's own bank I/O subsystem (§3.3), which multiplexes many
// independent input flows over one set of compiled patterns.
//
// Five pieces compose it:
//
//   - A program cache: pattern sets compile once into an immutable
//     refmatch.Matcher, keyed by a content hash of (patterns, options),
//     with LRU eviction and single-flight deduplication so concurrent
//     requests for the same ruleset compile exactly once.
//
//   - One-shot scans: POST /v1/programs/{id}/scan streams its body in
//     chunks of at most 256 KiB through one pooled buffer and one pooled
//     refmatch.Session, each chunk one pool task on the request's flow
//     and the last fed as the end of the input, so a request holds one
//     chunk, not its body, and answers what a whole-buffer scan does.
//     The first chunk is admitted for the whole request and keeps one
//     queue slot until the last, so an admitted scan is not refused
//     midway.
//
//   - Streaming sessions: a client opens a session against a cached
//     program and feeds input in chunks; all engine state (DFA rows,
//     NBVA vectors, prefilter windows and history) persists between
//     chunks via refmatch.Session — the software analogue of §3.3's
//     per-flow context switch, where only active vectors are swapped and
//     the CAM contents stay put.
//
//   - A sharded worker pool: scans execute on N workers (≈ GOMAXPROCS)
//     behind bounded per-tenant FIFO queues (internal/stream's
//     bank-buffer FIFO) served by deficit round robin, with queue-full
//     backpressure surfaced to clients as 429s. Chunks of one session
//     always hash to the same shard and one tenant's shard queue is
//     FIFO, so per-stream order is preserved without locks across
//     scans, and per-worker flow context switches are counted exactly
//     as the flows experiment counts them.
//
//   - Tenant QoS (internal/qos): requests are attributed to the tenant
//     named by the identity header; admission control (scan-byte token
//     buckets, session caps, compile slots) rejects over-limit work
//     with 429 + a Retry-After computed from the tenant's bucket, DRR
//     weights divide scan bandwidth under contention, and every
//     resource — scan bytes, compile capacity, program-cache bytes —
//     is accounted to its tenant (rap_tenant_* on /metrics, the qos
//     block on /v1/stats).
//
// Every request is traced and metered through internal/telemetry: the
// API handlers run inside a tracing middleware (traceparent in,
// X-Trace-Id out, one slog access-log line), the request path is broken
// into per-stage histograms (body_read, cache_lookup, compile,
// queue_wait, scan, encode, reconfig_apply) exposed in Prometheus text
// format at /metrics, and finished traces land in a ring served at
// /debug/traces. Each stage is observed once per request: a one-shot
// scan sums body_read, queue_wait and scan over its chunks into one
// histogram sample and one span, and its scan span carries the chunk
// count (chunks).
//
// The HTTP surface (see Handler) is exercised by cmd/rapserve.
package service
