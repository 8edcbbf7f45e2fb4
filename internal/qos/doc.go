// Package qos is the multi-tenant quality-of-service layer of the
// serving stack: it turns the shared match engine into a budgeted
// resource, following the lapidary multi-tenancy model (N tenants
// time-multiplexed on one fabric) of making every hardware resource
// scheduler-visible.
//
// Three resources are modeled per tenant:
//
//   - Scan bandwidth: a token bucket over scan bytes per second with a
//     configurable burst. Over-limit work is rejected up front with a
//     typed *LimitError carrying the bucket refill time, which the HTTP
//     layer surfaces as 429 + Retry-After.
//   - Concurrent capacity: caps on open streaming sessions and in-flight
//     compiles (the compile-slot budget), so one tenant cannot occupy
//     every compile worker or pin the session table.
//   - Cache footprint: compiled-program bytes are charged to the owning
//     tenant for the lifetime of the cache entry, so the scheduler can
//     see who holds the shared program cache.
//
// Tenants are identified by a configurable HTTP header (DefaultHeader);
// requests without one fall back to the Anonymous tenant. A Registry
// materializes tenants on first sight with the configured default
// limits (at most MaxUnlistedTenants for names the configuration does
// not list; later ones share Anonymous), applies per-tenant overrides,
// and supports live reconfiguration (SetConfig — rapserve wires it to
// SIGHUP), which re-limits existing tenants in place.
//
// The Weight limit feeds the service worker pool's deficit-round-robin
// queues: under contention, scan bandwidth divides between backlogged
// tenants in proportion to their weights (see internal/service/pool.go).
//
// Accounting (scans, bytes, matches, throttles, queue-wait latency) is
// lock-free on the hot path and snapshotted by /v1/stats and the
// rap_tenant_* series on /metrics.
package qos
