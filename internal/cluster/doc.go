// Package cluster turns single-node rapserve instances into a sharded,
// replicated scan cluster behind the same /v1 wire API.
//
// Four mechanisms compose, each deliberately small:
//
//   - Membership: a static seed list bootstraps lightweight gossip.
//     Every node re-announces itself to one peer each tick with a bumped
//     sequence number plus a load snapshot (health score from
//     service.Health, queue depth, scan rate); peers merge by highest Seq and age
//     entries through alive → suspect → dead on local timeouts. A start,
//     a new program or a promoted ruleset is announced to every peer at
//     once, and a merged view puts new members on the ring. No
//     coordinator, no quorum — the placement function tolerates
//     short-lived view skew because misrouted scans self-repair.
//
//   - Placement: a consistent-hash ring (Ring) over program
//     content-hash fingerprints. The program ID already IS a content
//     hash of (patterns, options) — service.ProgramKey lets any node
//     derive it from a compile request before compiling — so placement
//     needs no lookup table and every converged node computes the same
//     owner and replica set. Virtual nodes bound movement on membership
//     change to ~K/N placements (pinned by the rebalance test).
//
//   - Proxying: each node serves the full /v1 surface and forwards
//     what it does not own (X-RAP-Forwarded breaks loops; forwarded
//     requests always serve locally). Scans fan out round-robin over
//     the program's live replicas; a replica that misses its local
//     program cache repairs lazily by compiling from the gossiped
//     catalog. Session IDs are cluster-qualified ("node~sid") so
//     streamed feeds stay node-sticky — flow affinity survives ring
//     changes because routing is by ID prefix, not by hash.
//
//   - Canary rollout: a ruleset update (PUT /v1/programs/{id}) stages
//     the RAPD reconfiguration delta on a fraction of the replicas,
//     watches each canary's health score and the requests it finished
//     since staging (5xx and slow shares) over an observation window,
//     then promotes to the remaining replicas or rolls the canaries back — in-flight sessions ride through on the
//     service layer's generation pinning.
package cluster
