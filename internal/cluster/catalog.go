package cluster

import (
	"sort"
	"sync"

	"repro/internal/service"
)

// ProgramMeta is everything a replica needs to materialize a program it
// does not hold. Patterns/Options are the ID-DEFINING source: the ID is
// the service's content-hash of exactly that pair, so meta is
// self-certifying (compiling Patterns with Options on any node yields
// ID) and those fields never change. A promoted ruleset update instead
// lands in LivePatterns/LiveOptions — a repairing node first compiles
// the original to claim the ID, then hot-swaps to the live ruleset
// through the same RAPD delta path the rollout used.
type ProgramMeta struct {
	ID       string                 `json:"id"`
	Patterns []string               `json:"patterns"`
	Options  service.CompileOptions `json:"options"`
	// LivePatterns/LiveOptions are the current ruleset when Generation
	// > 0; nil LivePatterns means the original is still live.
	LivePatterns []string               `json:"live_patterns,omitempty"`
	LiveOptions  service.CompileOptions `json:"live_options,omitempty"`
	// Generation is the cluster-level ruleset version: it increments on
	// every promoted (or directly applied) update, and digest gossip
	// uses it to detect staleness. It is distinct from the per-node
	// reconfig generation reported by UpdateResult.
	Generation int64 `json:"generation"`
	// Replicas is the placement width for this program. It only grows
	// (merged by max), bumped by nodes that observe hot scan traffic.
	Replicas int `json:"replicas"`
	// ScanRate is the last observed routed-scan rate (informational).
	ScanRate float64 `json:"scan_rate,omitempty"`
}

// Live returns the currently live ruleset.
func (m ProgramMeta) Live() ([]string, service.CompileOptions) {
	if m.LivePatterns != nil {
		return m.LivePatterns, m.LiveOptions
	}
	return m.Patterns, m.Options
}

// ProgramDigest is the compact form piggybacked on gossip. A peer whose
// catalog entry is missing or older fetches the full meta from the
// announcing node (fetch-on-stale keeps announcements small no matter
// how large rulesets get).
type ProgramDigest struct {
	ID         string `json:"id"`
	Generation int64  `json:"generation"`
	Replicas   int    `json:"replicas"`
}

// Catalog is the gossip-replicated program directory.
type Catalog struct {
	mu sync.Mutex
	m  map[string]*ProgramMeta
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{m: map[string]*ProgramMeta{}}
}

// Put merges meta into the catalog. A higher Generation replaces the
// live ruleset; the ID-defining original is immutable once known.
// Replicas always merges by max so a fan-out decision anywhere in the
// cluster is never undone by a stale peer. It reports news: a program
// the catalog lacked, or a higher generation.
func (c *Catalog) Put(meta ProgramMeta) bool {
	if meta.ID == "" {
		return false
	}
	if meta.Replicas < 1 {
		meta.Replicas = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.m[meta.ID]
	if !ok {
		cp := meta
		c.m[meta.ID] = &cp
		return true
	}
	news := meta.Generation > cur.Generation
	if news {
		cur.LivePatterns = meta.LivePatterns
		cur.LiveOptions = meta.LiveOptions
		cur.Generation = meta.Generation
	}
	if meta.Replicas > cur.Replicas {
		cur.Replicas = meta.Replicas
	}
	if meta.ScanRate > cur.ScanRate {
		cur.ScanRate = meta.ScanRate
	}
	return news
}

// Get returns the meta for id.
func (c *Catalog) Get(id string) (ProgramMeta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.m[id]
	if !ok {
		return ProgramMeta{}, false
	}
	return *m, true
}

// SetReplicas raises id's placement width to n (never lowers).
func (c *Catalog) SetReplicas(id string, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.m[id]; ok && n > m.Replicas {
		m.Replicas = n
	}
}

// SetScanRate records the latest observed routed-scan rate for id.
func (c *Catalog) SetScanRate(id string, rate float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.m[id]; ok {
		m.ScanRate = rate
	}
}

// List returns all metas sorted by ID.
func (c *Catalog) List() []ProgramMeta {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ProgramMeta, 0, len(c.m))
	for _, m := range c.m {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the catalog size.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Digests returns the compact gossip form of the catalog.
func (c *Catalog) Digests() []ProgramDigest {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ProgramDigest, 0, len(c.m))
	for _, m := range c.m {
		out = append(out, ProgramDigest{ID: m.ID, Generation: m.Generation, Replicas: m.Replicas})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stale reports whether d advertises a program this catalog is missing
// or holds at an older generation — i.e. whether a fetch is needed.
// A wider Replicas alone is merged directly (no fetch required).
func (c *Catalog) Stale(d ProgramDigest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.m[d.ID]
	if !ok {
		return true
	}
	if d.Replicas > cur.Replicas {
		cur.Replicas = d.Replicas
	}
	return d.Generation > cur.Generation
}
