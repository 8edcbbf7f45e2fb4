package cluster

import (
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVNodes is the virtual-node count per member. 96 points per
// node keeps the owner distribution within a few percent of uniform at
// cluster sizes this layer targets (units to tens of nodes) while a
// membership change still only remaps the ~K/N keys whose nearest point
// belonged to the joining/leaving node — the bounded-movement property
// the rebalance test pins.
const DefaultVNodes = 96

// Ring is a consistent-hash ring over node IDs. Program content-hash
// fingerprints map to the member owning the first ring point at or
// after the key's hash; replicas are the next distinct members
// clockwise. The mapping is a pure function of the member set, so every
// node that has converged on membership computes identical placements
// with no coordination.
type Ring struct {
	mu     sync.RWMutex
	vnodes int
	points []ringPoint // sorted by hash
	member map[string]struct{}
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring with vnodes virtual nodes per member
// (0 = DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, member: map[string]struct{}{}}
}

func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func vnodeKey(node string, i int) string {
	// node IDs are short; a fixed separator keeps "n1"+11 and "n11"+1
	// from colliding.
	return node + "#" + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10))
}

// Add inserts a member. Adding an existing member is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.member[node]; ok {
		return
	}
	r.member[node] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: hashKey(vnodeKey(node, i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member and its ring points.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.member[node]; !ok {
		return
	}
	delete(r.member, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Members returns the current member set, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.member))
	for m := range r.member {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.member)
}

// Owner returns the member owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	p := r.Placement(key, 1)
	if len(p) == 0 {
		return ""
	}
	return p[0]
}

// Placement returns up to n distinct members for key, owner first, then
// replicas clockwise. n is clamped to the member count.
func (r *Ring) Placement(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.member) {
		n = len(r.member)
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for scanned := 0; scanned < len(r.points) && len(out) < n; scanned++ {
		p := r.points[(i+scanned)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}
