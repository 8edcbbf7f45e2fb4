package cluster

import (
	"sort"
	"sync"
	"time"
)

// MemberInfo is one node's self-announcement: identity, advertised
// address, a monotonically increasing sequence number, and the load
// snapshot peers route on. Programs piggybacks the node's catalog
// digest so program metadata spreads with membership instead of
// needing its own protocol.
type MemberInfo struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Seq increments every time the node re-announces itself. An entry
	// only replaces a known one when its Seq is higher, so stale views
	// relayed by third parties cannot roll a member backwards.
	Seq uint64 `json:"seq"`
	// Health is the node's service.Health score in [0,1].
	Health float64 `json:"health"`
	// QueueDepth is the scan pool's queued work at announcement time.
	QueueDepth int64 `json:"queue_depth"`
	// ScanRate is the node's recent scans/second.
	ScanRate float64 `json:"scan_rate"`
	// Programs is the announcing node's program-catalog digest.
	Programs []ProgramDigest `json:"programs,omitempty"`
}

// Member states derived from how recently a node's Seq advanced.
const (
	StateAlive   = "alive"
	StateSuspect = "suspect"
	StateDead    = "dead"
)

// Member is a membership-table entry: the last announcement merged for
// a node plus the liveness state derived from local observation time.
type Member struct {
	MemberInfo
	State    string    `json:"state"`
	LastSeen time.Time `json:"last_seen"`
}

// Membership is the gossip-maintained member table. It is clock-local:
// LastSeen records when THIS node last saw a member's Seq advance, so
// liveness judgments never depend on cross-node clock agreement.
type Membership struct {
	mu           sync.Mutex
	self         string
	suspectAfter time.Duration
	deadAfter    time.Duration
	m            map[string]*Member
	// tombs remembers the last Seq of every member pruned as dead, so a
	// peer that has not pruned it yet cannot relay the stale entry back
	// in: only a higher Seq — the node itself announcing again —
	// re-admits it. Entries age out after tombstoneLife × deadAfter, by
	// when every peer has pruned the member too.
	tombs map[string]tombstone
}

type tombstone struct {
	seq  uint64
	died time.Time
}

const tombstoneLife = 4

// NewMembership returns a table for the given local node ID. A member
// whose Seq has not advanced for suspectAfter is suspect (kept in the
// ring but skipped for new work); after deadAfter it is dead and
// dropped from table and ring.
func NewMembership(self string, suspectAfter, deadAfter time.Duration) *Membership {
	return &Membership{
		self:         self,
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
		m:            map[string]*Member{},
		tombs:        map[string]tombstone{},
	}
}

// Merge folds a batch of announcements into the table, keeping each
// member's highest-Seq entry and ignoring entries at or below the Seq a
// member was pruned at. It returns the news, each ID once: the members
// the table did not hold, new or re-admitted. A Seq bump is not news.
func (ms *Membership) Merge(infos []MemberInfo, now time.Time) []string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	var joined []string
	for _, in := range infos {
		if in.ID == "" {
			continue
		}
		cur, ok := ms.m[in.ID]
		if !ok {
			if tomb, dead := ms.tombs[in.ID]; dead && in.Seq <= tomb.seq {
				continue
			}
			delete(ms.tombs, in.ID)
			ms.m[in.ID] = &Member{MemberInfo: in, State: StateAlive, LastSeen: now}
			joined = append(joined, in.ID)
			continue
		}
		if in.Seq > cur.Seq {
			cur.MemberInfo = in
			cur.State = StateAlive
			cur.LastSeen = now
		}
	}
	return joined
}

// Prune re-derives liveness states and drops dead members, returning
// the IDs removed so the caller can shrink the ring.
func (ms *Membership) Prune(now time.Time) []string {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	var dead []string
	for id, m := range ms.m {
		if id == ms.self {
			continue
		}
		age := now.Sub(m.LastSeen)
		switch {
		case age > ms.deadAfter:
			dead = append(dead, id)
			delete(ms.m, id)
			ms.tombs[id] = tombstone{seq: m.Seq, died: now}
		case age > ms.suspectAfter:
			m.State = StateSuspect
		default:
			m.State = StateAlive
		}
	}
	for id, tomb := range ms.tombs {
		if now.Sub(tomb.died) > tombstoneLife*ms.deadAfter {
			delete(ms.tombs, id)
		}
	}
	sort.Strings(dead)
	return dead
}

// View returns every table entry (all states), sorted by ID.
func (ms *Membership) View() []Member {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	out := make([]Member, 0, len(ms.m))
	for _, m := range ms.m {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Infos returns the announcement view gossiped to peers.
func (ms *Membership) Infos() []MemberInfo {
	view := ms.View()
	out := make([]MemberInfo, len(view))
	for i, m := range view {
		out[i] = m.MemberInfo
	}
	return out
}

// Get returns a member by ID.
func (ms *Membership) Get(id string) (Member, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.m[id]
	if !ok {
		return Member{}, false
	}
	return *m, true
}

// Alive reports whether id is present and not suspect/dead. The local
// node is always alive to itself.
func (ms *Membership) Alive(id string) bool {
	if id == ms.self {
		return true
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	m, ok := ms.m[id]
	return ok && m.State == StateAlive
}
