package cluster

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzGossipView feeds arbitrary bytes through decodePeer, the decode a
// node runs on a peer's gossip reply and on the program meta it fetches,
// then merges the view into a membership table at a fixed now, as absorb
// does, and puts the meta into a catalog, as fetchProgram does. Nothing
// panics, and a member pruned as dead at Seq 5 stays out unless the view
// announces it at a higher Seq, when it comes back at the highest one.
// Merge reports as news each ID the table lacked, once, the dead member
// only when its tombstone let it back in, and no Seq bump.
func FuzzGossipView(f *testing.F) {
	for _, v := range []gossipResponse{
		{View: []MemberInfo{{ID: "n1", Addr: "http://n1", Seq: 3, Health: 1}}},
		{View: []MemberInfo{{ID: "dead", Seq: 5}, {ID: "dead", Seq: 4}}},
		{View: []MemberInfo{{ID: "dead", Seq: 6, Programs: []ProgramDigest{{ID: "p", Generation: 2, Replicas: 3}}}, {ID: "dead", Seq: 9}}},
		{View: []MemberInfo{{ID: ""}, {ID: "self", Seq: 1 << 63}}},
	} {
		b, _ := json.Marshal(v)
		f.Add(b)
	}
	meta, _ := json.Marshal(ProgramMeta{ID: "p", Patterns: []string{"cat"}, LivePatterns: []string{"dog"}, Generation: 2, Replicas: -1})
	f.Add(meta)
	f.Add([]byte(`{"view":[{"id":"dead","seq":-1}]}`))
	f.Add([]byte(`{"view":[{"id":"dead","seq":18446744073709551615,"health":1e400}]}`))
	f.Add([]byte(`{"view":null,"id":"p","generation":1}{"view":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		now := time.Unix(1_700_000_000, 0)
		ms := NewMembership("self", time.Second, 2*time.Second)
		ms.Merge([]MemberInfo{{ID: "self", Seq: 1}, {ID: "dead", Seq: 5}}, now.Add(-10*time.Second))
		if pruned := ms.Prune(now.Add(-time.Second)); len(pruned) != 1 || pruned[0] != "dead" {
			t.Fatalf("pruned %v", pruned)
		}
		var reply gossipResponse
		if decodePeer(bytes.NewReader(data), &reply) == nil {
			joined := ms.Merge(reply.View, now)
			var highest uint64
			news := map[string]bool{}
			for _, in := range reply.View {
				if in.ID == "dead" {
					highest = max(highest, in.Seq)
				}
				news[in.ID] = in.ID != "" && in.ID != "self" && in.ID != "dead"
			}
			news["dead"] = highest > 5
			for _, id := range joined {
				if !news[id] {
					t.Fatalf("view %q: Merge reported %q as news (again, or not new)", data, id)
				}
				news[id] = false
			}
			for id, missed := range news {
				if missed {
					t.Fatalf("view %q: Merge did not report new member %q", data, id)
				}
			}
			m, back := ms.Get("dead")
			if back != (highest > 5) || back && m.Seq != highest {
				t.Fatalf("view %q: member back %v at Seq %d, highest announced %d", data, back, m.Seq, highest)
			}
		}
		var meta ProgramMeta
		if decodePeer(bytes.NewReader(data), &meta) == nil {
			c := NewCatalog()
			c.Put(meta)
			if got, ok := c.Get(meta.ID); ok && got.Replicas < 1 {
				t.Fatalf("meta %q kept %d replicas", data, got.Replicas)
			}
		}
	})
}
