package cluster_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestMembershipDeadMemberStaysDead: survivors that prune a dead node
// at different times must not hand its stale entry back and forth. Two
// tables exchange full views every 20 ms of injected time; x announced
// once (Seq frozen) and b heard of it 300 ms after a did, so a prunes x
// while b still relays it.
func TestMembershipDeadMemberStaysDead(t *testing.T) {
	const (
		step         = 20 * time.Millisecond
		suspectAfter = 150 * time.Millisecond
		deadAfter    = 500 * time.Millisecond
	)
	t0 := time.Unix(1000, 0)
	a := cluster.NewMembership("a", suspectAfter, deadAfter)
	b := cluster.NewMembership("b", suspectAfter, deadAfter)
	x := cluster.MemberInfo{ID: "x", Addr: "x:1", Seq: 7}
	a.Merge([]cluster.MemberInfo{x}, t0)

	var seq uint64
	exchange := func(now time.Time) {
		seq++
		a.Merge([]cluster.MemberInfo{{ID: "a", Addr: "a:1", Seq: seq}}, now)
		b.Merge([]cluster.MemberInfo{{ID: "b", Addr: "b:1", Seq: seq}}, now)
		fromA, fromB := a.Infos(), b.Infos()
		a.Merge(fromB, now)
		b.Merge(fromA, now)
		a.Prune(now)
		b.Prune(now)
	}
	now := t0.Add(300 * time.Millisecond)
	for _, until := range []time.Duration{2 * deadAfter, 20 * deadAfter} {
		for ; now.Sub(t0) <= until; now = now.Add(step) {
			exchange(now)
		}
		for _, ms := range []*cluster.Membership{a, b} {
			if _, ok := ms.Get("x"); ok {
				t.Fatalf("x still a member %v after its last announcement (dead after %v)", now.Sub(t0), deadAfter)
			}
		}
	}

	// A node announcing again (higher Seq) is re-admitted; its old Seq
	// relayed just after the next prune is not.
	x.Seq++
	a.Merge([]cluster.MemberInfo{x}, now)
	if !a.Alive("x") {
		t.Fatal("higher Seq did not re-admit the member")
	}
	now = now.Add(deadAfter + step)
	a.Prune(now)
	a.Merge([]cluster.MemberInfo{x}, now)
	if _, ok := a.Get("x"); ok {
		t.Fatal("stale Seq resurrected a pruned member")
	}

	// Tombstones age out, so a restarted node whose Seq began again from
	// zero is not locked out forever.
	y := cluster.MemberInfo{ID: "y", Addr: "y:1", Seq: 9}
	a.Merge([]cluster.MemberInfo{y}, now)
	for end := now.Add(8 * deadAfter); now.Before(end); now = now.Add(step) {
		exchange(now)
	}
	y.Seq = 1
	a.Merge([]cluster.MemberInfo{y}, now)
	if !a.Alive("y") {
		t.Fatal("tombstone never aged out")
	}
}
