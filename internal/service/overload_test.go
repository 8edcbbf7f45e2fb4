package service

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/qos"
)

// The overload experiment runs in slots. One worker serves one task per
// slot: every task blocks on a gate the test opens once a slot, and the
// service's manual clock moves one overloadSlot a slot, so the token
// buckets refill by the slot too. Each task is one DRR quantum of scan
// bytes. A noisy tenant offers 4 tasks a slot (4x capacity) and a victim
// one every 5 slots (0.2x).
const (
	overloadSlot  = 10 * time.Millisecond
	overloadBytes = drrQuantum
	overloadSlots = 3000
	noisyPerSlot  = 4
	victimEvery   = 5
)

// overloadRow is one setup's outcome. Waits are in slots: the tasks the
// worker finished between a victim task's arrival and its start.
// noisyBucket counts the noisy 429s its token bucket gave.
type overloadRow struct {
	victimWaits         []int
	victim429, noisy429 int
	noisyBucket         int
	victimRun, noisyRun int
}

// runOverload offers the two tenants' load for overloadSlots slots to a
// one-worker service with 4-slot tenant queues, with or without
// per-tenant token buckets at the node's capacity (one task a slot,
// four of burst). An offer takes Service.Scan's admission path
// (pool.submitTask charging its length): the tenant's queue, then its
// bucket; a refusal by either is a 429.
func runOverload(t *testing.T, buckets bool) overloadRow {
	t.Helper()
	var cfg qos.Config
	if buckets {
		limit := qos.Limits{ScanBytesPerSec: overloadBytes * int64(time.Second/overloadSlot), BurstBytes: 4 * overloadBytes}
		cfg.Tenants = map[string]qos.Limits{"noisy": limit, "victim": limit}
	}
	clk := clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	svc := New(Config{Workers: 1, QueueDepth: 4, QoS: cfg, Clock: clk})
	type start struct {
		tenant  string // "" for an idle slot's placeholder
		arrival int
	}
	gate, started := make(chan struct{}), make(chan start)
	task := func(tenant string, arrival int) func() {
		return func() { started <- start{tenant, arrival}; <-gate }
	}
	var row overloadRow
	pending := 0 // admitted tenant tasks the worker has not started
	offer := func(tenant string, slot int) {
		err := svc.pool.submitTask(uint64(slot), svc.QoS().Tenant(tenant), overloadBytes, overloadBytes, whole, task(tenant, slot))
		switch {
		case err == nil:
			pending++
		case !errors.Is(err, ErrQueueFull) && !errors.Is(err, qos.ErrOverLimit):
			t.Fatal(err)
		case tenant == "victim":
			row.victim429++
		default:
			row.noisy429++
			if errors.Is(err, qos.ErrOverLimit) {
				row.noisyBucket++
			}
		}
	}
	// next ends the running task and waits for the worker to start the
	// one DRR picks. With nothing queued the worker would take whichever
	// of the next slot's offers came first, so an untenanted placeholder
	// holds it idle until the next slot's offers are all queued.
	next := func(slot int) {
		if slot >= 0 {
			gate <- struct{}{}
		}
		if pending == 0 {
			if err := svc.pool.submit(0, task("", slot)); err != nil {
				t.Fatal(err)
			}
		}
		st := <-started
		switch st.tenant {
		case "victim":
			row.victimRun++
			row.victimWaits = append(row.victimWaits, slot-st.arrival)
		case "noisy":
			row.noisyRun++
		}
		if st.tenant != "" {
			pending--
		}
	}
	next(-1)
	for slot := 0; slot < overloadSlots; slot++ {
		clk.Advance(overloadSlot)
		for i := 0; i < noisyPerSlot; i++ {
			offer("noisy", slot)
		}
		if slot%victimEvery == 0 {
			offer("victim", slot)
		}
		next(slot)
	}
	close(gate)
	go func() {
		for range started {
		}
	}()
	svc.Close()
	close(started)
	return row
}

// TestOverloadExperiment weighs the overload mechanisms that remain:
// (i) DRR with bounded per-tenant queues, (ii) plus token buckets. It
// prints the table EXPERIMENTS.md records ("Overload: DRR queues, token
// buckets and the SLO shed", where the deleted SLO shed is row iii) and
// holds the victim's bounds in both: no 429, and a wait of at most the
// noisy tenant's DRR quantum per rotation, one task.
func TestOverloadExperiment(t *testing.T) {
	maxWait := int(drrQuantum / overloadBytes)
	t.Logf("%-26s %8s %8s %8s %10s %9s %12s %10s %9s", "setup", "wait p50", "wait p99", "wait max",
		"victim 429", "noisy 429", "(by bucket)", "victim run", "noisy run")
	for _, setup := range []struct {
		name    string
		buckets bool
	}{
		{"(i) DRR + bounded queues", false},
		{"(ii) + token buckets", true},
	} {
		row := runOverload(t, setup.buckets)
		w := slices.Clone(row.victimWaits)
		slices.Sort(w)
		q := func(p float64) int { return w[int(p*float64(len(w)-1))] }
		t.Logf("%-26s %8d %8d %8d %10d %9d %12d %10d %9d", setup.name, q(0.5), q(0.99), w[len(w)-1],
			row.victim429, row.noisy429, row.noisyBucket, row.victimRun, row.noisyRun)
		if want := overloadSlots / victimEvery; row.victim429 != 0 || row.victimRun != want {
			t.Errorf("%s: victim ran %d of %d tasks with %d 429s, want all and none", setup.name, row.victimRun, want, row.victim429)
		}
		if w[len(w)-1] > maxWait {
			t.Errorf("%s: victim waited %d slots, want at most %d", setup.name, w[len(w)-1], maxWait)
		}
		if row.victimRun+row.noisyRun != overloadSlots {
			t.Errorf("%s: the worker started %d tasks in %d slots, want one a slot", setup.name, row.victimRun+row.noisyRun, overloadSlots)
		}
	}
}
