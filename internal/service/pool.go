package service

import (
	"errors"
	"sync"

	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/stream"
)

// Errors surfaced by the worker pool.
var (
	// ErrQueueFull is backpressure: the submitting tenant's queue on the
	// target shard is at capacity. HTTP maps it to 429. Queues are
	// per-tenant, so one tenant's backlog never consumes another's
	// capacity.
	ErrQueueFull = errors.New("service: worker queue full")
	// ErrClosed reports submission to a shut-down service.
	ErrClosed = errors.New("service: closed")
)

// drrQuantum is the deficit-round-robin base quantum in cost units
// (bytes for scan traffic): every scheduling round adds quantum × weight
// of credit to a backlogged tenant, so served bytes divide by weight.
const drrQuantum = 32 << 10

// task is one unit of work: a flow identity (session or one-shot scan),
// its scheduling cost (input bytes; 1 for control work), and the closure
// to run. keep marks a part of a request with more parts to come, whose
// queue slot outlives it.
type task struct {
	flow uint64
	cost int64
	run  func()
	keep bool
}

// part says where a task stands in a request the pool admits once and
// runs as several tasks, one after another on one flow: a one-shot scan
// in chunks. Such a request holds one slot of its tenant's queue from its
// first part's admission until its final part runs, so a later part never
// meets a full queue or a refusal, and a request the queue admitted
// always finishes.
type part uint8

const (
	whole  part = iota // the request's only task: admitted, frees its slot when it runs
	first              // admitted, and keeps its slot when it runs
	middle             // runs on the kept slot and keeps it
	final              // runs on the kept slot and frees it
)

// tenantQueue is one tenant's bounded FIFO on one shard plus its DRR
// state. The nil-tenant queue serves untenanted work (direct API calls
// without a tenant context) at weight 1.
type tenantQueue struct {
	ten     *qos.Tenant // nil for the untenanted default queue
	q       *stream.FIFO[task]
	deficit int64
	// taken counts the slots in use: a queued task's, or a request's
	// between its parts (part). It never passes the queue depth.
	taken int
	// topped marks that this queue already received its quantum for the
	// current round-robin visit — DRR credits once per visit, not once
	// per pop, or a lone backlogged queue would never yield the worker.
	topped bool
}

// weight returns the queue's live fair-share weight; reading it per
// scheduling decision makes config reloads take effect immediately.
func (tq *tenantQueue) weight() int64 {
	if tq.ten == nil {
		return 1
	}
	return int64(tq.ten.Weight())
}

// pool is a sharded worker pool with weighted fair queueing: one
// goroutine per shard, each serving a set of per-tenant bounded FIFOs
// (the same stream.FIFO that models the §3.3 bank input buffers) by
// deficit round robin. Tasks are routed to shards by flow, so all chunks
// of one session land on one shard and — because a flow belongs to
// exactly one tenant, whose shard queue is FIFO — execute in submission
// order: flow affinity is preserved *within* a tenant while the DRR
// schedule divides shard bandwidth *between* tenants by weight. A worker
// that pops a task from a different flow than its previous one counts a
// context switch, mirroring the flows experiment's accounting for
// multi-flow multiplexing cost.
type pool struct {
	shards     []*shard
	queueDepth int

	submitted metrics.Counter
	rejected  metrics.Counter
	switches  metrics.Counter
	queued    metrics.Gauge

	wg sync.WaitGroup
}

type shard struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[string]*tenantQueue // tenant name -> queue; "" = untenanted
	// ring holds the backlogged queues in round-robin order; a queue is
	// in the ring iff it is non-empty.
	ring     []*tenantQueue
	next     int // ring cursor
	closed   bool
	lastFlow uint64
	hasLast  bool
}

func newPool(workers, queueDepth int) *pool {
	p := &pool{shards: make([]*shard, workers), queueDepth: queueDepth}
	for i := range p.shards {
		sh := &shard{queues: map[string]*tenantQueue{}}
		sh.cond = sync.NewCond(&sh.mu)
		p.shards[i] = sh
		p.wg.Add(1)
		go p.worker(sh)
	}
	return p
}

// noCharge is submitTask's charge for work the tenant's bucket does not
// meter: control tasks, and the later chunks of a scan whose whole length
// its first chunk was charged.
const noCharge = -1

// submit enqueues untenanted unit-cost work on flow's shard — the
// compile pool and direct API paths without a tenant context use this.
func (p *pool) submit(flow uint64, run func()) error {
	return p.submitTask(flow, nil, 1, noCharge, whole, run)
}

// submitTask enqueues run on flow's shard under ten's queue with the
// given DRR cost. A whole or first part is admitted: it fails fast with
// ErrQueueFull when that tenant's queue on the shard is at capacity — the
// caller turns this into backpressure rather than blocking the accept
// path, and other tenants' queues are unaffected — and, unless charge is
// noCharge, ten's bucket must then admit charge bytes (AdmitScan): a
// queue-full refusal spends none. A middle or final part runs on the slot
// its first part kept, is refused only by a closed pool, and has its
// charge debited without a test (DebitScan).
func (p *pool) submitTask(flow uint64, ten *qos.Tenant, cost, charge int64, pt part, run func()) error {
	sh, name := p.shardOf(flow), queueName(ten)
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return ErrClosed
	}
	tq, ok := sh.queues[name]
	if !ok {
		tq = &tenantQueue{ten: ten, q: stream.NewFIFO[task](p.queueDepth)}
		sh.queues[name] = tq
	}
	if pt == middle || pt == final {
		if charge != noCharge {
			ten.DebitScan(int(charge))
		}
	} else {
		if tq.taken == p.queueDepth {
			sh.mu.Unlock()
			p.rejected.Inc()
			return ErrQueueFull
		}
		if charge != noCharge {
			if err := ten.AdmitScan(int(charge)); err != nil {
				sh.mu.Unlock()
				return err
			}
		}
		tq.taken++
	}
	if tq.q.Empty() {
		sh.ring = append(sh.ring, tq)
	}
	tq.q.Push(task{flow: flow, cost: max(cost, 1), run: run, keep: pt == first || pt == middle})
	p.submitted.Inc()
	p.queued.Add(1)
	sh.cond.Signal()
	sh.mu.Unlock()
	return nil
}

// popDRR pops the next task under deficit round robin. Caller holds
// sh.mu and guarantees the ring is non-empty. The first time a visit
// reaches a queue it earns one quantum × weight of credit; the queue
// then keeps the turn while its deficit covers its head task and yields
// to the next queue when it runs short (earning nothing more until the
// rotation comes back around) — so over a full rotation every
// backlogged tenant is served cost in proportion to its weight,
// regardless of task sizes.
func (sh *shard) popDRR() task {
	for {
		if sh.next >= len(sh.ring) {
			sh.next = 0
		}
		tq := sh.ring[sh.next]
		if !tq.topped {
			tq.deficit += drrQuantum * tq.weight()
			tq.topped = true
		}
		head, _ := tq.q.Peek()
		if tq.deficit < head.cost {
			tq.topped = false // a fresh quantum next visit
			sh.next++
			continue
		}
		t, _ := tq.q.Pop()
		tq.deficit -= t.cost
		if !t.keep {
			tq.taken--
		}
		if tq.q.Empty() {
			// An idling tenant keeps no credit (classic DRR), so a
			// returning burst cannot claim bandwidth it did not use.
			tq.deficit = 0
			tq.topped = false
			sh.ring = append(sh.ring[:sh.next], sh.ring[sh.next+1:]...)
		}
		return t
	}
}

func (p *pool) worker(sh *shard) {
	defer p.wg.Done()
	for {
		sh.mu.Lock()
		for len(sh.ring) == 0 && !sh.closed {
			sh.cond.Wait()
		}
		if len(sh.ring) == 0 {
			// Closed and drained.
			sh.mu.Unlock()
			return
		}
		t := sh.popDRR()
		if sh.hasLast && sh.lastFlow != t.flow {
			p.switches.Inc()
		}
		sh.lastFlow, sh.hasLast = t.flow, true
		sh.mu.Unlock()
		p.queued.Add(-1)
		t.run()
	}
}

// release frees the slot a request of several parts kept on flow's shard
// under ten's queue when it ends before its final part.
func (p *pool) release(flow uint64, ten *qos.Tenant) {
	sh := p.shardOf(flow)
	sh.mu.Lock()
	sh.queues[queueName(ten)].taken--
	sh.mu.Unlock()
}

// shardOf is the shard that runs flow's tasks.
func (p *pool) shardOf(flow uint64) *shard { return p.shards[flow%uint64(len(p.shards))] }

// queueName keys ten's queue in a shard's queues; "" is untenanted work.
func queueName(ten *qos.Tenant) string {
	if ten == nil {
		return ""
	}
	return ten.Name()
}

// close stops accepting work, drains queued tasks, and waits for workers.
func (p *pool) close() {
	for _, sh := range p.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	p.wg.Wait()
}

// PoolStats is the JSON snapshot of the pool counters.
type PoolStats struct {
	Workers         int   `json:"workers"`
	QueueCapacity   int   `json:"queue_capacity_per_tenant_per_worker"`
	QueueDepth      int64 `json:"queue_depth"`
	TenantQueues    int   `json:"tenant_queues"`
	Submitted       int64 `json:"submitted"`
	Rejected        int64 `json:"rejected"`
	ContextSwitches int64 `json:"context_switches"`
}

func (p *pool) stats() PoolStats {
	queues := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		queues += len(sh.queues)
		sh.mu.Unlock()
	}
	return PoolStats{
		Workers:         len(p.shards),
		QueueCapacity:   p.queueDepth,
		QueueDepth:      p.queued.Value(),
		TenantQueues:    queues,
		Submitted:       p.submitted.Value(),
		Rejected:        p.rejected.Value(),
		ContextSwitches: p.switches.Value(),
	}
}
