package admit

import (
	"context"
	"sync"
	"time"

	"dita/internal/obs"
)

// CostPolicy bounds admission by predicted query cost instead of a flat
// concurrency cap. Where Policy treats every query as weight 1, a
// CostGate charges each query its predicted execution cost (µs, from
// the serving layer's EWMA model) against a shared budget — ten cheap
// point lookups and one partition-spanning join are no longer the same
// load. This is the scheduler-style admission LocationSpark argues for:
// price queries before running them, shed by price.
type CostPolicy struct {
	// BudgetUS is the total predicted cost (µs) allowed to execute
	// concurrently. <= 0 disables the gate (Acquire admits everything).
	BudgetUS int64
	// MaxQueue bounds queries waiting for budget beyond the admitted
	// set; arrivals past it fail fast with ErrOverloaded. Default 0.
	MaxQueue int
	// QueueTimeout caps a queued query's wait before it gives up with
	// ErrOverloaded (default 1s).
	QueueTimeout time.Duration
}

func (p CostPolicy) withDefaults() CostPolicy {
	if p.MaxQueue < 0 {
		p.MaxQueue = 0
	}
	if p.QueueTimeout <= 0 {
		p.QueueTimeout = time.Second
	}
	return p
}

// costWaiter is one queued acquisition. granted flips under the gate's
// lock before ready is closed, so a waiter that times out concurrently
// with its grant can detect the race and give the budget back.
type costWaiter struct {
	cost    int64
	ready   chan struct{}
	granted bool
}

// CostGate admits queries against a concurrent predicted-cost budget.
// A nil *CostGate admits everything. Admission is work-conserving: a
// query whose predicted cost exceeds the whole budget still runs when
// nothing else is in flight (otherwise it could never run at all), and
// queued queries are served strictly FIFO so an expensive query at the
// head is not starved by cheap queries slipping past it.
type CostGate struct {
	policy CostPolicy
	met    *gateMetrics
	// unit marks a count gate (New): every query costs 1, so a cost gauge
	// would only repeat queries_inflight.
	unit bool

	mu       sync.Mutex
	used     int64 // sum of admitted queries' predicted costs
	inflight int
	queue    []*costWaiter
}

type gateMetrics struct {
	admitted  *obs.Counter
	rejected  *obs.Counter
	cancelled *obs.Counter
	wait      *obs.Histogram
}

// NewCostGate builds a gate for the policy, or nil when the policy
// disables cost admission (BudgetUS <= 0).
func NewCostGate(p CostPolicy) *CostGate {
	if p.BudgetUS <= 0 {
		return nil
	}
	return &CostGate{policy: p.withDefaults()}
}

// Instrument registers the gate's state on a metrics registry under
// <prefix>_: queries_inflight / queries_waiting gauges (plus
// cost_inflight_us on a cost gate), admitted/rejected/cancelled counters,
// and a queue-wait histogram (µs, observed only for queries that queued —
// the fast path stays clock-free). Call before serving queries; a nil gate
// or registry is a no-op.
func (g *CostGate) Instrument(r *obs.Registry, prefix string) {
	if g == nil || r == nil {
		return
	}
	if !g.unit {
		r.GaugeFunc(prefix+"_cost_inflight_us", func() int64 { return g.UsedUS() })
	}
	r.GaugeFunc(prefix+"_queries_inflight", func() int64 { return int64(g.InFlight()) })
	r.GaugeFunc(prefix+"_queries_waiting", func() int64 { return int64(g.Waiting()) })
	g.met = &gateMetrics{
		admitted:  r.Counter(prefix + "_admitted_total"),
		rejected:  r.Counter(prefix + "_rejected_total"),
		cancelled: r.Counter(prefix + "_cancelled_total"),
		wait:      r.Histogram(prefix + "_queue_wait_us"),
	}
}

// fitsLocked reports whether a query of the given cost may start now.
func (g *CostGate) fitsLocked(cost int64) bool {
	return g.used+cost <= g.policy.BudgetUS || g.inflight == 0
}

// Acquire admits one query of predicted cost (µs), queueing FIFO when
// the budget is spent. The returned release gives the budget back and
// must be called exactly once (safe to defer immediately). Errors:
// ErrOverloaded when the queue is full or the wait times out, ctx.Err()
// when the caller's context ends first. Costs < 1 are charged as 1 so
// an uninitialized model cannot admit unboundedly.
func (g *CostGate) Acquire(ctx context.Context, cost int64) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	if cost < 1 {
		cost = 1
	}
	g.mu.Lock()
	// FIFO: even with budget free, fall through to the queue when
	// someone is already waiting — admitting around them would starve
	// expensive queries at the head.
	if len(g.queue) == 0 && g.fitsLocked(cost) {
		g.used += cost
		g.inflight++
		g.mu.Unlock()
		if g.met != nil {
			g.met.admitted.Inc()
		}
		return g.releaseFn(cost), nil
	}
	if len(g.queue) >= g.policy.MaxQueue {
		g.mu.Unlock()
		if g.met != nil {
			g.met.rejected.Inc()
		}
		return nil, ErrOverloaded
	}
	w := &costWaiter{cost: cost, ready: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.mu.Unlock()

	var qStart time.Time
	if g.met != nil {
		qStart = time.Now()
	}
	t := time.NewTimer(g.policy.QueueTimeout)
	defer t.Stop()
	select {
	case <-w.ready:
		if g.met != nil {
			g.met.admitted.Inc()
			g.met.wait.Observe(time.Since(qStart).Microseconds())
		}
		return g.releaseFn(cost), nil
	case <-t.C:
		if g.abandon(w) {
			if g.met != nil {
				g.met.rejected.Inc()
			}
			return nil, ErrOverloaded
		}
		// Granted in the same instant the timer fired: the budget is
		// charged, so give it back rather than run past the deadline.
		g.releaseFn(cost)()
		if g.met != nil {
			g.met.rejected.Inc()
		}
		return nil, ErrOverloaded
	case <-ctx.Done():
		if !g.abandon(w) {
			g.releaseFn(cost)()
		}
		if g.met != nil {
			g.met.cancelled.Inc()
		}
		return nil, ctx.Err()
	}
}

// abandon removes a waiter from the queue. It reports false when the
// waiter was already granted (no longer queued) — the caller then owns
// a charged admission it must release.
func (g *CostGate) abandon(w *costWaiter) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.granted {
		return false
	}
	for i, q := range g.queue {
		if q == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			return true
		}
	}
	return false
}

func (g *CostGate) releaseFn(cost int64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.used -= cost
			g.inflight--
			g.wakeLocked()
			g.mu.Unlock()
		})
	}
}

// wakeLocked grants queued waiters from the head while they fit.
func (g *CostGate) wakeLocked() {
	for len(g.queue) > 0 {
		w := g.queue[0]
		if !g.fitsLocked(w.cost) {
			return
		}
		g.queue = g.queue[1:]
		w.granted = true
		g.used += w.cost
		g.inflight++
		close(w.ready)
	}
}

// InFlight reports the number of currently admitted queries.
func (g *CostGate) InFlight() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}

// UsedUS reports the predicted cost currently charged against the
// budget.
func (g *CostGate) UsedUS() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

// Waiting reports the number of queries queued for budget.
func (g *CostGate) Waiting() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queue)
}
