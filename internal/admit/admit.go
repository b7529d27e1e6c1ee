// Package admit is query admission control: a gate that admits queries
// against a concurrent budget, with a bounded FIFO wait queue and a queue
// timeout. The serving layer prices each query by its predicted cost; the
// SQL layer (internal/sqlx) and the network-mode coordinator
// (internal/dnet) count queries instead — the same gate at unit cost. A
// burst of expensive queries degrades into fast, typed ErrOverloaded
// rejections instead of unbounded goroutine/memory growth — the role
// LocationSpark's query scheduler plays for skewed spatial workloads.
package admit

import (
	"errors"
	"time"
)

// ErrOverloaded reports that the gate is saturated: the budget is spent
// and the wait queue is full (or the queue wait timed out). Callers should
// surface it verbatim so clients can distinguish overload (retry later,
// shed load) from query failure.
var ErrOverloaded = errors.New("admit: overloaded: concurrent query limit and queue are full")

// Policy bounds concurrent query admission by count.
type Policy struct {
	// MaxConcurrent is the number of queries allowed to execute at once.
	// <= 0 disables admission control entirely.
	MaxConcurrent int
	// MaxQueue is the number of queries allowed to wait for a slot beyond
	// MaxConcurrent; a query arriving when the queue is full fails fast
	// with ErrOverloaded. Default 0 (no queue: at-capacity arrivals fail
	// immediately).
	MaxQueue int
	// QueueTimeout caps how long a queued query waits for a slot before
	// giving up with ErrOverloaded (default 1s).
	QueueTimeout time.Duration
}

// New builds the gate for a count policy: a CostGate with a budget of
// MaxConcurrent, for callers that acquire every query at cost 1. It is nil
// — admitting everything — when MaxConcurrent <= 0.
func New(p Policy) *CostGate {
	g := NewCostGate(CostPolicy{BudgetUS: int64(p.MaxConcurrent), MaxQueue: p.MaxQueue, QueueTimeout: p.QueueTimeout})
	if g != nil {
		g.unit = true
	}
	return g
}
