package dnet

import (
	"errors"

	"dita/internal/core"
	"dita/internal/geom"
)

// EpochView is a dataset's write epochs (core.EpochView): a write is
// counted once its replica fan-out succeeded.
type EpochView = core.EpochView

// Epochs snapshots the dataset's write epochs under the dataset lock.
// Callers caching a query result must take the snapshot BEFORE running
// the query: a write landing between snapshot and execution then makes
// the cached entry look stale (safe), never fresh.
func (c *Coordinator) Epochs(name string) (EpochView, error) {
	dd, err := c.dataset(name)
	if err != nil {
		return EpochView{}, err
	}
	return dd.view().Epochs, nil
}

// RelevantPartitions reports which partitions the dataset's global
// pruning cannot exclude for a threshold search — the touched set a
// cached search answer depends on. Writes to any other partition
// cannot change the answer while Bounds is unchanged: a pruned
// partition's members all fail the endpoint lower bound, and growth
// (the one way a pruned partition gains a qualifying member) bumps
// the bounds epoch.
func (c *Coordinator) RelevantPartitions(name string, q []geom.Point, tau float64) ([]int, error) {
	if len(q) == 0 {
		return nil, errors.New("dnet: empty query trajectory")
	}
	dd, err := c.dataset(name)
	if err != nil {
		return nil, err
	}
	return dd.view().Relevant(c.m, q, tau), nil
}

// NumPartitions reports the dataset's partition count, retired slots
// included. It only ever grows: a rebalance cutover appends the new
// pieces and retires the replaced pids in place, so any pid a caller
// captured stays a valid index (serve's freshness check treats an
// out-of-range pid as stale, which a grown parts slice never produces).
func (c *Coordinator) NumPartitions(name string) (int, error) {
	dd, err := c.dataset(name)
	if err != nil {
		return 0, err
	}
	return len(dd.view().Bounds), nil
}

// Ready reports whether the coordinator can serve queries: at least one
// dataset dispatched and at least one worker not declared Dead. It is
// the /readyz signal for serving front ends.
func (c *Coordinator) Ready() error {
	c.mu.Lock()
	n := len(c.datasets)
	c.mu.Unlock()
	if n == 0 {
		return errors.New("dnet: no datasets dispatched")
	}
	for _, s := range c.health.snapshot() {
		if s != Dead {
			return nil
		}
	}
	return errors.New("dnet: all workers dead")
}
