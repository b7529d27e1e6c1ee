package dnet

import (
	"fmt"
	"time"

	"dita/internal/core"
)

// AutopilotConfig drives the coordinator's rebalancing autopilot: a
// background loop that watches the per-partition read-cost EWMAs the
// query paths accumulate, triggers Rebalance cutovers when occupancy or
// read cost skews, and promotes extra read replicas of cost-hot
// partitions that a split cannot help (single-member hotspots). The
// loop shares the heartbeat's stop channel, so Close terminates it.
type AutopilotConfig struct {
	// Interval between autopilot ticks; <= 0 disables the autopilot.
	Interval time.Duration
	// Cooldown is the minimum time between automatic actions on one
	// dataset — a cutover changes the layout, and the fresh pieces need
	// queries to re-accumulate cost signal before acting again makes
	// sense. Default 2x Interval. Non-convergence doubles the effective
	// cooldown per consecutive failure (capped), the logged back-off.
	Cooldown time.Duration
	// Policy is the rebalance policy the autopilot plans with. Zero
	// fields take the core defaults, except CostBound, which defaults to
	// 2 here: an autopilot without the cost signal would only ever see
	// byte skew, and byte skew alone is what the operator-driven
	// Rebalance path already covers.
	Policy core.RebalancePolicy
	// PromoteReplicas caps how many owners a read-hot partition may be
	// promoted to. Default Replicas+1 (one spare beyond the durability
	// target, so promotion survives rereplicate, which only tops up
	// partitions BELOW the configured factor and never trims surplus).
	PromoteReplicas int
	// Logf, when non-nil, receives one line per autopilot action or
	// back-off (log.Printf-compatible). Nil keeps the loop silent.
	Logf func(format string, args ...any)
}

// withDefaults fills the documented defaults; cfg supplies the
// replication factor (already clamped to the worker count by Connect).
func (a AutopilotConfig) withDefaults(cfg Config) AutopilotConfig {
	if a.Cooldown <= 0 {
		a.Cooldown = 2 * a.Interval
	}
	if a.Policy.CostBound <= 0 {
		a.Policy.CostBound = 2
	}
	a.Policy = a.Policy.Sanitized()
	if a.PromoteReplicas <= 0 {
		a.PromoteReplicas = cfg.Replicas + 1
	}
	return a
}

func (a AutopilotConfig) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

func (c *Coordinator) autopilotLoop(interval time.Duration) {
	defer c.hbClosed.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-t.C:
			c.autopilotTick()
		}
	}
}

// autopilotTick runs one pass over every dispatched dataset: publish the
// cost gauges, then — unless the dataset is inside its cooldown window —
// plan and execute automatic cutovers or a replica promotion.
func (c *Coordinator) autopilotTick() {
	ap := c.cfg.Autopilot
	for _, dd := range c.lockedDatasets() {
		if c.met != nil {
			c.met.autopilotTicks.Inc()
			c.met.publishPartitionCosts(dd.cost.Snapshot())
		}
		c.apMu.Lock()
		last, backoff := c.apLast[dd.name], c.apBackoff[dd.name]
		c.apMu.Unlock()
		if backoff > 6 {
			backoff = 6 // cap the exponential back-off at 64x cooldown
		}
		if !last.IsZero() && time.Since(last) < ap.Cooldown*time.Duration(int64(1)<<backoff) {
			continue
		}
		c.autopilotDataset(dd, ap)
	}
}

// autopilotDataset plans one dataset: run the cost-aware rebalance; on a
// non-converged pass, back off with a logged warning (the noconverge
// counter is bumped inside Rebalance); when the layout is already
// balanced, consider promoting a replica of a cost-hot partition a split
// cannot divide.
func (c *Coordinator) autopilotDataset(dd *dispatchedDataset, ap AutopilotConfig) {
	steps, converged, err := c.Rebalance(dd.name, ap.Policy)
	if err != nil {
		ap.logf("autopilot: %s: rebalance: %v", dd.name, err)
		return
	}
	acted := len(steps) > 0
	if acted {
		if c.met != nil {
			c.met.autopilotCutovers.Add(int64(len(steps)))
		}
		ap.logf("autopilot: %s: %d automatic cutover(s)", dd.name, len(steps))
	}
	if !converged {
		c.apMu.Lock()
		c.apBackoff[dd.name]++
		n := c.apBackoff[dd.name]
		c.apLast[dd.name] = time.Now()
		c.apMu.Unlock()
		ap.logf("autopilot: %s: planner hit its step budget without converging; backing off (x%d)",
			dd.name, n)
		return
	}
	c.apMu.Lock()
	c.apBackoff[dd.name] = 0
	c.apMu.Unlock()
	if !acted {
		if pid := c.promoteCandidate(dd, ap); pid >= 0 {
			w, err := c.PromoteReplica(dd.name, pid)
			if err != nil {
				ap.logf("autopilot: %s: promote partition %d: %v", dd.name, pid, err)
				return
			}
			acted = true
			if c.met != nil {
				c.met.autopilotPromotions.Inc()
			}
			ap.logf("autopilot: %s: promoted replica of read-hot partition %d onto worker %d",
				dd.name, pid, w)
		}
	}
	if acted {
		c.apMu.Lock()
		c.apLast[dd.name] = time.Now()
		c.apMu.Unlock()
	}
}

// promoteCandidate picks the partition worth an extra read replica: the
// cost-hot pid by the same gates the split planner uses. The split
// planner already handled divisible hotspots (this runs only when it
// took no action), so what qualifies here is a hotspot a split cannot
// spread — typically a single-member partition — that is still below
// the promotion cap. Returns -1 when nothing qualifies.
func (c *Coordinator) promoteCandidate(dd *dispatchedDataset, ap AutopilotConfig) int {
	dd.mu.Lock()
	live := make([]int, 0, len(dd.parts))
	for pid := range dd.parts {
		if !dd.parts[pid].retired {
			live = append(live, pid)
		}
	}
	dd.mu.Unlock()
	pid, _ := core.CostHot(dd.cost, live, ap.Policy)
	if pid < 0 {
		return -1
	}
	dd.mu.Lock()
	defer dd.mu.Unlock()
	if dd.parts[pid].retired || len(dd.replicas[pid]) >= ap.PromoteReplicas {
		return -1
	}
	return pid
}

// PromoteReplica adds one replica of a live partition onto the
// least-loaded live non-owner and registers it for read routing — the
// manual form of the autopilot's read-hotspot remedy. The copy ships
// like a heal: from the retained dispatch payload (Worker.Load) while
// the dataset is unmutated, worker-to-worker (Worker.Replicate) from a
// surviving owner otherwise. The surplus owner persists: rereplicate
// only tops partitions up to the configured factor and never trims
// above it. Returns the worker index that received the copy.
func (c *Coordinator) PromoteReplica(name string, pid int) (int, error) {
	dd, err := c.dataset(name)
	if err != nil {
		return -1, err
	}
	states := c.health.snapshot()
	dd.mu.Lock()
	if pid < 0 || pid >= len(dd.parts) || dd.parts[pid].retired {
		dd.mu.Unlock()
		return -1, fmt.Errorf("dnet: promote %s/%d: no such live partition", name, pid)
	}
	owners := append([]int(nil), dd.replicas[pid]...)
	payload, fp := healSourceLocked(dd, pid)
	loads := make([]int, len(c.addrs))
	for _, ows := range dd.replicas {
		for _, w := range ows {
			loads[w]++
		}
	}
	dd.mu.Unlock()
	target := -1
	for w := range c.addrs {
		if states[w] == Dead {
			continue
		}
		already := false
		for _, r := range owners {
			if r == w {
				already = true
				break
			}
		}
		if already {
			continue
		}
		if target < 0 || loads[w] < loads[target] {
			target = w
		}
	}
	if target < 0 {
		return -1, fmt.Errorf("dnet: promote %s/%d: no live non-owner to hold the copy", name, pid)
	}
	if !c.shipReplica(dd, pid, payload, fp, owners, target, states) {
		return -1, fmt.Errorf("dnet: promote %s/%d: shipping to worker %d failed", name, pid, target)
	}
	dd.mu.Lock()
	if !dd.parts[pid].retired {
		for _, w := range dd.replicas[pid] {
			if w == target {
				// A concurrent heal registered this worker already; our
				// Load was an idempotent reload of its copy.
				dd.mu.Unlock()
				return target, nil
			}
		}
		dd.replicas[pid] = append(dd.replicas[pid], target)
		dd.mu.Unlock()
		return target, nil
	}
	dd.mu.Unlock()
	// A cutover retired the partition mid-promotion; the copy is
	// unroutable now, drop it.
	var ur UnloadReply
	c.clients[target].CallOnce("Worker.Unload",
		&UnloadArgs{Dataset: name, Partition: pid}, &ur, c.cfg.Retry.CallTimeout)
	return -1, fmt.Errorf("dnet: promote %s/%d: partition retired during promotion", name, pid)
}
