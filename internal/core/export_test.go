package core

import (
	"testing"

	"dita/internal/geom"
	"dita/internal/traj"
)

// What the external view test (package core_test, which imports viewtest,
// which imports core) needs of the unexported surface.

// PartitionView captures partition pid's view and returns the partition's
// own metadata slice beside it; the caller runs no concurrent mutation.
func PartitionView(e *Engine, pid int) (*View, []VerifyMeta) {
	return e.parts[pid].View(), e.parts[pid].meta
}

// RelevantPartitionsOf is the engine's global prune.
func RelevantPartitionsOf(e *Engine, q []geom.Point, tau float64) []int {
	return e.RelevantPartitions(q, tau)
}

// SetLayoutCheck installs viewtest.CheckLayout for this package's own
// tests, which cannot import viewtest (it imports core): the external test
// package sets it from an init function.
func SetLayoutCheck(f func(t testing.TB, v *LayoutView, loc map[int]int, shows [][]int, mirrors []PartBounds, visible map[int]*traj.T)) {
	checkLayout = f
}

var checkLayout func(t testing.TB, v *LayoutView, loc map[int]int, shows [][]int, mirrors []PartBounds, visible map[int]*traj.T)

// layoutOK runs viewtest.CheckLayout over the engine's layout, what each
// partition shows and its pinned mirrors.
func layoutOK(t testing.TB, e *Engine, visible map[int]*traj.T) {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	shows := make([][]int, len(e.parts))
	mirrors := make([]PartBounds, len(e.parts))
	for pid, p := range e.parts {
		for _, m := range p.View().Visible() {
			shows[pid] = append(shows[pid], m.ID)
		}
		mirrors[pid] = PartBounds{MBRf: p.MBRf, MBRl: p.MBRl, Retired: p.Retired()}
	}
	checkLayout(t, e.lay.View(), e.lay.Locations(), shows, mirrors, visible)
}
