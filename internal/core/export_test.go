package core

import "dita/internal/geom"

// What the external view test (package core_test, which imports viewtest,
// which imports core) needs of the unexported surface.

// PartitionView captures partition pid's view and returns the partition's
// own metadata slice beside it; the caller runs no concurrent mutation.
func PartitionView(e *Engine, pid int) (*View, []VerifyMeta) {
	return e.parts[pid].View(), e.parts[pid].meta
}

// RelevantPartitionsOf is the engine's global prune.
func RelevantPartitionsOf(e *Engine, q []geom.Point, tau float64) []int {
	return e.relevantPartitions(q, tau)
}
