// Package dnet is DITA's real-network execution mode: the same
// partitioning, indexing and filter–verification pipeline as the simulated
// substrate (internal/cluster), but with workers running as TCP servers
// (stdlib net/rpc over gob) that hold their partitions' data and indexes
// in memory, a coordinator that routes queries with the global index, and
// a worker-to-worker shuffle for joins — the deployment shape of the
// paper's Spark system, without Spark.
//
// The simulated substrate remains the tool for the paper's scale-up
// experiments (virtual clocks model any core count); dnet demonstrates
// that the engine's decomposition really is distributable: data never
// leaves the owning worker except through the same movements the cost
// model accounts (queries in, results out, join shipments between
// workers).
//
//	workers: dita-worker -listen 127.0.0.1:7001 (one per node)
//	coordinator: connects, partitions, indexes, serves Search/Join
package dnet

import (
	"dita/internal/geom"
	"dita/internal/obs"
	"dita/internal/wal"
)

// WireTrajectory is the gob wire form of a trajectory.
type WireTrajectory struct {
	ID     int
	Points []geom.Point
}

// MeasureSpec names a similarity function plus the parameters the
// edit-based ones need; interfaces don't travel over gob, names do.
type MeasureSpec struct {
	Name  string
	Eps   float64
	Delta int
}

// LoadArgs ships one partition to a worker as a sealed snapshot image: the
// sender (sealPartition) built the trie and encoded the image once, and the
// worker verifies, installs and persists those bytes — it builds nothing.
type LoadArgs struct {
	// Dataset distinguishes the two sides of a join ("T", "Q", ...).
	Dataset string
	// Partition is the partition id within the dataset.
	Partition int
	// Fingerprint is the snap.Fingerprint content hash over (build
	// options, trajectories) sealed into Image. A worker already holding
	// content with this fingerprint answers from it without decoding
	// (idempotent reloads); an image that decodes to any other content is
	// refused. 0 = unknown: the image is taken as it is.
	Fingerprint uint64
	// Image is the snap.Encode image of the partition. The receiver runs the
	// full snap.Decode verification, as it does for a file or a peer's
	// export.
	Image []byte
}

// LoadReply reports the built index's footprint and durability.
type LoadReply struct {
	Trajs      int
	IndexBytes int
	// Snapshotted reports that the partition was persisted durably to the
	// worker's snapshot directory (false when the worker runs without one
	// or the write failed — the load itself still succeeded).
	Snapshotted bool
	// SnapshotBytes is the on-disk snapshot size when Snapshotted.
	SnapshotBytes int64
}

// InventoryArgs asks a worker what partitions it holds in memory; the
// coordinator calls it at Dispatch to skip re-shipping partitions a
// cold-started worker already restored from snapshots.
type InventoryArgs struct{}

// InventoryPart identifies one held partition by content.
type InventoryPart struct {
	Dataset     string
	Partition   int
	Fingerprint uint64
	// Snapshotted reports whether a durable snapshot of exactly this
	// content exists on the worker's disk — what payload-release
	// decisions count.
	Snapshotted bool
	// LastSeq is the highest ingest sequence number applied to the
	// partition (snapshot watermark plus replayed WAL suffix). The
	// coordinator seeds its per-partition sequence counter past it so a
	// restarted coordinator never reissues a number a worker would dedupe.
	LastSeq uint64
}

// ManifestArgs asks a worker for the exact visible contents of one held
// partition — base members minus tombstones plus delta. Rebalance
// recovery uses it to rebuild the coordinator's routing table and true
// partition bounds from worker state, instead of re-running the original
// dispatch (which would clobber every acked overlay and prune with
// dispatch-time MBRs that ingested outliers have outgrown).
type ManifestArgs struct {
	Dataset   string
	Partition int
}

// ManifestReply describes one partition's visible state.
type ManifestReply struct {
	// IDs lists the visible trajectory ids, ascending.
	IDs []int
	// MBRf/MBRl bound the visible members' endpoints — the partition's
	// TRUE current bounds, overlay included.
	MBRf, MBRl geom.MBR
	// Fingerprint is the base content hash; Snapshotted whether a durable
	// snapshot of that base exists; LastSeq the highest applied sequence
	// number (the freshness order between diverged holders of one pid).
	Fingerprint uint64
	Snapshotted bool
	LastSeq     uint64
}

// WireRecord is one streamed mutation on the wire: an upsert (Op =
// wal.OpInsert, Points set) or a delete (Op = wal.OpDelete, Points empty)
// of one trajectory id. Seq is the partition-scoped sequence number the
// coordinator assigned; workers append records to their WAL under it and
// dedupe retransmissions by it. It is the WAL's own record: what a worker
// logs is what crossed the wire.
type WireRecord = wal.Record

// IngestArgs applies a batch of mutations to one partition. Records must
// be in ascending Seq order; the worker appends them to the partition's
// WAL (fsync) before touching in-memory state, so a positive reply means
// the batch survives a crash.
type IngestArgs struct {
	Dataset   string
	Partition int
	Records   []WireRecord
}

// IngestReply reports what the worker did with the batch.
type IngestReply struct {
	// Applied counts records logged and applied by this call.
	Applied int
	// Deduped counts records skipped because their Seq was at or below the
	// partition's durable floor — retransmissions of already-acked writes.
	Deduped int
	// LastSeq is the partition's highest applied sequence number.
	LastSeq uint64
	// DeltaBytes is the partition's delta-buffer size after the batch (and
	// after any merge it triggered).
	DeltaBytes int
	// Merged reports that the batch pushed the delta over the merge
	// threshold and the partition folded it into a fresh base.
	Merged bool
}

// InventoryReply lists a worker's in-memory partitions.
type InventoryReply struct {
	Parts []InventoryPart
}

// ExportArgs asks a worker for the encoded snapshot image of one held
// partition — the worker-to-worker healing transfer.
type ExportArgs struct {
	Dataset   string
	Partition int
}

// ExportReply carries the sealed snapshot image. The receiver runs the
// full snap.Decode verification, so corruption on the wire (or a torn
// source) is detected exactly like disk corruption.
type ExportReply struct {
	Data []byte
}

// ReplicateArgs asks a worker to fetch a partition's snapshot image from
// a peer (Worker.Export on SrcAddr), verify it, install it, and persist
// it locally. This is how healing works once the coordinator has dropped
// its retained raw payloads: the bytes flow worker-to-worker.
type ReplicateArgs struct {
	Dataset   string
	Partition int
	SrcAddr   string
	// Fingerprint, when non-zero, is the content the coordinator expects;
	// a mismatched transfer is refused.
	Fingerprint uint64
}

// ReplicateReply reports the installed partition's footprint.
type ReplicateReply struct {
	Trajs       int
	IndexBytes  int
	Snapshotted bool
}

// SearchArgs runs a threshold search against one loaded partition.
type SearchArgs struct {
	Dataset   string
	Partition int
	Query     []geom.Point
	Tau       float64
	// TimeoutMillis is the query's remaining deadline budget when the
	// coordinator issued the call; the worker bounds its trie descent and
	// verification loop by it. 0 means no deadline. (net/rpc has no
	// cancellation channel, so the deadline travels in-band.)
	TimeoutMillis int64
	// TraceID/SpanID tie this call to the coordinator's query trace so a
	// whole-cluster picture can be assembled from per-worker reports (and
	// worker-side logs can be correlated). Empty when tracing is off.
	TraceID, SpanID string
}

// SearchHit is one search answer (the data stays on the worker; the
// coordinator can Fetch full trajectories if the caller wants them).
type SearchHit struct {
	ID       int
	Distance float64
}

// SearchReply answers a partition probe, Worker.Search's or Worker.KNN's:
// a threshold search's verified hits (ascending id), or a kNN scan's
// partition-local top-k (exact distances, ascending (distance, ID)); the
// candidate counts are the search's.
type SearchReply struct {
	Hits       []SearchHit
	Candidates int
	Verified   int
	// Funnel is the partition-local pruning funnel (Considered onward;
	// the coordinator owns the global Partitions/Relevant stages).
	Funnel obs.Funnel
	// ElapsedMicros is the worker-measured handler time, so the
	// coordinator's trace can split wire time from compute time.
	ElapsedMicros int64
}

// KNNArgs runs a best-first top-k scan against one loaded partition.
type KNNArgs struct {
	Dataset   string
	Partition int
	Query     []geom.Point
	// K is the global k; the worker returns its partition-local top-k so
	// the coordinator's merge can never miss a global answer.
	K int
	// Tau caps the scan's threshold: the coordinator's current global
	// k-th distance at round start (+Inf in a pilot round, before k
	// answers exist). Candidates provably beyond it are never verified.
	Tau float64
	// TimeoutMillis / TraceID / SpanID: as in SearchArgs.
	TimeoutMillis   int64
	TraceID, SpanID string
}

// FetchArgs retrieves full trajectories by id from a partition.
type FetchArgs struct {
	Dataset   string
	Partition int
	IDs       []int
}

// FetchReply carries the requested trajectories.
type FetchReply struct {
	Trajs []WireTrajectory
}

// ShipArgs instructs a worker to select its partition's trajectories
// relevant to a destination partition (the per-trajectory global-index
// check) and push them to the destination worker, which runs the local
// join and returns the pairs. The caller (coordinator) receives the pairs
// through the chain.
type ShipArgs struct {
	// Source partition on the worker receiving this call.
	SrcDataset   string
	SrcPartition int
	// Destination partition and its owner's address.
	DstAddr      string
	DstDataset   string
	DstPartition int
	// MBRf/MBRl of the destination partition, for the relevance check.
	DstMBRf, DstMBRl geom.MBR
	Tau              float64
	// Flip: the shipped side is the Q side (pairs come back reversed).
	Flip bool
	// TimeoutMillis bounds the whole shipment (selection + peer join);
	// the remaining budget is forwarded to the destination's Join call.
	// 0 means no deadline.
	TimeoutMillis int64
	// TraceID/SpanID are forwarded to the destination's Join call so both
	// hops of the shipment correlate to the coordinator's query trace.
	TraceID, SpanID string
}

// JoinArgs is the worker-to-worker shipment: probe the destination
// partition's trie with each shipped trajectory and verify.
type JoinArgs struct {
	Dataset   string
	Partition int
	Trajs     []WireTrajectory
	Tau       float64
	Flip      bool
	// Diagonal joins the partition with itself (a self-join's edge (i,i)):
	// Trajs is empty, the worker probes with its own visible members and
	// verifies each unordered pair of them once — the coordinator returns
	// both orientations — and the member with itself. The one call the
	// coordinator makes to Join directly: nothing is shipped, so no Ship.
	Diagonal bool
	// TimeoutMillis bounds the local join; 0 means no deadline.
	TimeoutMillis int64
	// TraceID/SpanID correlate the shipment to the coordinator's trace.
	TraceID, SpanID string
}

// WirePair is one join result.
type WirePair struct {
	TID, QID int
	Distance float64
}

// JoinReply returns the verified pairs and candidate counts. The pairs of a
// self-join's edge come back in one orientation only; the coordinator adds
// the other.
type JoinReply struct {
	Pairs      []WirePair
	Candidates int
	// BytesReceived is the wire size of the shipment, for accounting.
	BytesReceived int
	// Funnel is the destination-local pruning funnel of the shipment
	// (Considered = shipped × destination trajectories, onward).
	Funnel obs.Funnel
	// ElapsedMicros is remote compute time: the Join handler's time, or —
	// when the reply passed through Ship — the whole shipment (selection
	// plus peer join), which subsumes it.
	ElapsedMicros int64
	// ProbeMicros and VerifyMicros split the Join handler's local join into
	// its trie probes and its verification cascade.
	ProbeMicros, VerifyMicros int64
}

// PingArgs/PingReply are the heartbeat probe: the coordinator's failure
// detector calls Worker.Ping on an interval; a draining or dead worker
// fails the call.
type PingArgs struct{}

// PingReply reports liveness plus a cheap inventory summary.
type PingReply struct {
	Partitions int
}

// UnloadArgs drops one partition from a worker. The coordinator uses it
// to roll back partially-shipped dispatches so a retry doesn't
// double-index data.
type UnloadArgs struct {
	Dataset   string
	Partition int
}

// UnloadReply reports whether the partition was present.
type UnloadReply struct {
	Unloaded bool
}

// StatsArgs/StatsReply expose a worker's inventory.
type StatsArgs struct{}

// StatsReply summarizes what a worker holds.
type StatsReply struct {
	Partitions  int
	Trajs       int
	IndexBytes  int
	SearchCalls int64
	JoinCalls   int64
	BytesIn     int64
	// DeltaBytes is the summed size of the worker's un-merged ingest
	// deltas; IngestCalls counts Worker.Ingest RPCs served.
	DeltaBytes  int
	IngestCalls int64
}
