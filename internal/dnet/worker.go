package dnet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dita/internal/core"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/wal"
)

// shipRetry bounds the worker-to-worker shipment calls (peer may be
// mid-restart); kept short because the coordinator also fails over to
// other destination replicas.
var shipRetry = RetryPolicy{
	MaxAttempts: 2,
	BaseDelay:   10 * time.Millisecond,
	MaxDelay:    100 * time.Millisecond,
	CallTimeout: 30 * time.Second,
}

// Worker is one node of the network-mode cluster: an RPC server holding
// the partitions assigned to it (trajectories, trie index, verification
// metadata) in memory.
type Worker struct {
	mu    sync.RWMutex
	parts map[partKey]*workerPartition

	searchCalls atomic.Int64
	knnCalls    atomic.Int64
	joinCalls   atomic.Int64
	bytesIn     atomic.Int64

	// FaultInjection, when set before Serve, wraps the listener so
	// accepted connections drop/delay/error per the plan — the chaos
	// transport (tests and `dita-worker -chaos`). Never set it in
	// production.
	FaultInjection *FaultPlan

	// SnapStore, when set before Serve, persists every loaded partition
	// as a crash-safe snapshot and lets LoadSnapshots cold-start the
	// worker from disk. Its Faults field is the storage-side chaos plan
	// (`dita-worker -snap-chaos`).
	SnapStore *snap.Store

	// WALStore, when set before Serve, gives every partition a write-ahead
	// log: Worker.Ingest appends mutations durably before applying them,
	// and LoadSnapshots replays each log's suffix past its snapshot's
	// watermark on cold start. Pair it with SnapStore (same directory works)
	// — a WAL without a base snapshot cannot be replayed; cold start
	// reports it as a classified "orphan" skip, counts it
	// (snap_wal_orphaned_total), and deletes the file.
	// Its Faults field is the WAL-side chaos plan (`dita-worker -wal-chaos`).
	WALStore *wal.Store

	// MergeBytes is core.MergePolicy.MergeBytes: the per-partition delta
	// size that triggers folding the overlay into a fresh base (rebuild
	// trie, seal snapshot, truncate WAL). Set before Serve.
	MergeBytes int

	// MaxDeltaBytes is core.MergePolicy.MaxDeltaBytes, the per-partition
	// backpressure bound: an ingest batch arriving while the overlay holds
	// at least this many bytes is rejected with an overloaded error (the
	// coordinator surfaces ErrOverloaded) and a merge is kicked to drain
	// it. Set before Serve.
	MaxDeltaBytes int

	snapLoadOK      atomic.Int64
	snapLoadCorrupt atomic.Int64
	snapLoadErr     atomic.Int64
	snapWriteOK     atomic.Int64
	snapWriteErr    atomic.Int64

	ingestCalls    atomic.Int64
	ingestRecords  atomic.Int64
	ingestDeduped  atomic.Int64
	ingestRejected atomic.Int64
	merges         atomic.Int64
	walReplayed    atomic.Int64
	walTruncated   atomic.Int64
	walReplayUS    atomic.Int64
	walOrphaned    atomic.Int64

	// VerifyParallelism bounds the goroutine pool each Search/Join RPC
	// uses to verify its candidate list: 0 means every core, 1 forces the
	// sequential path. Set before Serve; results are identical at every
	// setting.
	VerifyParallelism int

	// searchHook, when set (tests only), runs at the start of every
	// Search RPC — panic injection and admission-blocking both hang off
	// it. It runs inside the handler's recover, so a panicking hook
	// exercises exactly the production containment path.
	searchHook func(*SearchArgs)

	lis  net.Listener
	srv  *rpc.Server
	done chan struct{}

	closeOnce sync.Once
	closeErr  error

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// peers are the worker-to-worker shipment clients, one per destination
	// address for the worker's lifetime (net/rpc multiplexes concurrent
	// shipments over one connection); Close closes them and sets
	// peersClosed, after which peer hands out dead clients.
	peerMu      sync.Mutex
	peers       map[string]*managedClient
	peersClosed bool

	// Drain bookkeeping: draining rejects new RPCs; idle is closed when
	// the last in-flight RPC finishes after draining began.
	stateMu  sync.Mutex
	draining bool
	inflight int
	idle     chan struct{}

	// queryMu guards the base context query deadlines derive from;
	// CancelInflight swaps it to abort everything currently executing.
	queryMu     sync.Mutex
	queryBase   context.Context
	queryCancel context.CancelFunc
}

type partKey struct {
	dataset string
	id      int
}

// workerPartition is one held partition: its store (core.Store: base,
// overlay, WAL, folds — the engine's own) plus what only the worker keeps,
// the measure its RPCs run and its content identity.
type workerPartition struct {
	store *core.Store
	m     measure.Measure
	opts  snap.BuildOptions

	// fingerprint is the base's content identity (snap.Fingerprint over
	// opts and the members); snapped/snapBytes record whether a durable
	// snapshot of exactly this content exists in the worker's store. A
	// fold rewrites all three under idMu.
	idMu        sync.Mutex
	fingerprint uint64
	snapped     bool
	snapBytes   int64
}

// NewWorker creates an unstarted worker.
func NewWorker() *Worker {
	w := &Worker{
		parts: map[partKey]*workerPartition{},
		done:  make(chan struct{}),
		conns: map[net.Conn]struct{}{},
		peers: map[string]*managedClient{},
	}
	w.queryBase, w.queryCancel = context.WithCancel(context.Background())
	return w
}

// CancelInflight aborts every query currently executing on this worker:
// Search/Ship/Join work in progress observes cancellation at its next
// check (one trie step or one verification) and returns a context error
// over the wire. New queries are unaffected — the base context is swapped
// before the old one is cancelled — so a SIGINT-style "cancel what's
// running, then drain" sequence doesn't poison retries.
func (w *Worker) CancelInflight() {
	w.queryMu.Lock()
	cancel := w.queryCancel
	w.queryBase, w.queryCancel = context.WithCancel(context.Background())
	w.queryMu.Unlock()
	cancel()
}

// Serve starts listening on addr (host:port; port 0 picks a free port) and
// serves RPCs until Close. It returns the bound address.
func (w *Worker) Serve(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("dnet: %w", err)
	}
	bound := lis.Addr().String()
	if w.FaultInjection != nil {
		lis = NewFaultListener(lis, *w.FaultInjection)
	}
	w.lis = lis
	w.srv = rpc.NewServer()
	// The RPC service is a separate type so only the protocol methods are
	// exported to the wire.
	if err := w.srv.RegisterName("Worker", &workerService{w: w}); err != nil {
		lis.Close()
		return "", err
	}
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				select {
				case <-w.done:
					return
				default:
				}
				if errors.Is(err, net.ErrClosed) {
					return
				}
				continue
			}
			w.connMu.Lock()
			w.conns[conn] = struct{}{}
			w.connMu.Unlock()
			go func(conn net.Conn) {
				w.srv.ServeConn(conn)
				w.connMu.Lock()
				delete(w.conns, conn)
				w.connMu.Unlock()
			}(conn)
		}
	}()
	return bound, nil
}

// errDraining is returned to RPCs that arrive while the worker drains.
var errDraining = errors.New("dnet: worker shutting down")

// beginRPC admits one RPC unless the worker is draining.
func (w *Worker) beginRPC() bool {
	w.stateMu.Lock()
	defer w.stateMu.Unlock()
	if w.draining {
		return false
	}
	w.inflight++
	return true
}

// Inflight returns the number of RPCs currently executing — the source of
// the worker_queries_inflight gauge, and what a clean shutdown (and the
// soak harness) expects to see drain to zero.
func (w *Worker) Inflight() int {
	w.stateMu.Lock()
	defer w.stateMu.Unlock()
	return w.inflight
}

// Ready reports whether the worker is accepting RPCs — nil while
// serving, an error once draining begins. The /readyz endpoint on
// -metrics-addr keys on it, so a draining worker drops out of load
// balancing before its RPCs start failing.
func (w *Worker) Ready() error {
	w.stateMu.Lock()
	defer w.stateMu.Unlock()
	if w.draining {
		return errDraining
	}
	return nil
}

// Instrument registers the worker's live state on a metrics registry:
// the queries-inflight gauge, partition inventory, and the cumulative
// call/byte counters, all read on scrape (no hot-path cost).
func (w *Worker) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("worker_queries_inflight", func() int64 { return int64(w.Inflight()) })
	r.GaugeFunc("worker_partitions", func() int64 {
		w.mu.RLock()
		defer w.mu.RUnlock()
		return int64(len(w.parts))
	})
	r.GaugeFunc("worker_search_calls_total", w.searchCalls.Load)
	r.GaugeFunc("worker_knn_calls_total", w.knnCalls.Load)
	r.GaugeFunc("worker_join_calls_total", w.joinCalls.Load)
	r.GaugeFunc("worker_bytes_in_total", w.bytesIn.Load)
	r.GaugeFunc("snap_load_ok", w.snapLoadOK.Load)
	r.GaugeFunc("snap_load_corrupt", w.snapLoadCorrupt.Load)
	r.GaugeFunc("snap_load_err", w.snapLoadErr.Load)
	r.GaugeFunc("snap_write_ok", w.snapWriteOK.Load)
	r.GaugeFunc("snap_write_err", w.snapWriteErr.Load)
	r.GaugeFunc("worker_ingest_calls_total", w.ingestCalls.Load)
	r.GaugeFunc("worker_ingest_records_total", w.ingestRecords.Load)
	r.GaugeFunc("worker_ingest_deduped_total", w.ingestDeduped.Load)
	r.GaugeFunc("worker_ingest_rejected_total", w.ingestRejected.Load)
	r.GaugeFunc("worker_merges_total", w.merges.Load)
	r.GaugeFunc("wal_replayed_records", w.walReplayed.Load)
	r.GaugeFunc("wal_truncated_bytes", w.walTruncated.Load)
	r.GaugeFunc("wal_replay_us", w.walReplayUS.Load)
	r.GaugeFunc("snap_wal_orphaned_total", w.walOrphaned.Load)
	r.GaugeFunc("worker_delta_bytes", func() int64 {
		w.mu.RLock()
		defer w.mu.RUnlock()
		var total int64
		for _, p := range w.parts {
			total += int64(p.store.OverlayBytes())
		}
		return total
	})
}

func (w *Worker) endRPC() {
	w.stateMu.Lock()
	w.inflight--
	if w.draining && w.inflight == 0 && w.idle != nil {
		close(w.idle)
		w.idle = nil
	}
	w.stateMu.Unlock()
}

// Shutdown drains the worker: it stops accepting connections and new
// RPCs, waits up to timeout for in-flight RPCs to finish, then closes
// everything. Safe to call more than once and after Close.
func (w *Worker) Shutdown(timeout time.Duration) error {
	w.stateMu.Lock()
	if !w.draining {
		w.draining = true
		if w.inflight > 0 {
			w.idle = make(chan struct{})
		}
	}
	idle := w.idle
	w.stateMu.Unlock()
	if w.lis != nil {
		w.lis.Close()
	}
	if idle != nil {
		select {
		case <-idle:
		case <-time.After(timeout):
		}
	}
	return w.Close()
}

// Close stops the listener and terminates every established connection,
// so in-flight and future RPCs against this worker fail fast (the
// behavior a crashed node exhibits). It is idempotent.
func (w *Worker) Close() error {
	w.closeOnce.Do(func() {
		close(w.done)
		if w.lis != nil {
			// Shutdown may already have closed the listener to stop
			// new connections; that's not an error.
			if err := w.lis.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
				w.closeErr = err
			}
		}
		w.connMu.Lock()
		for conn := range w.conns {
			conn.Close()
		}
		w.conns = map[net.Conn]struct{}{}
		w.connMu.Unlock()
		w.peerMu.Lock()
		w.peersClosed = true
		for _, mc := range w.peers {
			mc.Close()
		}
		w.peerMu.Unlock()
		// Close the WAL handles so an in-process "restart" (tests) can
		// reopen the files exclusively. An append racing this close fails
		// like any crashed write: the record was never acked, and the torn
		// tail (if any) is truncated on the next Open.
		w.mu.RLock()
		for _, p := range w.parts {
			p.store.CloseLog()
		}
		w.mu.RUnlock()
	})
	return w.closeErr
}

// peer returns the shipment client for a destination worker, dialled on
// first use and kept: a join ships along hundreds of edges, and one
// connection per peer carries them all. A call on a kept connection the
// peer has since dropped (it restarted) fails at the transport level and
// the managed client redials within shipRetry, as a fresh one would.
func (w *Worker) peer(addr string) *managedClient {
	w.peerMu.Lock()
	defer w.peerMu.Unlock()
	mc := w.peers[addr]
	if mc == nil {
		mc = newManagedClient(addr, shipRetry)
		if w.peersClosed {
			mc.Close() // the worker is gone: calls fail fast, nothing to leak
			return mc
		}
		w.peers[addr] = mc
	}
	return mc
}

// workerService carries the exported RPC surface.
type workerService struct {
	w *Worker
}

// rpcRecover converts a handler panic into an application error. It
// crosses the wire as an rpc.ServerError, which the coordinator already
// treats as proof of life (the worker answered; this partition's work
// exploded), so a poisoned partition flows into replica failover and the
// AllowPartial skip report instead of killing the worker process — net/rpc
// would otherwise let the panic unwind ServeConn's goroutine and crash us.
func rpcRecover(op string, errp *error) {
	if r := recover(); r != nil {
		*errp = fmt.Errorf("dnet: %s panic: %v", op, r)
	}
}

// queryCtx turns the in-band deadline budget stamped by the coordinator
// into a context bounding the handler's work. net/rpc has no cancellation
// signal, so a client that abandons a call cannot reach us — the deadline
// is what keeps server-side work from running unbounded after the query
// died. The context derives from the worker's cancellable base so
// CancelInflight reaches queries with no deadline too.
func (w *Worker) queryCtx(timeoutMillis int64) (context.Context, context.CancelFunc) {
	w.queryMu.Lock()
	base := w.queryBase
	w.queryMu.Unlock()
	if timeoutMillis <= 0 {
		return base, func() {}
	}
	return context.WithTimeout(base, time.Duration(timeoutMillis)*time.Millisecond)
}

// Ping implements the heartbeat probe. A draining worker fails it so
// coordinators route around the node before it disappears.
func (s *workerService) Ping(args *PingArgs, reply *PingReply) error {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	s.w.mu.RLock()
	reply.Partitions = len(s.w.parts)
	s.w.mu.RUnlock()
	return nil
}

// Load implements the LoadPartition RPC: install the sealed partition image
// the sender built (installImage). Reloading the same (dataset, partition)
// replaces it, and content this worker already holds is answered from the
// held partition without decoding, which makes coordinator retries and
// re-replication idempotent.
func (s *workerService) Load(args *LoadArgs, reply *LoadReply) (err error) {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	defer rpcRecover("load", &err)
	s.w.bytesIn.Add(int64(len(args.Image)))
	p := s.w.holding(args.Dataset, args.Partition, args.Fingerprint)
	if p == nil {
		if p, err = s.w.installImage(args.Dataset, args.Partition, args.Fingerprint, args.Image); err != nil {
			return fmt.Errorf("dnet: load %s/%d: %w", args.Dataset, args.Partition, err)
		}
	}
	reply.Trajs, reply.IndexBytes = p.store.BaseSize()
	_, reply.Snapshotted, reply.SnapshotBytes, _ = p.identity()
	return nil
}

// Unload implements the rollback RPC: drop one partition.
func (s *workerService) Unload(args *UnloadArgs, reply *UnloadReply) error {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	key := partKey{args.Dataset, args.Partition}
	s.w.mu.Lock()
	p, held := s.w.parts[key]
	reply.Unloaded = held
	delete(s.w.parts, key)
	s.w.mu.Unlock()
	if held {
		p.store.CloseLog()
		// An in-flight merge may already have passed its installed check
		// (taken before sealing) and be about to rewrite the snapshot and
		// truncate the WAL — state that must not outlive this rollback.
		// Holding the store's folds waits it out, so the removals below run
		// after any such merge finished writing.
		defer p.store.HoldFolds()()
	}
	// The durable pair must go with the partition: a surviving snapshot
	// would resurrect data the coordinator rolled back, and a surviving
	// WAL would replay deltas from a previous epoch onto whatever lands at
	// this (dataset, partition) next.
	if s.w.SnapStore != nil {
		s.w.SnapStore.Remove(args.Dataset, args.Partition)
	}
	if s.w.WALStore != nil {
		s.w.WALStore.Remove(args.Dataset, args.Partition)
	}
	return nil
}

func (s *workerService) partition(dataset string, id int) (*workerPartition, error) {
	s.w.mu.RLock()
	defer s.w.mu.RUnlock()
	p, ok := s.w.parts[partKey{dataset, id}]
	if !ok {
		return nil, fmt.Errorf("dnet: partition %s/%d not loaded on this worker", dataset, id)
	}
	return p, nil
}

// Search implements the per-partition threshold search RPC. Work is
// bounded by the query's in-band deadline (checked inside the trie
// descent and before every verification), and a panic anywhere in the
// pipeline is contained to this call.
func (s *workerService) Search(args *SearchArgs, reply *SearchReply) (err error) {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	defer rpcRecover("search", &err)
	s.w.searchCalls.Add(1)
	start := time.Now()
	defer func() { reply.ElapsedMicros = time.Since(start).Microseconds() }()
	// The query context is derived before the hook so a hook that stalls
	// (admission tests) models work happening inside an already-admitted
	// query — CancelInflight then reaches it like any other in-flight work.
	ctx, cancel := s.w.queryCtx(args.TimeoutMillis)
	defer cancel()
	if s.w.searchHook != nil {
		s.w.searchHook(args)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := s.partition(args.Dataset, args.Partition)
	if err != nil {
		return err
	}
	res, st, err := p.store.View().Search(ctx, p.m, args.Query, args.Tau, s.w.VerifyParallelism, false)
	if err != nil {
		return err
	}
	for _, r := range res {
		reply.Hits = append(reply.Hits, SearchHit{ID: r.Traj.ID, Distance: r.Distance})
	}
	reply.Candidates, reply.Verified, reply.Funnel = int(st.Funnel.TrieCands), int(st.Funnel.Verified), st.Funnel
	slices.SortFunc(reply.Hits, func(a, b SearchHit) int { return cmp.Compare(a.ID, b.ID) })
	return nil
}

// KNN implements the per-partition top-k RPC of the network mode's
// best-first kNN. It runs the exact scan the local engine runs
// (core.View.KNNScan), seeded empty and capped by the coordinator's
// round threshold, and replies with the partition-local top-k: any
// trajectory omitted is beaten by k partition-mates (or provably beyond
// the round threshold) and can never be a global answer, so the
// coordinator's merge is exact.
func (s *workerService) KNN(args *KNNArgs, reply *SearchReply) (err error) {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	defer rpcRecover("knn", &err)
	s.w.knnCalls.Add(1)
	start := time.Now()
	defer func() { reply.ElapsedMicros = time.Since(start).Microseconds() }()
	ctx, cancel := s.w.queryCtx(args.TimeoutMillis)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return err
	}
	if args.K <= 0 {
		return fmt.Errorf("dnet: knn: k must be positive, got %d", args.K)
	}
	p, err := s.partition(args.Dataset, args.Partition)
	if err != nil {
		return err
	}
	acc := core.NewKNNAcc(args.K)
	f, err := p.store.View().KNNScan(ctx, p.m, args.Query, acc, args.Tau)
	if err != nil {
		return err
	}
	for _, r := range acc.Results() {
		reply.Hits = append(reply.Hits, SearchHit{ID: r.Traj.ID, Distance: r.Distance})
	}
	reply.Funnel = f
	return nil
}

// Fetch implements trajectory retrieval by id.
func (s *workerService) Fetch(args *FetchArgs, reply *FetchReply) error {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	p, err := s.partition(args.Dataset, args.Partition)
	if err != nil {
		return err
	}
	want := make(map[int]bool, len(args.IDs))
	for _, id := range args.IDs {
		want[id] = true
	}
	ctx, cancel := s.w.queryCtx(0)
	defer cancel()
	ts, _, _, err := p.store.View().Select(ctx, func(t *traj.T) bool { return want[t.ID] })
	for _, t := range ts {
		reply.Trajs = append(reply.Trajs, WireTrajectory{ID: t.ID, Points: t.Points})
	}
	return err
}

// peerUnreachablePrefix starts the error Ship returns when the
// destination worker cannot be reached at the transport level. It
// crosses the wire as the rpc.ServerError string, and the coordinator's
// isPeerUnreachable matches it with an exact prefix check to pick
// dst-side failover — keep the two in sync when rewording.
const peerUnreachablePrefix = "dnet: peer unreachable: "

// Ship implements the coordinator-directed shuffle: select this worker's
// partition trajectories relevant to the destination partition, push them
// to the destination worker's Join RPC, and relay the pairs back. A
// transport-level failure reaching the peer is reported with the
// peer-unreachable prefix so the coordinator fails over to another
// destination replica instead of another source replica.
func (s *workerService) Ship(args *ShipArgs, reply *JoinReply) (err error) {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	defer rpcRecover("ship", &err)
	start := time.Now()
	// The whole-shipment time (selection + wire + peer join) replaces the
	// peer's handler time: it is what the coordinator's edge span should
	// count as remote work.
	defer func() { reply.ElapsedMicros = time.Since(start).Microseconds() }()
	p, err := s.partition(args.SrcDataset, args.SrcPartition)
	if err != nil {
		return err
	}
	ctx, cancel := s.w.queryCtx(args.TimeoutMillis)
	defer cancel()
	ts, _, _, err := p.store.View().Select(ctx, func(t *traj.T) bool {
		return core.TrajRelevant(p.m, t.Points, args.DstMBRf, args.DstMBRl, args.Tau)
	})
	if err != nil || len(ts) == 0 {
		return err
	}
	shipped := make([]WireTrajectory, len(ts))
	for i, t := range ts {
		shipped[i] = WireTrajectory{ID: t.ID, Points: t.Points}
	}
	// Worker-to-worker connection: the data does not pass through the
	// coordinator.
	mc := s.w.peer(args.DstAddr)
	jargs := &JoinArgs{
		Dataset:   args.DstDataset,
		Partition: args.DstPartition,
		Trajs:     shipped,
		Tau:       args.Tau,
		Flip:      args.Flip,
		TraceID:   args.TraceID,
		SpanID:    args.SpanID,
	}
	// Forward the remaining deadline budget to the peer's local join, and
	// bound our own wait on it (CallContext shrinks the per-attempt
	// timeout to the context's remaining time).
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl).Milliseconds()
		if rem < 1 {
			rem = 1
		}
		jargs.TimeoutMillis = rem
	}
	if err := mc.CallContext(ctx, "Worker.Join", jargs, reply); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// Deadline expiry is the query's fault, not the peer's: report
			// it plainly so the coordinator doesn't fail over to another
			// destination replica for a query that is already dead.
			return ctxErr
		}
		if retryableError(err) {
			return fmt.Errorf("%s%s: %v", peerUnreachablePrefix, args.DstAddr, err)
		}
		return err
	}
	return nil
}

// Join implements the receiving side of the shuffle: the local join of one
// edge (core.JoinEdge, the engine's own) with the shipped trajectories
// against this partition's view — or, on a self-join's diagonal edge, with
// the view's own members, nothing shipped. Bounded by the shipment's
// forwarded deadline; panics are contained to this call.
func (s *workerService) Join(args *JoinArgs, reply *JoinReply) (err error) {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	defer rpcRecover("join", &err)
	s.w.joinCalls.Add(1)
	start := time.Now()
	defer func() { reply.ElapsedMicros = time.Since(start).Microseconds() }()
	p, err := s.partition(args.Dataset, args.Partition)
	if err != nil {
		return err
	}
	ctx, cancel := s.w.queryCtx(args.TimeoutMillis)
	defer cancel()
	// One view for both sides of a diagonal edge: every pair of members is
	// decided against a single instant of the partition.
	dst := p.store.View()
	var (
		shipped []*traj.T
		smeta   []core.VerifyMeta
		slots   []int
	)
	if args.Diagonal {
		if shipped, smeta, slots, err = dst.Select(ctx, nil); err != nil {
			return err
		}
	} else {
		ts := make([]traj.T, len(args.Trajs))
		shipped, smeta = make([]*traj.T, len(ts)), make([]core.VerifyMeta, len(ts))
		for i, wt := range args.Trajs {
			ts[i] = traj.T(wt)
			shipped[i], smeta[i] = &ts[i], core.NewVerifyMeta(&ts[i], 0)
			reply.BytesReceived += ts[i].Bytes()
		}
	}
	st, err := core.JoinEdge(ctx, p.m, dst, shipped, smeta, slots, args.Tau, s.w.VerifyParallelism,
		func(hits []core.JoinHit) {
			reply.Pairs = make([]WirePair, len(hits))
			for k, h := range hits {
				local, _ := dst.At(h.Pair.Local)
				pr := WirePair{TID: shipped[h.Pair.Shipped].ID, QID: local.ID, Distance: h.Distance}
				if args.Flip {
					pr.TID, pr.QID = pr.QID, pr.TID
				}
				reply.Pairs[k] = pr
			}
		})
	if err != nil {
		return err
	}
	reply.Funnel = st.Funnel
	reply.Candidates = int(st.Funnel.TrieCands)
	reply.ProbeMicros, reply.VerifyMicros = st.Probe.Microseconds(), st.Verify.Microseconds()
	s.w.bytesIn.Add(int64(reply.BytesReceived))
	return nil
}

// Stats implements the inventory RPC.
func (s *workerService) Stats(args *StatsArgs, reply *StatsReply) error {
	if !s.w.beginRPC() {
		return errDraining
	}
	defer s.w.endRPC()
	s.w.mu.RLock()
	defer s.w.mu.RUnlock()
	reply.Partitions = len(s.w.parts)
	for _, p := range s.w.parts {
		nt, ib := p.store.BaseSize()
		reply.Trajs += nt
		reply.IndexBytes += ib
		reply.DeltaBytes += p.store.OverlayBytes()
	}
	reply.SearchCalls = s.w.searchCalls.Load()
	reply.JoinCalls = s.w.joinCalls.Load()
	reply.BytesIn = s.w.bytesIn.Load()
	reply.IngestCalls = s.w.ingestCalls.Load()
	return nil
}
