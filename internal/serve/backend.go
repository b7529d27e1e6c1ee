// Package serve is the long-lived HTTP serving layer over DITA: a
// JSON API for search/kNN/join/ingest/delete with three cooperating
// layers between the socket and the engine — a result cache
// invalidated by ingest watermarks (epoch counters, no clocks), a
// request coalescer (identical in-flight queries share one
// execution), and cost-based load shedding (an EWMA cost model prices
// each query; admission charges the price against a budget and sheds
// with typed 429/503 + Retry-After instead of queueing unboundedly).
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dita/internal/core"
	"dita/internal/dnet"
	"dita/internal/geom"
	"dita/internal/traj"
)

// Hit is one search/kNN answer.
type Hit struct {
	ID       int     `json:"id"`
	Distance float64 `json:"distance"`
}

// JoinPair is one join answer.
type JoinPair struct {
	TID      int     `json:"tid"`
	QID      int     `json:"qid"`
	Distance float64 `json:"distance"`
}

// EpochView snapshots a dataset's write epochs: Parts[pid] counts
// acked writes to partition pid, Bounds the writes that grew any
// partition's MBR. See dnet.EpochView for the invalidation argument.
type EpochView struct {
	Bounds uint64
	Parts  []uint64
}

// Backend abstracts the query engine the server fronts: the network
// coordinator (production) or a single-process core.Engine (dev mode).
type Backend interface {
	Search(ctx context.Context, q []geom.Point, tau float64) ([]Hit, error)
	KNN(ctx context.Context, q []geom.Point, k int) ([]Hit, error)
	// Join runs dataset ⋈ right. Implementations may only support
	// right == the primary dataset (self-join).
	Join(ctx context.Context, right string, tau float64) ([]JoinPair, error)
	Ingest(ctx context.Context, t *traj.T) error
	Delete(ctx context.Context, id int) (bool, error)

	// Epochs snapshots the current write epochs. Callers intending to
	// cache a result must snapshot BEFORE executing the query: a write
	// landing in between then makes the entry look stale (safe), never
	// fresh.
	Epochs() (EpochView, error)
	// Touched reports the partitions a threshold-search answer depends
	// on (the ones global pruning cannot exclude), or nil meaning "all
	// partitions" — the sound fallback used for kNN and join, whose
	// pruning depends on data, not just bounds.
	Touched(q []geom.Point, tau float64) ([]int, error)
	// Ready is the /readyz signal.
	Ready() error
}

// CoordBackend serves a dispatched dataset through a dnet.Coordinator.
type CoordBackend struct {
	C       *dnet.Coordinator
	Dataset string
}

func (b *CoordBackend) Search(ctx context.Context, q []geom.Point, tau float64) ([]Hit, error) {
	hits, _, err := b.C.SearchTraced(ctx, b.Dataset, &traj.T{ID: -1, Points: q}, tau, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Hit, len(hits))
	for i, h := range hits {
		out[i] = Hit{ID: h.ID, Distance: h.Distance}
	}
	return out, nil
}

func (b *CoordBackend) KNN(ctx context.Context, q []geom.Point, k int) ([]Hit, error) {
	hits, _, err := b.C.SearchKNNTraced(ctx, b.Dataset, &traj.T{ID: -1, Points: q}, k, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Hit, len(hits))
	for i, h := range hits {
		out[i] = Hit{ID: h.ID, Distance: h.Distance}
	}
	return out, nil
}

func (b *CoordBackend) Join(ctx context.Context, right string, tau float64) ([]JoinPair, error) {
	pairs, _, err := b.C.JoinTraced(ctx, b.Dataset, right, tau, nil)
	if err != nil {
		return nil, err
	}
	out := make([]JoinPair, len(pairs))
	for i, p := range pairs {
		out[i] = JoinPair{TID: p.TID, QID: p.QID, Distance: p.Distance}
	}
	return out, nil
}

func (b *CoordBackend) Ingest(ctx context.Context, t *traj.T) error {
	return b.C.IngestContext(ctx, b.Dataset, t)
}

func (b *CoordBackend) Delete(ctx context.Context, id int) (bool, error) {
	return b.C.DeleteContext(ctx, b.Dataset, id)
}

func (b *CoordBackend) Epochs() (EpochView, error) {
	v, err := b.C.Epochs(b.Dataset)
	if err != nil {
		return EpochView{}, err
	}
	return EpochView{Bounds: v.Bounds, Parts: v.Parts}, nil
}

func (b *CoordBackend) Touched(q []geom.Point, tau float64) ([]int, error) {
	return b.C.RelevantPartitions(b.Dataset, q, tau)
}

func (b *CoordBackend) Ready() error { return b.C.Ready() }

// EngineBackend serves a single-process core.Engine — dev mode. The
// serving layer is the engine's only writer, so one process-local
// epoch counter (bumped after each acked write) is a sound watermark:
// the whole engine is one "partition".
type EngineBackend struct {
	E       *core.Engine
	Dataset string

	mu    sync.Mutex
	epoch uint64
}

func (b *EngineBackend) Search(ctx context.Context, q []geom.Point, tau float64) ([]Hit, error) {
	res, rep, err := b.E.SearchPartialContext(ctx, &traj.T{ID: -1, Points: q}, tau, nil)
	if err == nil {
		err = rep.Err("search")
	}
	if err != nil {
		return nil, err
	}
	return engineHits(res), nil
}

func (b *EngineBackend) KNN(ctx context.Context, q []geom.Point, k int) ([]Hit, error) {
	res, err := b.E.SearchKNNContext(ctx, &traj.T{ID: -1, Points: q}, k, nil)
	if err != nil {
		return nil, err
	}
	return engineHits(res), nil
}

func engineHits(res []core.SearchResult) []Hit {
	out := make([]Hit, len(res))
	for i, r := range res {
		out[i] = Hit{ID: r.Traj.ID, Distance: r.Distance}
	}
	return out
}

func (b *EngineBackend) Join(ctx context.Context, right string, tau float64) ([]JoinPair, error) {
	if right != b.Dataset {
		return nil, fmt.Errorf("serve: engine backend only self-joins %q, not %q", b.Dataset, right)
	}
	pairs, rep, err := b.E.JoinPartialContext(ctx, b.E, tau, core.DefaultJoinOptions(), nil)
	if err == nil {
		err = rep.Err("join")
	}
	if err != nil {
		return nil, err
	}
	out := make([]JoinPair, len(pairs))
	for i, p := range pairs {
		out[i] = JoinPair{TID: p.T.ID, QID: p.Q.ID, Distance: p.Distance}
	}
	return out, nil
}

func (b *EngineBackend) Ingest(ctx context.Context, t *traj.T) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := b.E.Insert(t); err != nil {
		return err
	}
	b.bump()
	return nil
}

func (b *EngineBackend) Delete(ctx context.Context, id int) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	existed, err := b.E.Delete(id)
	if err != nil {
		return false, err
	}
	if existed {
		b.bump()
	}
	return existed, nil
}

func (b *EngineBackend) bump() {
	b.mu.Lock()
	b.epoch++
	b.mu.Unlock()
}

func (b *EngineBackend) Epochs() (EpochView, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return EpochView{Parts: []uint64{b.epoch}}, nil
}

// Touched returns nil ("all partitions"): with a single global epoch
// there is nothing finer to depend on.
func (b *EngineBackend) Touched([]geom.Point, float64) ([]int, error) { return nil, nil }

func (b *EngineBackend) Ready() error {
	if b.E == nil {
		return errors.New("serve: engine not built")
	}
	return nil
}
