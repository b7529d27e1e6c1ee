package core

import (
	"context"
	"time"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/obs"
	"dita/internal/traj"
	"dita/internal/trie"
)

// View is one query's picture of one partition: the trie with the base
// members it indexes, then the overlay members the query can see (inserted
// or updated since the trie was built, unindexed until the next merge).
// Masked hides base members deleted or superseded since; it is nil when
// there are none. A member's slot is its position in that order — base
// first, overlay after — and is the canonical order by which a partition
// joined with itself takes each pair of members once.
//
// Every read of a partition (Search, KNNScan, Select, JoinEdge) is a
// function over a View, and the engine and the network-mode worker both
// run them. Both capture it the one way, Store.View: the base aliased, the
// overlay and the masks copied under the store's read lock — O(overlay),
// never O(base) — so a view is one instant of the partition for as long as
// its query keeps it, whatever the store applies or installs meanwhile.
type View struct {
	Index       *trie.Trie
	Base        []*traj.T
	BaseMeta    []VerifyMeta
	Overlay     []*traj.T
	OverlayMeta []VerifyMeta
	Masked      func(id int) bool

	baseBytes int // the base's size (Store.Bytes), what shipping it costs
}

// Len is the number of slots, masked base members included.
func (v *View) Len() int { return len(v.Base) + len(v.Overlay) }

// At returns the member in slot i and its verification metadata.
func (v *View) At(i int) (*traj.T, VerifyMeta) {
	if i < len(v.Base) {
		return v.Base[i], v.BaseMeta[i]
	}
	i -= len(v.Base)
	return v.Overlay[i], v.OverlayMeta[i]
}

// visible reports whether the member in slot i is one the query sees.
func (v *View) visible(i int) bool {
	return i >= len(v.Base) || v.Masked == nil || !v.Masked(v.Base[i].ID)
}

// Visible returns the members the query sees, in slot order. Without masks
// or overlay that is the base slice itself: callers must not mutate it.
func (v *View) Visible() []*traj.T {
	if v.Masked == nil && len(v.Overlay) == 0 {
		return v.Base
	}
	out := make([]*traj.T, 0, v.Len())
	for i, t := range v.Base {
		if v.visible(i) {
			out = append(out, t)
		}
	}
	return append(out, v.Overlay...)
}

// Select returns the visible members keep accepts (all of them when keep
// is nil) with their metadata and slots, in slot order. The context is
// checked once per member.
func (v *View) Select(ctx context.Context, keep func(*traj.T) bool) (ts []*traj.T, meta []VerifyMeta, slots []int, err error) {
	for i, n := 0, v.Len(); i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		if !v.visible(i) {
			continue
		}
		if t, m := v.At(i); keep == nil || keep(t) {
			ts, meta, slots = append(ts, t), append(meta, m), append(slots, i)
		}
	}
	return ts, meta, slots, nil
}

// ScanStats is what one partition-local read did: its pruning funnel
// (Considered onward) and the wall time of its two phases, probing the trie
// and verifying what it handed over.
type ScanStats struct {
	Funnel        obs.Funnel
	Probe, Verify time.Duration
}

// Search is the local half of a threshold search (Algorithm 2): the trie
// descent, minus the masked candidates, then the verification cascade over
// the surviving base candidates and over every overlay member — which
// bypass the trie but are filtered and verified exactly like a base member,
// through the same Verifier. Hits come back base first, each part in slot
// order. Cancellation is checked inside the descent and before every
// verification step. The funnel counts every slot as considered and the
// unmasked candidates plus the overlay as the trie's output. The phase
// times are taken only when timed is set: an untimed search reads no clock.
func (v *View) Search(ctx context.Context, m measure.Measure, q []geom.Point, tau float64, parallelism int, timed bool) ([]SearchResult, ScanStats, error) {
	var st ScanStats
	var start, probed time.Time
	if timed {
		start = time.Now()
	}
	cands, err := v.Index.SearchContext(ctx, q, m, tau, nil)
	if v.Masked != nil {
		kept := cands[:0]
		for _, i := range cands {
			if !v.Masked(v.Base[i].ID) {
				kept = append(kept, i)
			}
		}
		cands = kept
	}
	nCands := len(cands) + len(v.Overlay)
	st.Funnel = obs.Funnel{Considered: int64(v.Len()), TrieCands: int64(nCands)}
	if timed {
		probed = time.Now()
		st.Probe = probed.Sub(start)
	}
	if err != nil || nCands == 0 {
		return nil, st, err
	}
	ver := NewVerifier(m, q, tau, 0)
	var out []SearchResult
	verify := func(trajs []*traj.T, meta []VerifyMeta, cands []int) error {
		hits, err := ver.VerifyAll(ctx, trajs, meta, cands, parallelism)
		for _, h := range hits {
			out = append(out, SearchResult{Traj: trajs[h.Index], Distance: h.Distance})
		}
		return err
	}
	err = verify(v.Base, v.BaseMeta, cands)
	if err == nil && len(v.Overlay) > 0 {
		all := make([]int, len(v.Overlay))
		for i := range all {
			all[i] = i
		}
		err = verify(v.Overlay, v.OverlayMeta, all)
	}
	st.Funnel = ver.Funnel(v.Len(), nCands)
	if timed {
		st.Verify = time.Since(probed)
	}
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

// KNNScan is the local half of a best-first kNN: KNNScanPartition over the
// base, then KNNScanLive over the overlay, into the same accumulator — the
// bound-tightening τ carries across. capTau is the scans'.
func (v *View) KNNScan(ctx context.Context, m measure.Measure, q []geom.Point, acc *KNNAcc, capTau float64) (obs.Funnel, error) {
	f, err := KNNScanPartition(ctx, m, q, v.Index, v.Base, v.BaseMeta, v.Masked, acc, capTau)
	if err != nil || len(v.Overlay) == 0 {
		return f, err
	}
	lf, err := KNNScanLive(ctx, m, q, v.Overlay, v.OverlayMeta, acc, capTau)
	f.Merge(lf)
	return f, err
}
