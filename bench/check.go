package main

import (
	"fmt"
	"math"
	"sort"

	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/traj"
)

// The oracle answers by brute force with measure.DTW.Distance. It skips a
// trajectory only on the endpoint bound: every DTW warping path of two
// trajectories of two or more points pairs first with first and last with
// last, so d(first,first)+d(last,last) > tau proves DTW > tau. That bound is
// derived here, not taken from the program under test.

const distTol = 1e-9

var dtw = measure.DTW{}

func endpointBound(t, q []geom.Point) float64 {
	return t[0].Dist(q[0]) + t[len(t)-1].Dist(q[len(q)-1])
}

// model is the set of trajectories the acked writes leave visible in "trips".
type model struct {
	corpus   *traj.Dataset
	inserted map[int]*traj.T // acked inserts still visible
	deleted  map[int]*traj.T // acked deletes
}

func newModel(corpus *traj.Dataset) *model {
	return &model{corpus: corpus, inserted: map[int]*traj.T{}, deleted: map[int]*traj.T{}}
}

func (m *model) visible() int { return m.corpus.Len() + len(m.inserted) }

func (m *model) each(fn func(t *traj.T)) {
	for _, t := range m.corpus.Trajs {
		fn(t)
	}
	for _, t := range m.inserted {
		fn(t)
	}
}

// within returns id -> distance of every visible trajectory within tau of q.
func (m *model) within(q []geom.Point, tau float64) map[int]float64 {
	out := map[int]float64{}
	m.each(func(t *traj.T) {
		if endpointBound(t.Points, q) > tau {
			return
		}
		if d := dtw.Distance(t.Points, q); d <= tau {
			out[t.ID] = d
		}
	})
	return out
}

func checkSearch(got []hit, want map[int]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("search returned %d hits, brute force %d", len(got), len(want))
	}
	for _, h := range got {
		d, ok := want[h.ID]
		if !ok || math.Abs(d-h.Dist) > distTol {
			return fmt.Errorf("search hit id %d dist %g: brute force has %g (present %v)", h.ID, h.Dist, d, ok)
		}
	}
	return nil
}

// checkKNN accepts any tie-break at the k-th distance: the reported distances
// must be exact, and nothing strictly closer than the k-th may be missing.
func checkKNN(m *model, q []geom.Point, k int, got []hit) error {
	wantLen := k
	if v := m.visible(); v < k {
		wantLen = v
	}
	if len(got) != wantLen {
		return fmt.Errorf("kNN returned %d hits, want %d", len(got), wantLen)
	}
	var dk float64
	for _, h := range got {
		dk = math.Max(dk, h.Dist)
	}
	want := m.within(q, dk+distTol)
	seen := map[int]bool{}
	for _, h := range got {
		d, ok := want[h.ID]
		if !ok || math.Abs(d-h.Dist) > distTol || seen[h.ID] {
			return fmt.Errorf("kNN hit id %d dist %g: brute force has %g (present %v, repeated %v)", h.ID, h.Dist, d, ok, seen[h.ID])
		}
		seen[h.ID] = true
	}
	for id, d := range want {
		if d < dk-distTol && !seen[id] {
			return fmt.Errorf("kNN missed id %d at %g, closer than its k-th distance %g", id, d, dk)
		}
	}
	return nil
}

// bruteJoin returns the self-join of d at tau as ordered pairs (t,q), t == q
// included, keyed t<<32|q. Candidates are windowed on the first point's X,
// which the endpoint bound implies.
func bruteJoin(d *traj.Dataset, tau float64) map[uint64]float64 {
	ts := append([]*traj.T(nil), d.Trajs...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].First().X < ts[j].First().X })
	out := map[uint64]float64{}
	for i, a := range ts {
		for j := i; j < len(ts) && ts[j].First().X-a.First().X <= tau; j++ {
			b := ts[j]
			if endpointBound(a.Points, b.Points) > tau {
				continue
			}
			if dist := dtw.Distance(a.Points, b.Points); dist <= tau {
				out[uint64(a.ID)<<32|uint64(b.ID)] = dist
				out[uint64(b.ID)<<32|uint64(a.ID)] = dist
			}
		}
	}
	return out
}

func checkJoin(got []joinPair, want map[uint64]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("join returned %d pairs, brute force %d", len(got), len(want))
	}
	for _, p := range got {
		d, ok := want[uint64(p.T)<<32|uint64(p.Q)]
		if !ok || math.Abs(d-p.Dist) > distTol {
			return fmt.Errorf("join pair (%d,%d) dist %g: brute force has %g (present %v)", p.T, p.Q, p.Dist, d, ok)
		}
	}
	return nil
}
