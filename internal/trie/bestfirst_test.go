package trie

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dita/internal/measure"
)

func quickMeasures() []measure.Measure {
	return []measure.Measure{
		measure.DTW{}, measure.Frechet{}, measure.EDR{Eps: 0.7},
		measure.LCSS{Eps: 0.7, Delta: 2}, measure.ERP{},
	}
}

func sortCands(cs []Cand) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Idx != cs[j].Idx {
			return cs[i].Idx < cs[j].Idx
		}
		return cs[i].LB < cs[j].LB
	})
}

// drain runs a traversal to exhaustion, taking each call's threshold from
// tau (called with the number of buckets yielded so far), and fails the
// property on a bucket out of bound order or above its call's threshold.
func drain(b *BestFirst, tau func(yielded int) float64) (out []Cand, ok bool) {
	prev := math.Inf(-1)
	for n := 0; ; n++ {
		t := tau(n)
		idxs, lb, more := b.Next(t)
		if !more {
			return out, true
		}
		if lb < prev || lb > t {
			return nil, false
		}
		prev = lb
		for _, i := range idxs {
			out = append(out, Cand{Idx: i, LB: lb})
		}
	}
}

// Draining the best-first traversal at a fixed threshold — finite, zero or
// +Inf — yields exactly the (index, bound) multiset of the recursive
// bound-aware descent at that threshold, in non-decreasing bound order, for
// every measure.
func TestQuickBestFirstMatchesSearchBounds(t *testing.T) {
	ctx := context.Background()
	f := func(w qworld) bool {
		tr := Build(w.Trajs, w.Cfg)
		for _, m := range quickMeasures() {
			for _, tau := range []float64{w.Tau, 0, math.Inf(1)} {
				if m.Accumulation() == measure.AccumEdit && !math.IsInf(tau, 1) {
					tau = float64(int(tau)) // integer edit budgets
				}
				want, err := tr.SearchBoundsContext(ctx, w.Query, m, tau, nil)
				if err != nil {
					return false
				}
				b := tr.BestFirst(ctx, w.Query, m)
				got, ok := drain(b, func(int) float64 { return tau })
				if !ok || b.Err() != nil || len(got) != len(want) {
					return false
				}
				sortCands(got)
				sortCands(want)
				for i := range want {
					if got[i] != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// A threshold that shrinks between Next calls — from +Inf down to its final
// value, the way a top-k scan tightens it — never loses a member the
// recursive descent keeps at the final threshold. A looser threshold on the
// way down can only advance the Lemma 5.1 suffix less, so the bound a member
// is yielded at is at most its bound at the final threshold.
func TestQuickBestFirstShrinkingTau(t *testing.T) {
	ctx := context.Background()
	f := func(w qworld) bool {
		tr := Build(w.Trajs, w.Cfg)
		for _, m := range quickMeasures() {
			final := w.Tau
			if m.Accumulation() == measure.AccumEdit {
				final = float64(int(final))
			}
			want, err := tr.SearchBoundsContext(ctx, w.Query, m, final, nil)
			if err != nil {
				return false
			}
			b := tr.BestFirst(ctx, w.Query, m)
			got, ok := drain(b, func(yielded int) float64 {
				switch {
				case yielded < 2:
					return math.Inf(1)
				case yielded < 6:
					return final + float64(6-yielded)
				}
				return final
			})
			if !ok || b.Err() != nil {
				return false
			}
			at := map[int]float64{}
			for _, c := range got {
				if _, dup := at[c.Idx]; dup {
					return false
				}
				at[c.Idx] = c.LB
			}
			for _, c := range want {
				if lb, ok := at[c.Idx]; !ok || lb > c.LB {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// A cancelled context ends the traversal within ctxCheckEvery node visits
// and surfaces as Err.
func TestBestFirstCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := Build(randTrajs(rng, 4000), Config{K: 4, NLAlign: 8, NLPivot: 4, MinNode: 2})
	ctx, cancel := context.WithCancel(context.Background())
	b := tr.BestFirst(ctx, randTraj(rng, -1, 12).Points, measure.DTW{})
	if _, _, ok := b.Next(math.Inf(1)); !ok || b.Err() != nil {
		t.Fatalf("first bucket: ok=%v err=%v", ok, b.Err())
	}
	cancel()
	got, _ := drain(b, func(int) float64 { return math.Inf(1) })
	if b.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", b.Err())
	}
	if len(got) >= len(tr.Trajs)/2 {
		t.Fatalf("cancelled traversal still yielded %d of %d members", len(got), len(tr.Trajs))
	}
}
