package core

import (
	"errors"
	"slices"
	"testing"

	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/trie"
	"dita/internal/wal"
)

// storeWithLog is a store over n generated members with a fresh log.
func storeWithLog(t *testing.T, n int) (*Store, *wal.Store, *wal.Log) {
	t.Helper()
	ws, err := wal.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := ws.Open("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s := NewStore(trie.DefaultConfig(), smallDataset(n, 121).Trajs, nil, 0)
	s.Recover(l, nil)
	return s, ws, l
}

func insertRec(seq uint64, id int, src *Store) wal.Record {
	return wal.Record{Seq: seq, Op: wal.OpInsert, ID: id, Points: src.Trajs[0].Points}
}

// Apply checks before it logs and logs before it applies: an invalid
// insert refuses the whole batch, records at or below the floor are
// retransmissions, and a backlog at the bound refuses new records — each
// leaving the log and the view as they were.
func TestStoreApplyRefusesBeforeLogging(t *testing.T) {
	s, _, l := storeWithLog(t, 40)
	n0 := len(s.View().Visible())
	bad := wal.Record{Seq: 2, Op: wal.OpInsert, ID: 9001, Points: s.Trajs[0].Points[:1]}
	if _, err := s.Apply(MergePolicy{}, []wal.Record{insertRec(1, 9000, s), bad}, nil); err == nil {
		t.Fatal("a batch with a one-point insert was applied")
	}
	if l.LastSeq() != 0 || len(s.View().Visible()) != n0 {
		t.Fatalf("a refused batch logged through %d and shows %d members", l.LastSeq(), len(s.View().Visible()))
	}
	a, err := s.Apply(MergePolicy{}, []wal.Record{insertRec(1, 9000, s), {Seq: 2, Op: wal.OpDelete, ID: s.Trajs[3].ID}}, nil)
	if err != nil || a.Fresh != 2 || a.LastSeq != 2 || l.LastSeq() != 2 {
		t.Fatalf("apply: %+v, err %v, log at %d", a, err, l.LastSeq())
	}
	a, err = s.Apply(MergePolicy{}, []wal.Record{insertRec(2, 9002, s), insertRec(3, 9003, s)}, nil)
	if err != nil || a.Deduped != 1 || a.Fresh != 1 || l.LastSeq() != 3 {
		t.Fatalf("retransmission: %+v, err %v, log at %d", a, err, l.LastSeq())
	}
	a, err = s.Apply(MergePolicy{MaxDeltaBytes: 1}, []wal.Record{insertRec(4, 9004, s)}, nil)
	if !errors.Is(err, ErrDeltaBacklog) || l.LastSeq() != 3 {
		t.Fatalf("backlog: %+v, err %v, log at %d", a, err, l.LastSeq())
	}
	if got := len(s.View().Visible()); got != n0+1 {
		t.Fatalf("%d members visible, want %d: two inserts and a delete", got, n0+1)
	}
}

// A fold truncates the log only after its seal succeeded, and the image it
// sealed plus what the log kept rebuild the store exactly.
func TestStoreFoldTruncatesAfterSeal(t *testing.T) {
	s, ws, l := storeWithLog(t, 40)
	recs := []wal.Record{insertRec(1, 9000, s), {Seq: 2, Op: wal.OpDelete, ID: s.Trajs[5].ID}, insertRec(3, s.Trajs[6].ID, s)}
	if _, err := s.Apply(MergePolicy{}, recs, nil); err != nil {
		t.Fatal(err)
	}
	size := l.Size()
	errSeal := errors.New("seal refused")
	if did, err := s.Fold(FoldHooks{Seal: func(*snap.Snapshot) error { return errSeal }}); !did || !errors.Is(err, errSeal) {
		t.Fatalf("fold: did=%v err=%v", did, err)
	}
	if l.Size() != size {
		t.Fatalf("a failed seal let the log shrink from %d to %d bytes", size, l.Size())
	}
	if _, err := s.Apply(MergePolicy{}, []wal.Record{insertRec(4, 9004, s)}, nil); err != nil {
		t.Fatal(err)
	}
	var img *snap.Snapshot
	if did, err := s.Fold(FoldHooks{Seal: func(b *snap.Snapshot) error { img = b; return nil }}); !did || err != nil || img.Watermark != 4 {
		t.Fatalf("fold: did=%v err=%v", did, err)
	}
	if _, err := s.Apply(MergePolicy{}, []wal.Record{{Seq: 5, Op: wal.OpDelete, ID: 9000}}, nil); err != nil {
		t.Fatal(err)
	}
	l2, rep, err := ws.Open("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	cold := NewStore(trie.DefaultConfig(), img.Trajs, img.Index, img.Watermark)
	if n := len(cold.Recover(l2, rep.Records)); n != 1 {
		t.Fatalf("replayed %d records past the seal, want 1", n)
	}
	got, _ := cold.Visible()
	want, _ := s.Visible()
	if !slices.EqualFunc(got, want, func(a, b *traj.T) bool { return a.ID == b.ID && slices.Equal(a.Points, b.Points) }) {
		t.Fatalf("rebuilt store shows %d members, the live one %d", len(got), len(want))
	}
}

// View copies what it must and nothing more: the overlay and the masks,
// which later applies change, never the base.
func TestStoreViewIsOneInstant(t *testing.T) {
	s, _, _ := storeWithLog(t, 40)
	if _, err := s.Apply(MergePolicy{}, []wal.Record{insertRec(1, 9000, s), {Seq: 2, Op: wal.OpDelete, ID: s.Trajs[1].ID}}, nil); err != nil {
		t.Fatal(err)
	}
	v := s.View()
	before := slices.Clone(v.Visible())
	if _, err := s.Apply(MergePolicy{}, []wal.Record{{Seq: 3, Op: wal.OpDelete, ID: 9000}, {Seq: 4, Op: wal.OpDelete, ID: s.Trajs[2].ID}}, nil); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(v.Visible(), before) || &v.Base[0] != &s.Trajs[0] {
		t.Fatal("a captured view changed under later applies, or copied the base")
	}
}
