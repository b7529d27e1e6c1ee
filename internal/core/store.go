package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dita/internal/snap"
	"dita/internal/traj"
	"dita/internal/trie"
	"dita/internal/wal"
)

// Store is one partition's storage, the same under both hosts — the paper's
// partition holds its members and its local trie whatever runs it (§4–5):
// a sealed base (members, trie, verification metadata) under an overlay of
// the mutations since, and the write-ahead log that makes those durable.
// core.Partition and the network-mode worker each hold one and keep only
// what is theirs: routing, sequence numbers, bounds, identity.
//
// The overlay is the delta — members inserted or updated since the base
// was built, in apply order, each id once, an update moving to the end —
// and tombstones masking the base members deleted or superseded; while a
// fold runs, also the frozen pair it rotated out, which the new base is
// being built from. watermark is the highest sequence number folded into
// the base (what its sealed image records), lastSeq the highest applied.
//
// One lock discipline for both hosts, outermost first:
//
//   - the fold hold (HoldFolds) serialises folds end to end — rotate,
//     build, install, seal, truncate — and fences a host's teardown;
//   - the append lock (LockAppend) is the host's: it serialises the route
//     re-check, the sequence reservation, Apply and the host's bookkeeping,
//     so a log's record order is its apply order;
//   - a host lock its readers take (the engine's Engine.mu; none on a
//     worker), which Apply and Fold publish their changes under;
//   - the overlay lock, held only to apply, rotate, install and capture a
//     view — never across an fsync or a trie build, so no read waits on
//     either.
type Store struct {
	// Trajs and Index are the base: the members the trie indexes, in its
	// slot order. A fold installs new ones and mutates neither in place.
	// Read them through a View, or under the host lock installs are
	// published under.
	Trajs []*traj.T
	Index *trie.Trie
	meta  []VerifyMeta
	bytes int
	cfg   trie.Config

	foldMu   sync.Mutex
	appendMu sync.Mutex
	mu       sync.RWMutex // the overlay lock: the fields below, and the base when it changes

	// baseIDs is the base's id set, built by the first mutation that asks
	// and dropped at the next install.
	baseIDs    map[int]struct{}
	delta      overlay
	frozen     *overlay // the delta a fold is folding; nil otherwise
	tomb       idSet    // base or frozen members hidden since the last rotation
	frozenTomb idSet    // base members hidden before it, which the fold drops
	watermark  uint64
	lastSeq    uint64
	wlog       *wal.Log
}

// ErrDeltaBacklog refuses a batch arriving while the partition's overlay
// (delta plus any frozen delta) holds MergePolicy.MaxDeltaBytes. The engine
// returns it from Insert and Delete; the worker answers with its overload
// error, so backpressure reaches the client through the admit layer.
var ErrDeltaBacklog = errors.New("core: ingest: partition delta backlog at bound")

// MergePolicy is a partition's overlay budget, one for both hosts; a field
// <= 0 takes its default.
type MergePolicy struct {
	// MergeBytes is the delta size at which a partition folds itself; 1 MiB.
	MergeBytes int
	// MaxDeltaBytes is the overlay size at which batches are refused with
	// ErrDeltaBacklog until a fold drains it; 8 MiB.
	MaxDeltaBytes int
}

func (p MergePolicy) withDefaults() MergePolicy {
	if p.MergeBytes <= 0 {
		p.MergeBytes = 1 << 20
	}
	if p.MaxDeltaBytes <= 0 {
		p.MaxDeltaBytes = 8 << 20
	}
	return p
}

// NewStore makes a store over a built base: members in index's slot order,
// or — index nil — members the store indexes itself under cfg, which every
// later fold builds with too. watermark is the highest sequence number the
// members already hold.
func NewStore(cfg trie.Config, members []*traj.T, index *trie.Trie, watermark uint64) *Store {
	s := &Store{cfg: cfg, watermark: watermark, lastSeq: watermark}
	if index == nil {
		index = s.index(members)
	}
	meta := make([]VerifyMeta, len(members))
	for i, t := range members {
		meta[i] = newTrajMeta(t)
	}
	s.setBase(members, meta, index)
	return s
}

// index builds a trie over members: a new store's, a fold's and an export's.
func (s *Store) index(members []*traj.T) *trie.Trie { return trie.Build(members, s.cfg) }

// setBase installs a base. The caller holds mu or owns the store.
func (s *Store) setBase(members []*traj.T, meta []VerifyMeta, index *trie.Trie) {
	s.Trajs, s.meta, s.Index, s.baseIDs = members, meta, index, nil
	s.bytes = 0
	for _, t := range members {
		s.bytes += t.Bytes()
	}
}

// Bytes is the base's size, traj.T.Bytes summed over its members.
func (s *Store) Bytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// BaseSize is the base's member count and trie size.
func (s *Store) BaseSize() (members, indexBytes int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.Trajs), s.Index.SizeBytes()
}

// OverlayBytes is the unmerged backlog: the delta plus any frozen delta.
func (s *Store) OverlayBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.overlayBytes()
}

func (s *Store) overlayBytes() int {
	n := s.delta.bytes
	if s.frozen != nil {
		n += s.frozen.bytes
	}
	return n
}

// LastSeq is the highest sequence number applied (the watermark before any).
func (s *Store) LastSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastSeq
}

// View captures the partition for one query: the base as it stands, a copy
// of the masks, and a copy of the overlay — the frozen members not since
// superseded, then the delta. The copies are O(overlay) and the base is
// never copied, so a view stays consistent for the rest of its query
// whatever is applied or installed meanwhile.
func (s *Store) View() *View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.viewLocked()
}

func (s *Store) viewLocked() *View {
	v := &View{Index: s.Index, Base: s.Trajs, BaseMeta: s.meta}
	if len(s.tomb)+len(s.frozenTomb) > 0 {
		masked := append(append(make(idSet, 0, len(s.tomb)+len(s.frozenTomb)), s.tomb...), s.frozenTomb...)
		if len(s.tomb) > 0 && len(s.frozenTomb) > 0 {
			slices.Sort(masked)
		}
		v.Masked = masked.has
	}
	n := len(s.delta.live)
	if s.frozen != nil {
		n += len(s.frozen.live)
	}
	if n == 0 {
		return v
	}
	v.Overlay, v.OverlayMeta = make([]*traj.T, 0, n), make([]VerifyMeta, 0, n)
	if s.frozen != nil {
		for i, t := range s.frozen.live {
			if !s.tomb.has(t.ID) {
				v.Overlay, v.OverlayMeta = append(v.Overlay, t), append(v.OverlayMeta, s.frozen.meta[i])
			}
		}
	}
	v.Overlay, v.OverlayMeta = append(v.Overlay, s.delta.live...), append(v.OverlayMeta, s.delta.meta...)
	return v
}

// Visible returns the members a query sees now, in slot order, and the last
// sequence number applied: the partition as of lastSeq.
func (s *Store) Visible() (members []*traj.T, lastSeq uint64) {
	s.mu.RLock()
	v, lastSeq := s.viewLocked(), s.lastSeq
	s.mu.RUnlock()
	return v.Visible(), lastSeq
}

// BaseImage is the base as a snapshot — members, trie and the watermark
// they cover; the overlay is the log's. The host names it (Dataset,
// Partition, Opts).
func (s *Store) BaseImage() *snap.Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &snap.Snapshot{Trajs: s.Trajs, Index: s.Index, Watermark: s.watermark}
}

// Export is the partition's visible state as a snapshot at lastSeq: the
// base itself while there is no overlay, else the visible members under a
// trie built for them (off the lock), so whoever restores the image replays
// nothing it already holds. The host names it.
func (s *Store) Export() *snap.Snapshot {
	s.mu.RLock()
	v, lastSeq := s.viewLocked(), s.lastSeq
	s.mu.RUnlock()
	img := &snap.Snapshot{Trajs: v.Base, Index: v.Index, Watermark: lastSeq}
	if v.Masked != nil || len(v.Overlay) > 0 {
		img.Trajs = v.Visible()
		img.Index = s.index(img.Trajs)
	}
	return img
}

// LockAppend takes the append lock; see the Store comment for what it
// covers. UnlockAppend releases it.
func (s *Store) LockAppend()   { s.appendMu.Lock() }
func (s *Store) UnlockAppend() { s.appendMu.Unlock() }

// Applied is what one Apply did.
type Applied struct {
	// Fresh counts the records logged and applied, Deduped those skipped as
	// at or below the dedupe floor.
	Fresh, Deduped int
	// LastSeq and OverlayBytes are the store's after the call.
	LastSeq      uint64
	OverlayBytes int
	// MergeDue reports a delta at MergePolicy.MergeBytes with no fold in
	// flight: the host should Fold once it has released the append lock.
	MergeDue bool
}

// Apply makes a batch of records, ascending by Seq, durable and then
// visible. Every insert is validated (traj.Validate) before anything
// happens; records at or below max(lastSeq, watermark) are skipped as
// retransmissions of applied ones; the rest are refused with
// ErrDeltaBacklog while the overlay is at pol.MaxDeltaBytes, else appended
// to the log with one fsync and only then applied in memory — an insert as
// an upsert by id, a delete hiding whatever copy of the id is visible.
// publish, when set, runs the in-memory apply: it calls apply once, under
// the host's lock, beside the host's own bookkeeping. A call that fails
// applies nothing. The caller holds the append lock.
func (s *Store) Apply(pol MergePolicy, recs []wal.Record, publish func(apply func())) (Applied, error) {
	for _, r := range recs {
		switch r.Op {
		case wal.OpInsert:
			if err := (&traj.T{ID: r.ID, Points: r.Points}).Validate(); err != nil {
				return Applied{}, err
			}
		case wal.OpDelete:
		default:
			return Applied{}, fmt.Errorf("core: record %d: unknown op %d", r.Seq, r.Op)
		}
	}
	pol = pol.withDefaults()
	s.mu.RLock()
	floor, wlog := max(s.lastSeq, s.watermark), s.wlog
	a := Applied{LastSeq: s.lastSeq, OverlayBytes: s.overlayBytes()}
	s.mu.RUnlock()
	for a.Deduped < len(recs) && recs[a.Deduped].Seq <= floor {
		a.Deduped++
	}
	fresh := recs[a.Deduped:]
	if len(fresh) == 0 {
		return a, nil
	}
	if a.OverlayBytes >= pol.MaxDeltaBytes {
		return a, fmt.Errorf("%w: overlay %d bytes (max %d)", ErrDeltaBacklog, a.OverlayBytes, pol.MaxDeltaBytes)
	}
	if wlog != nil {
		if err := wlog.Append(fresh...); err != nil {
			return a, err
		}
	}
	apply := func() {
		s.mu.Lock()
		for _, r := range fresh {
			s.applyRecord(r)
		}
		a.Fresh, a.LastSeq, a.OverlayBytes = len(fresh), s.lastSeq, s.overlayBytes()
		a.MergeDue = s.frozen == nil && s.delta.bytes >= pol.MergeBytes
		s.mu.Unlock()
	}
	if publish == nil {
		apply()
	} else {
		publish(apply)
	}
	return a, nil
}

// applyRecord applies one logged record in memory: an insert is an upsert
// by id, a delete hides whatever copy of the id is visible. Callers hold mu.
func (s *Store) applyRecord(r wal.Record) {
	s.hide(r.ID)
	if r.Op == wal.OpInsert {
		s.delta.add(&traj.T{ID: r.ID, Points: r.Points})
	}
	s.lastSeq = max(s.lastSeq, r.Seq)
}

// hide masks the copy of id a query sees now: a delta copy is dropped, a
// frozen or base copy tombstoned. Callers hold mu.
func (s *Store) hide(id int) {
	if s.delta.remove(id) || s.tomb.has(id) {
		return // the delta copy is gone, or the older copy is hidden already
	}
	if (s.frozen != nil && s.frozen.has(id)) || (s.inBase(id) && !s.frozenTomb.has(id)) {
		s.tomb.add(id)
	}
}

// inBase reports whether the base holds id. Callers hold mu.
func (s *Store) inBase(id int) bool {
	if s.baseIDs == nil {
		s.baseIDs = make(map[int]struct{}, len(s.Trajs))
		for _, t := range s.Trajs {
			s.baseIDs[t.ID] = struct{}{}
		}
	}
	_, ok := s.baseIDs[id]
	return ok
}

// MaskBase hides the base member id without a log record: a copy the host
// finds visible twice across partitions at recovery, which it re-derives at
// every cold start.
func (s *Store) MaskBase(id int) {
	s.mu.Lock()
	s.tomb.add(id)
	s.mu.Unlock()
}

// Recover attaches the partition's log (nil: none) and replays the records
// it held before a restart that lie past the watermark — nil for a fresh
// log. It returns the records it replayed.
func (s *Store) Recover(l *wal.Log, logged []wal.Record) (replayed []wal.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wlog = l
	for _, r := range logged {
		if r.Seq <= s.watermark {
			continue // folded into the base already: a crash between seal and truncate
		}
		s.applyRecord(r)
		replayed = append(replayed, r)
	}
	return replayed
}

// CloseLog detaches and closes the log. An Apply racing it either appended
// first (the record is durable and applied) or fails its append (nothing is
// applied or acked) — crash semantics.
func (s *Store) CloseLog() error {
	s.mu.Lock()
	l := s.wlog
	s.wlog = nil
	s.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.Close()
}

// HoldFolds waits out a fold in flight and keeps new ones from starting
// until release: what a host holds while it tears the durable pair down, so
// no fold seals or truncates on top of the teardown.
func (s *Store) HoldFolds() (release func()) {
	s.foldMu.Lock()
	return s.foldMu.Unlock
}

// TryHoldFolds is HoldFolds without the wait: ok is false, and nothing is
// held, while a fold is in flight.
func (s *Store) TryHoldFolds() (release func(), ok bool) {
	if !s.foldMu.TryLock() {
		return nil, false
	}
	return s.foldMu.Unlock, true
}

// FoldHooks is what a host adds to a fold.
type FoldHooks struct {
	// Publish, when set, installs the rebuilt base: it calls install once,
	// under the host's lock, beside what the host derives from the new base
	// image (its bounds, its identity).
	Publish func(base *snap.Snapshot, install func())
	// Seal, when set, persists the new base image, which the host names;
	// the log is truncated through the image's watermark only after Seal
	// returns nil. Unset, nothing is sealed and the log is kept whole.
	Seal func(base *snap.Snapshot) error
}

// foldHook, when set, runs inside every fold's off-lock window, after the
// rotation and before the rebuilt base is installed.
var foldHook atomic.Pointer[func(*Store)]

// SetFoldHook makes f run inside every fold's off-lock window, after the
// rotation and before the install, until restore is called: how tests hold
// the frozen-overlay state open. Nothing else may set it.
func SetFoldHook(f func(*Store)) (restore func()) {
	foldHook.Store(&f)
	return func() { foldHook.Store(nil) }
}

// Fold folds the overlay into a fresh base, reporting whether there was
// anything to fold and no fold already in flight. It rotates under the
// overlay lock — the delta and tombstones freeze, applies start new ones,
// and the watermark is lastSeq, exactly what the frozen pair holds — builds
// the new base (the base minus the frozen tombstones, plus the frozen
// delta) off every lock while queries and applies proceed, installs it
// through h.Publish — the visible set does not change — and seals it
// through h.Seal. The log is truncated through the watermark only after a
// successful seal: until then the old (image, log) pair is authoritative,
// and a crash between seal and truncation replays records the new image
// holds, which the watermark skip makes idempotent. A failed seal or
// truncation is returned; the fold itself stands.
func (s *Store) Fold(h FoldHooks) (bool, error) {
	if !s.foldMu.TryLock() {
		return false, nil
	}
	defer s.foldMu.Unlock()
	s.mu.Lock()
	if len(s.delta.live) == 0 && len(s.tomb) == 0 {
		s.mu.Unlock()
		return false, nil
	}
	frozen := s.delta
	s.frozen, s.delta = &frozen, overlay{}
	s.frozenTomb, s.tomb = s.tomb, nil
	base, baseMeta, drop, watermark, wlog := s.Trajs, s.meta, s.frozenTomb, s.lastSeq, s.wlog
	s.mu.Unlock()

	if hook := foldHook.Load(); hook != nil {
		(*hook)(s)
	}

	members := make([]*traj.T, 0, len(base)+len(frozen.live))
	meta := make([]VerifyMeta, 0, cap(members))
	for i, t := range base {
		if !drop.has(t.ID) {
			members, meta = append(members, t), append(meta, baseMeta[i])
		}
	}
	members, meta = append(members, frozen.live...), append(meta, frozen.meta...)
	img := &snap.Snapshot{Trajs: members, Index: s.index(members), Watermark: watermark}
	install := func() {
		s.mu.Lock()
		s.setBase(members, meta, img.Index)
		s.frozen, s.frozenTomb, s.watermark = nil, nil, watermark
		s.mu.Unlock()
	}
	if h.Publish == nil {
		install()
	} else {
		h.Publish(img, install)
	}
	if h.Seal == nil {
		return true, nil
	}
	if err := h.Seal(img); err != nil {
		return true, err
	}
	if wlog != nil {
		if err := wlog.TruncateThrough(watermark); err != nil {
			return true, err
		}
	}
	return true, nil
}

// overlay is an ordered set of members with their verification metadata:
// the delta, or the frozen delta a fold is folding.
type overlay struct {
	live  []*traj.T
	meta  []VerifyMeta
	pos   map[int]int // id → index in live
	bytes int
}

func (o *overlay) has(id int) bool {
	_, ok := o.pos[id]
	return ok
}

func (o *overlay) add(t *traj.T) {
	if o.pos == nil {
		o.pos = map[int]int{}
	}
	o.pos[t.ID] = len(o.live)
	o.live, o.meta = append(o.live, t), append(o.meta, newTrajMeta(t))
	o.bytes += t.Bytes()
}

// remove drops id's member, keeping the rest in order, and reports whether
// there was one.
func (o *overlay) remove(id int) bool {
	i, ok := o.pos[id]
	if !ok {
		return false
	}
	o.bytes -= o.live[i].Bytes()
	o.live, o.meta = slices.Delete(o.live, i, i+1), slices.Delete(o.meta, i, i+1)
	delete(o.pos, id)
	for j := i; j < len(o.live); j++ {
		o.pos[o.live[j].ID] = j
	}
	return true
}

// idSet is a sorted set of ids, so a view copies it with one memmove.
type idSet []int

func (s idSet) has(id int) bool {
	_, ok := slices.BinarySearch(s, id)
	return ok
}

func (s *idSet) add(id int) {
	if i, ok := slices.BinarySearch(*s, id); !ok {
		*s = slices.Insert(*s, i, id)
	}
}
