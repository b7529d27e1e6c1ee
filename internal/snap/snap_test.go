package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dita/internal/gen"
	"dita/internal/geom"
	"dita/internal/measure"
	"dita/internal/pivot"
	"dita/internal/traj"
	"dita/internal/trie"
)

// testSnapshot builds a small but structurally rich snapshot: enough
// trajectories that the trie has internal levels, pivots, and an
// exhausted bucket (short trajectories).
func testSnapshot(t testing.TB, n int, seed int64) *Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	trajs := make([]*traj.T, n)
	for i := range trajs {
		np := 2 + rng.Intn(12)
		pts := make([]geom.Point, np)
		x, y := rng.Float64(), rng.Float64()
		for j := range pts {
			x += rng.NormFloat64() * 0.01
			y += rng.NormFloat64() * 0.01
			pts[j] = geom.Point{X: x, Y: y}
		}
		trajs[i] = &traj.T{ID: 1000 + i, Points: pts}
	}
	cfg := trie.Config{K: 3, NLAlign: 4, NLPivot: 3, MinNode: 4}
	return &Snapshot{
		Dataset:   "trips",
		Partition: 7,
		Opts: BuildOptions{
			Measure: "DTW",
			K:       cfg.K, NLAlign: cfg.NLAlign, NLPivot: cfg.NLPivot, MinNode: cfg.MinNode,
			CellD: 0.01,
		},
		Trajs: trajs,
		Index: trie.Build(trajs, cfg),
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := testSnapshot(t, 60, 1)
	data := Encode(s)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Dataset != s.Dataset || got.Partition != s.Partition {
		t.Fatalf("identity mismatch: got %s/%d want %s/%d",
			got.Dataset, got.Partition, s.Dataset, s.Partition)
	}
	if got.Opts != s.Opts {
		t.Fatalf("options mismatch: got %+v want %+v", got.Opts, s.Opts)
	}
	if got.Fingerprint != s.Fingerprint || got.Fingerprint == 0 {
		t.Fatalf("fingerprint mismatch: got %016x want %016x", got.Fingerprint, s.Fingerprint)
	}
	if len(got.Trajs) != len(s.Trajs) {
		t.Fatalf("trajectory count: got %d want %d", len(got.Trajs), len(s.Trajs))
	}
	for i := range got.Trajs {
		if !reflect.DeepEqual(got.Trajs[i], s.Trajs[i]) {
			t.Fatalf("trajectory %d differs", i)
		}
	}
	// The decoded trie must be byte-identical to the built one — the
	// "cold start equals fresh build" property the whole feature rests on.
	if !bytes.Equal(got.Index.AppendBinary(nil), s.Index.AppendBinary(nil)) {
		t.Fatal("decoded trie encoding differs from built trie")
	}
	// And canonically: re-encoding the decoded snapshot is bit-exact.
	if !bytes.Equal(Encode(got), data) {
		t.Fatal("re-encoded snapshot differs from original image")
	}
	// Decoded index answers queries identically.
	q := s.Trajs[0].Points
	m := measure.DTW{}
	want := s.Index.Search(q, m, 0.05, nil)
	have := got.Index.Search(q, m, 0.05, nil)
	if !reflect.DeepEqual(want, have) {
		t.Fatalf("search candidates differ: fresh %v, decoded %v", want, have)
	}
}

func TestSnapshotWatermarkRoundTrip(t *testing.T) {
	s := testSnapshot(t, 20, 3)
	base := Encode(s)
	s.Watermark = 12345
	data := Encode(s)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Watermark != 12345 {
		t.Fatalf("Watermark = %d, want 12345", got.Watermark)
	}
	// The watermark is outside the content fingerprint: merge schedules
	// differ across replicas but content-equal partitions must still match.
	if got.Fingerprint != s.Fingerprint {
		t.Fatal("watermark changed the content fingerprint")
	}
	if !bytes.Equal(Encode(got), data) {
		t.Fatal("re-encoded watermarked snapshot differs")
	}
	// Watermark 0 keeps the pre-ingest image: no extra section at all.
	s.Watermark = 0
	if !bytes.Equal(Encode(s), base) {
		t.Fatal("zero watermark altered the snapshot image")
	}
	if dec, err := Decode(base); err != nil || dec.Watermark != 0 {
		t.Fatalf("pre-ingest image: watermark %d err %v", dec.Watermark, err)
	}
}

// TestSnapshotEveryBitFlipDetected flips one bit in every byte of the
// image and requires Decode to fail — no single-bit corruption anywhere
// (header, sections, footer) may decode successfully or panic.
func TestSnapshotEveryBitFlipDetected(t *testing.T) {
	s := testSnapshot(t, 20, 2)
	data := Encode(s)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 1 << uint(i%8)
		got, err := Decode(mut)
		if err == nil {
			t.Fatalf("bit flip at byte %d/%d decoded successfully", i, len(data))
		}
		if got != nil {
			t.Fatalf("bit flip at byte %d returned a snapshot alongside error %v", i, err)
		}
	}
}

// TestSnapshotEveryTruncationDetected cuts the image at every length and
// requires a classified failure — the torn-write matrix.
func TestSnapshotEveryTruncationDetected(t *testing.T) {
	s := testSnapshot(t, 12, 3)
	data := Encode(s)
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(data))
		} else if !IsCorrupt(err) {
			t.Fatalf("truncation to %d bytes: want CorruptError, got %v", n, err)
		}
	}
	// Appended garbage invalidates the seal position.
	if _, err := Decode(append(append([]byte(nil), data...), 0xAB)); err == nil {
		t.Fatal("appended byte decoded successfully")
	}
}

func TestSnapshotVersionBumpRefused(t *testing.T) {
	s := testSnapshot(t, 8, 4)
	data := Encode(s)
	// Patch the footer version (offset len-16..len-12) to a future one.
	mut := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(mut[len(mut)-16:], Version+1)
	_, err := Decode(mut)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("want VersionError, got %v", err)
	}
	if ve.Got != Version+1 {
		t.Fatalf("VersionError.Got = %d, want %d", ve.Got, Version+1)
	}
	if Classify(err) != "version" {
		t.Fatalf("Classify(version bump) = %q, want %q", Classify(err), "version")
	}
}

// sealImage frames the three required sections into a sealed image of the
// given format version, as Encode does for Version.
func sealImage(version uint32, s *Snapshot, trieSection []byte) []byte {
	body := append([]byte(magic), appendU32(appendU32(nil, version), 3)...)
	body = appendSection(body, kindMeta, encodeMeta(s, Fingerprint(s.Opts, s.Trajs)))
	body = appendSection(body, kindTrajs, encodeTrajs(s.Trajs))
	body = appendSection(body, kindTrie, trieSection)
	out := append(append([]byte(nil), body...), sealMagic...)
	out = appendU32(out, version)
	out = appendU32(out, crc32.Checksum(body, castagnoli))
	return appendU64(out, uint64(len(body)))
}

// format1TrieSection is the trie section as format 1 laid it out: every
// member's indexing points (first, last, pivots) sit between the trajectory
// count and the root marker.
func format1TrieSection(s *Snapshot) []byte {
	enc := s.Index.AppendBinary(nil)
	const head = 6 * 4 // config ×5, trajectory count
	out := append([]byte(nil), enc[:head]...)
	for _, t := range s.Trajs {
		ip := pivot.IndexingPoints(t.Points, s.Opts.K, pivot.Strategy(s.Opts.Strategy))
		out = appendU32(out, uint32(len(ip)))
		for _, p := range ip {
			out = appendF64(appendF64(out, p.X), p.Y)
		}
	}
	return append(out, enc[head:]...)
}

// TestFormat1ImageRefused: a file written before the indexing points left the
// format is refused as a foreign version — the one path every other version
// takes — and its trie layout is not read even when the container claims to
// be current.
func TestFormat1ImageRefused(t *testing.T) {
	s := testSnapshot(t, 40, 6)
	if got := sealImage(Version, s, s.Index.AppendBinary(nil)); !bytes.Equal(got, Encode(s)) {
		t.Fatal("test framing drifted from Encode")
	}
	old := sealImage(1, s, format1TrieSection(s))
	if len(old) != len(Encode(s))+len(s.Trajs)*4+16*countIndexingPoints(s) {
		t.Fatalf("format-1 image is %d bytes against %d now: the old layout was not reproduced", len(old), len(Encode(s)))
	}
	_, err := Decode(old)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != 1 || Classify(err) != "version" {
		t.Fatalf("format-1 image: err = %v (class %q), want VersionError{1}", err, Classify(err))
	}
	// The same trie bytes under a current, correctly checksummed container:
	// structural refusal, not a second reader.
	if _, err := Decode(sealImage(Version, s, format1TrieSection(s))); !IsCorrupt(err) {
		t.Fatalf("format-1 trie section in a current container: err = %v, want corrupt", err)
	}
}

// chainTrieSection hand-writes a trie section over n trajectories: depth
// one-child internal nodes, then one leaf listing idxs.
func chainTrieSection(s *Snapshot, depth int, idxs []uint32) []byte {
	var b []byte
	for _, v := range []int{s.Opts.K, s.Opts.NLAlign, s.Opts.NLPivot, s.Opts.MinNode, s.Opts.Strategy, len(s.Trajs)} {
		b = appendU32(b, uint32(v))
	}
	b = append(b, 1) // a root follows
	e := geom.EmptyMBR()
	for d := 0; d <= depth; d++ {
		b = appendU32(b, uint32(int32(d-1)))
		b = appendF64(appendF64(appendF64(appendF64(b, e.Min.X), e.Min.Y), e.Max.X), e.Max.Y)
		if d < depth {
			b = appendU32(append(b, 0), 1)
		}
	}
	b = appendU32(append(b, 1), uint32(len(idxs)))
	for _, i := range idxs {
		b = appendU32(b, i)
	}
	return b
}

// TestDecodeRefusesMalformedTrie: the CRCs and the fingerprint cover the
// trajectories and the options, not the shape of the trie. An image sealed
// around a trie that nests deeper than Build does, or whose leaves are not a
// permutation of the members, is corrupt — an error, not a stack overflow and
// not an index with invisible members.
func TestDecodeRefusesMalformedTrie(t *testing.T) {
	s := testSnapshot(t, 6, 8)
	perm := []uint32{0, 1, 2, 3, 4, 5}
	if _, err := Decode(sealImage(Version, s, chainTrieSection(s, s.Opts.K+2, perm))); err != nil {
		t.Fatalf("a hand-written trie as deep as Build goes: %v", err)
	}
	for name, section := range map[string][]byte{
		"one level too deep":             chainTrieSection(s, s.Opts.K+3, perm),
		"a million levels (41 MB)":       chainTrieSection(s, 1<<20, perm),
		"member 0 twice, member 1 never": chainTrieSection(s, 1, []uint32{0, 0, 2, 3, 4, 5}),
		"a member in no leaf":            chainTrieSection(s, 1, perm[:5]),
	} {
		got, err := Decode(sealImage(Version, s, section))
		if got != nil || !IsCorrupt(err) {
			t.Errorf("%s: snapshot %v, err %v, want a CorruptError", name, got != nil, err)
		}
	}
}

// benchSnapshot is a snapshot at the repository benchmark's shape: n members
// of the Beijing-like corpus under the default trie configuration.
func benchSnapshot(n int) *Snapshot {
	trajs := gen.Generate(gen.BeijingLike(n, 42)).Trajs
	cfg := trie.DefaultConfig()
	return &Snapshot{
		Dataset: "trips",
		Opts:    BuildOptions{Measure: "DTW", K: cfg.K, NLAlign: cfg.NLAlign, NLPivot: cfg.NLPivot, MinNode: cfg.MinNode},
		Trajs:   trajs,
		Index:   trie.Build(trajs, cfg),
	}
}

// TestDecodeAllocations: an image decodes into a constant number of
// allocations — one slab of points, one array of members, the index's arrays
// — where it took four per member.
func TestDecodeAllocations(t *testing.T) {
	for _, n := range []int{1234, 5000} {
		img := Encode(benchSnapshot(n))
		if got := testing.AllocsPerRun(10, func() {
			if _, err := Decode(img); err != nil {
				t.Fatal(err)
			}
		}); got > 16 {
			t.Errorf("Decode of a %d-member image: %v allocations, want <= 16", n, got)
		}
	}
}

// TestDecodedMembersDoNotShareCapacity: the members of a decoded image are
// carved from one slab, each capped at its own length — an append to one
// copies it out and leaves its neighbour's first point alone.
func TestDecodedMembersDoNotShareCapacity(t *testing.T) {
	s, err := Decode(Encode(testSnapshot(t, 20, 5)))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range s.Trajs[:len(s.Trajs)-1] {
		next, want := s.Trajs[i+1], s.Trajs[i+1].Points[0]
		grown := append(m.Points, geom.Point{X: -1, Y: -1})
		if cap(m.Points) != len(m.Points) || next.Points[0] != want || &grown[0] == &m.Points[0] {
			t.Fatalf("member %d (len %d, cap %d): an append wrote into the slab; member %d starts at %v, was %v",
				i, len(m.Points), cap(m.Points), i+1, next.Points[0], want)
		}
	}
}

func countIndexingPoints(s *Snapshot) int {
	n := 0
	for _, t := range s.Trajs {
		n += len(pivot.IndexingPoints(t.Points, s.Opts.K, pivot.Strategy(s.Opts.Strategy)))
	}
	return n
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{&CorruptError{Reason: "x"}, "corrupt"},
		{&VersionError{Got: 9}, "version"},
		{os.ErrNotExist, "io"},
		{errors.New("boom"), "io"},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	s := testSnapshot(t, 10, 5)
	base := Fingerprint(s.Opts, s.Trajs)
	if base != Fingerprint(s.Opts, s.Trajs) {
		t.Fatal("fingerprint unstable")
	}
	opts := s.Opts
	opts.CellD += 1e-9
	if Fingerprint(opts, s.Trajs) == base {
		t.Fatal("fingerprint ignores CellD")
	}
	mut := append([]*traj.T(nil), s.Trajs...)
	mut[3] = &traj.T{ID: mut[3].ID, Points: append([]geom.Point(nil), mut[3].Points...)}
	mut[3].Points[0].X += 1e-12
	if Fingerprint(s.Opts, mut) == base {
		t.Fatal("fingerprint ignores point perturbation")
	}
}

func TestStoreSaveLoadRemoveScan(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := testSnapshot(t, 15, 6)
	b := testSnapshot(t, 9, 7)
	b.Dataset, b.Partition = "trips/2", 0 // exercises path escaping
	if _, err := st.Save(a); err != nil {
		t.Fatalf("Save a: %v", err)
	}
	if _, err := st.Save(b); err != nil {
		t.Fatalf("Save b: %v", err)
	}
	// An unrelated file and an orphaned temp file must be tolerated.
	os.WriteFile(filepath.Join(dir, "NOTES.txt"), []byte("hi"), 0o644)
	os.WriteFile(st.Path("trips", 7)+".tmp", []byte("torn"), 0o644)

	got, err := st.Load("trips", 7)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Fingerprint != a.Fingerprint {
		t.Fatal("loaded wrong snapshot")
	}
	if _, err := st.Load("trips/2", 0); err != nil {
		t.Fatalf("Load escaped dataset: %v", err)
	}

	entries, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("Scan found %d entries, want 2: %+v", len(entries), entries)
	}
	if entries[0].Dataset != "trips" || entries[1].Dataset != "trips/2" {
		t.Fatalf("Scan order/content wrong: %+v", entries)
	}
	if _, err := os.Stat(st.Path("trips", 7) + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("Scan did not clean the orphaned temp file")
	}

	// Overwrite replaces atomically.
	a2 := testSnapshot(t, 15, 8)
	if _, err := st.Save(a2); err != nil {
		t.Fatal(err)
	}
	got, err = st.Load("trips", 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != a2.Fingerprint {
		t.Fatal("overwrite did not replace snapshot")
	}

	if err := st.Remove("trips", 7); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove("trips", 7); err != nil {
		t.Fatalf("Remove of absent snapshot errored: %v", err)
	}
	if _, err := st.Load("trips", 7); !os.IsNotExist(err) {
		t.Fatalf("Load after Remove: %v", err)
	}
}

func TestParseFilename(t *testing.T) {
	cases := []struct {
		name string
		ds   string
		pid  int
		ok   bool
	}{
		{Filename("trips", 3), "trips", 3, true},
		{Filename("a-p2", 4), "a-p2", 4, true},
		{Filename("x/y z", 0), "x/y z", 0, true},
		{"trips-p3.snap.tmp", "", 0, false},
		{"random.txt", "", 0, false},
		{"nopid.snap", "", 0, false},
		{"trips-p-3.snap", "", 0, false},
	}
	for _, c := range cases {
		ds, pid, ok := ParseFilename(c.name)
		if ok != c.ok || ds != c.ds || pid != c.pid {
			t.Errorf("ParseFilename(%q) = (%q, %d, %t), want (%q, %d, %t)",
				c.name, ds, pid, ok, c.ds, c.pid, c.ok)
		}
	}
}

// TestStoreFaultInjection exercises the seeded chaos plans: torn writes
// and bit flips must always be classified corrupt on load; crashes leave
// the final path untouched; schedules are deterministic per seed.
func TestStoreFaultInjection(t *testing.T) {
	s := testSnapshot(t, 12, 9)

	t.Run("torn", func(t *testing.T) {
		st, _ := NewStore(t.TempDir())
		st.Faults = &FaultPlan{Seed: 3, TornRate: 1}
		if _, err := st.Save(s); err != nil {
			t.Fatalf("torn Save reported failure: %v", err)
		}
		_, err := st.Load(s.Dataset, s.Partition)
		if !IsCorrupt(err) {
			t.Fatalf("torn snapshot load: want CorruptError, got %v", err)
		}
	})

	t.Run("flip", func(t *testing.T) {
		st, _ := NewStore(t.TempDir())
		st.Faults = &FaultPlan{Seed: 4, FlipRate: 1}
		if _, err := st.Save(s); err != nil {
			t.Fatalf("flip Save reported failure: %v", err)
		}
		if _, err := st.Load(s.Dataset, s.Partition); err == nil {
			t.Fatal("bit-flipped snapshot decoded successfully")
		}
	})

	t.Run("crash", func(t *testing.T) {
		st, _ := NewStore(t.TempDir())
		// First save clean, then crash an overwrite: the old snapshot
		// must survive.
		if _, err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		st.Faults = &FaultPlan{Seed: 5, CrashRate: 1}
		_, err := st.Save(s)
		var inj *InjectedFault
		if !errors.As(err, &inj) || inj.Kind != "crash" {
			t.Fatalf("want injected crash, got %v", err)
		}
		if _, err := st.Load(s.Dataset, s.Partition); err != nil {
			t.Fatalf("old snapshot lost after crashed overwrite: %v", err)
		}
		// The orphan temp file exists until the next Scan.
		if _, err := os.Stat(st.Path(s.Dataset, s.Partition) + ".tmp"); err != nil {
			t.Fatalf("crashed write left no temp file: %v", err)
		}
		if _, err := st.Scan(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(st.Path(s.Dataset, s.Partition) + ".tmp"); !os.IsNotExist(err) {
			t.Fatal("Scan did not clean crashed temp file")
		}
	})

	t.Run("fail", func(t *testing.T) {
		st, _ := NewStore(t.TempDir())
		st.Faults = &FaultPlan{Seed: 6, FailRate: 1}
		_, err := st.Save(s)
		var inj *InjectedFault
		if !errors.As(err, &inj) || inj.Kind != "fail" {
			t.Fatalf("want injected fail, got %v", err)
		}
		if _, err := os.Stat(st.Path(s.Dataset, s.Partition)); !os.IsNotExist(err) {
			t.Fatal("failed save left a file at the final path")
		}
	})

	t.Run("deterministic", func(t *testing.T) {
		outcome := func() []bool {
			st, _ := NewStore(t.TempDir())
			st.Faults = &FaultPlan{Seed: 11, TornRate: 0.5}
			var torn []bool
			for i := 0; i < 20; i++ {
				st.Save(s)
				_, err := st.Load(s.Dataset, s.Partition)
				torn = append(torn, IsCorrupt(err))
			}
			return torn
		}
		if !reflect.DeepEqual(outcome(), outcome()) {
			t.Fatal("fault schedule not deterministic for a fixed seed")
		}
	})
}

func TestParseFaultPlan(t *testing.T) {
	p, err := ParseFaultPlan("seed=7,crash=0.1,fail=0.02,torn=0.2,flip=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.CrashRate != 0.1 || p.FailRate != 0.02 || p.TornRate != 0.2 || p.FlipRate != 0.1 {
		t.Fatalf("parsed plan wrong: %+v", p)
	}
	if _, err := ParseFaultPlan("bogus=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseFaultPlan("torn"); err == nil {
		t.Fatal("missing value accepted")
	}
	if p, err := ParseFaultPlan(" "); err != nil || p.Seed != 1 {
		t.Fatalf("empty spec: %v %+v", err, p)
	}
}
