package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// TestSnapshotVersionBumpRefused: an image of any version but Version is
// refused as a foreign version, which Classify reports as "version" and the
// owner heals or rebuilds — a future one (the footer patched), and a
// version-2 image, sealed before the content hash and the meta section
// changed.
func TestSnapshotVersionBumpRefused(t *testing.T) {
	s := testSnapshot(t, 8, 4)
	future := Encode(s)
	binary.LittleEndian.PutUint32(future[len(future)-16:], Version+1)
	for want, img := range map[uint32][]byte{
		Version + 1: future,
		2:           sealImage(2, s, s.Index.AppendBinary(nil)),
	} {
		got, err := Decode(img)
		var ve *VersionError
		if got != nil || !errors.As(err, &ve) || ve.Got != want || Classify(err) != "version" {
			t.Errorf("version-%d image: snapshot %v, err %v (class %q), want VersionError{%d}",
				want, got != nil, err, Classify(err), want)
		}
	}
}

// sealImage frames the three required sections into a sealed image of the
// given format version, as Encode does for Version.
func sealImage(version uint32, s *Snapshot, trieSection []byte) []byte {
	return sealWith(version, s, Fingerprint(s.Opts, s.Trajs), encodeTrajs(s.Trajs), trieSection)
}

// sealWith frames s's meta section with fingerprint fp, the given
// trajectory and trie sections, and seals them: every CRC holds whatever
// the sections say.
func sealWith(version uint32, s *Snapshot, fp uint64, trajSection, trieSection []byte) []byte {
	body := append([]byte(magic), appendU32(appendU32(nil, version), 3)...)
	body = appendSection(body, kindMeta, encodeMeta(s, fp))
	body = appendSection(body, kindTrajs, trajSection)
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

// TestDecodeRefusesInvalidMember: an image whose checksums and fingerprint
// hold but that holds a member traj.Validate refuses is corrupt, as the same
// member is at every ingest edge, and the refusal says what Validate says.
// The cases are 0 and 1 points, and NaN, ±Inf and ±1e308 — the first
// magnitude Validate refuses — in x or in y at the first, a middle and the
// last point. The member's neighbours keep the trie section valid, so only
// the member check can refuse the image.
func TestDecodeRefusesInvalidMember(t *testing.T) {
	s := testSnapshot(t, 20, 9)
	trieSection := s.Index.AppendBinary(nil)
	cases := map[string][]geom.Point{
		"no points": {},
		"one point": {{X: 0.5, Y: 0.5}},
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308} {
		for _, at := range []int{0, 2, 4} {
			for _, axis := range []string{"x", "y"} {
				pts := []geom.Point{{X: 0.1, Y: 0.2}, {X: 0.3, Y: 0.4}, {X: 0.5, Y: 0.6}, {X: 0.7, Y: 0.8}, {X: 0.9, Y: 1.0}}
				if axis == "x" {
					pts[at].X = bad
				} else {
					pts[at].Y = bad
				}
				cases[fmt.Sprintf("%v in %s at point %d", bad, axis, at)] = pts
			}
		}
	}
	if maxAbsBits != math.Float64bits(1e308) {
		t.Fatalf("maxAbsBits = %#x, want Float64bits(1e308) = %#x", maxAbsBits, math.Float64bits(1e308))
	}
	for name, pts := range cases {
		trajs := append([]*traj.T(nil), s.Trajs...)
		trajs[3] = &traj.T{ID: trajs[3].ID, Points: pts}
		want := trajs[3].Validate()
		if want == nil {
			t.Fatalf("%s: traj.Validate accepts the member", name)
		}
		img := sealWith(Version, s, Fingerprint(s.Opts, trajs), encodeTrajs(trajs), trieSection)
		got, err := Decode(img)
		if got != nil || !IsCorrupt(err) || err.Error() != (&CorruptError{Reason: want.Error()}).Error() {
			t.Errorf("%s: snapshot %v, err %v, want a CorruptError saying %q", name, got != nil, err, want)
		}
	}
	// The largest magnitude below the bound is a coordinate like any other.
	trajs := append([]*traj.T(nil), s.Trajs...)
	edge := math.Nextafter(1e308, 0)
	trajs[3] = &traj.T{ID: trajs[3].ID, Points: []geom.Point{{X: edge, Y: -edge}, {X: -edge, Y: edge}}}
	if _, err := Decode(sealWith(Version, s, Fingerprint(s.Opts, trajs), encodeTrajs(trajs), trieSection)); err != nil {
		t.Errorf("a member at ±nextafter(1e308, 0): %v", err)
	}
}

// TestDecodeRefusesFingerprintMismatch: the fingerprint is checked against a
// recompute from the decoded values, not taken from the image. An image whose
// CRCs all hold is still refused when its sealed fingerprint is one bit off,
// or when its trajectory section was changed and every CRC sealed again.
func TestDecodeRefusesFingerprintMismatch(t *testing.T) {
	s := testSnapshot(t, 20, 10)
	fp := Fingerprint(s.Opts, s.Trajs)
	trieSection := s.Index.AppendBinary(nil)
	if _, err := Decode(sealWith(Version, s, fp, encodeTrajs(s.Trajs), trieSection)); err != nil {
		t.Fatalf("the unchanged image: %v", err)
	}
	nudged := append([]*traj.T(nil), s.Trajs...)
	m := nudged[5]
	pts := append([]geom.Point(nil), m.Points...)
	pts[len(pts)/2].Y = math.Nextafter(pts[len(pts)/2].Y, 2)
	nudged[5] = &traj.T{ID: m.ID, Points: pts}
	swapped := append([]*traj.T(nil), s.Trajs...)
	swapped[2], swapped[3] = swapped[3], swapped[2]
	for name, img := range map[string][]byte{
		"sealed fingerprint one bit off":   sealWith(Version, s, fp^1<<17, encodeTrajs(s.Trajs), trieSection),
		"a coordinate one ulp off":         sealWith(Version, s, fp, encodeTrajs(nudged), trieSection),
		"two members in each other's slot": sealWith(Version, s, fp, encodeTrajs(swapped), trieSection),
	} {
		got, err := Decode(img)
		if got != nil || !IsCorrupt(err) || !strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("%s: snapshot %v, err %v, want a fingerprint CorruptError", name, got != nil, err)
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

// TestFingerprintSensitivity: every field of the content moves the
// fingerprint — each build option, a member's id and point count, x and y
// of its first, a middle and its last point, the order of two members, and
// a point moved across a member boundary, which keeps every coordinate
// word and changes only two counts.
func TestFingerprintSensitivity(t *testing.T) {
	s := testSnapshot(t, 10, 5)
	base := Fingerprint(s.Opts, s.Trajs)
	if base != Fingerprint(s.Opts, s.Trajs) {
		t.Fatal("fingerprint unstable")
	}
	for name, edit := range map[string]func(*BuildOptions){
		"Measure":  func(o *BuildOptions) { o.Measure = "DTW2" },
		"Eps":      func(o *BuildOptions) { o.Eps += 1e-9 },
		"Delta":    func(o *BuildOptions) { o.Delta++ },
		"K":        func(o *BuildOptions) { o.K++ },
		"NLAlign":  func(o *BuildOptions) { o.NLAlign++ },
		"NLPivot":  func(o *BuildOptions) { o.NLPivot++ },
		"MinNode":  func(o *BuildOptions) { o.MinNode++ },
		"Strategy": func(o *BuildOptions) { o.Strategy++ },
	} {
		opts := s.Opts
		edit(&opts)
		if Fingerprint(opts, s.Trajs) == base {
			t.Errorf("fingerprint ignores option %s", name)
		}
	}
	// members copies the members and lets edit change them.
	members := func(edit func([]*traj.T)) []*traj.T {
		out := make([]*traj.T, len(s.Trajs))
		for i, m := range s.Trajs {
			out[i] = &traj.T{ID: m.ID, Points: append([]geom.Point(nil), m.Points...)}
		}
		edit(out)
		return out
	}
	cases := map[string]func([]*traj.T){
		"an id":          func(ts []*traj.T) { ts[3].ID++ },
		"a point count":  func(ts []*traj.T) { ts[3].Points = ts[3].Points[:len(ts[3].Points)-1] },
		"a member order": func(ts []*traj.T) { ts[3], ts[4] = ts[4], ts[3] },
		"a point moved across a member boundary": func(ts []*traj.T) {
			a, b := ts[3], ts[4]
			last := a.Points[len(a.Points)-1]
			a.Points = a.Points[:len(a.Points)-1]
			b.Points = append([]geom.Point{last}, b.Points...)
		},
	}
	for _, at := range []string{"first", "middle", "last"} {
		point := func(ts []*traj.T) *geom.Point {
			pts := ts[3].Points
			return &pts[map[string]int{"first": 0, "middle": len(pts) / 2, "last": len(pts) - 1}[at]]
		}
		cases["x of the "+at+" point"] = func(ts []*traj.T) { point(ts).X += 1e-12 }
		cases["y of the "+at+" point"] = func(ts []*traj.T) { point(ts).Y += 1e-12 }
	}
	for name, edit := range cases {
		if Fingerprint(s.Opts, members(edit)) == base {
			t.Errorf("fingerprint ignores %s", name)
		}
	}
	if Fingerprint(s.Opts, members(func([]*traj.T) {})) != base {
		t.Fatal("the fingerprint of an equal copy differs")
	}
}

// TestFingerprintGolden pins the content fingerprint, and the sha256 of the
// whole image Encode writes, of a fixed three-member snapshot: the
// definition cannot drift between hosts or commits unnoticed. A change to
// either is a format change and takes a Version bump.
func TestFingerprintGolden(t *testing.T) {
	trajs := []*traj.T{
		{ID: 1, Points: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0.5}}},
		{ID: -7, Points: []geom.Point{{X: 116.25, Y: 39.875}, {X: 116.5, Y: 39.75}, {X: math.Copysign(0, -1), Y: 1e-300}}},
		{ID: 1 << 40, Points: []geom.Point{{X: 3, Y: 4}, {X: 3, Y: 4}, {X: 5, Y: 12}, {X: -8, Y: 15}}},
	}
	opts := BuildOptions{Measure: "EDR", Eps: 0.25, Delta: 3, K: 2, NLAlign: 3, NLPivot: 2, MinNode: 1, Strategy: 1}
	s := &Snapshot{
		Dataset: "golden", Partition: 2, Opts: opts, Trajs: trajs,
		Index: trie.Build(trajs, trie.Config{K: opts.K, NLAlign: opts.NLAlign, NLPivot: opts.NLPivot, MinNode: opts.MinNode, Strategy: pivot.Strategy(opts.Strategy)}),
	}
	// wantFP was also reproduced outside Go from the definition alone
	// (wordHash's round, fold and avalanche over the words Fingerprint
	// documents); the member at ID -7 holds a negative zero, whose sign bit
	// is content.
	const (
		wantFP  = uint64(0x83863aa41e3f7e0a)
		wantSHA = "13665fd77f51b8766b8e9c94141d8a8b468fd3ecb37907a0d18b19e1ca41666a"
	)
	img := Encode(s)
	if s.Fingerprint != wantFP {
		t.Errorf("Fingerprint = %#016x, want %#016x", s.Fingerprint, wantFP)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != wantSHA {
		t.Errorf("sha256(Encode) = %s, want %s", got, wantSHA)
	}
	if got, err := Decode(img); err != nil || got.Fingerprint != s.Fingerprint {
		t.Fatalf("Decode of the golden image: %v", err)
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
