// Package snap implements crash-safe partition snapshots: a versioned,
// checksummed binary image of one partition's trajectories, trie index and
// build options, durable enough that a worker can cold-start from disk
// instead of being re-shipped raw payloads and re-indexing.
//
// Design rules (DESIGN.md §10):
//
//   - The format is canonical: the same partition content always encodes
//     to the same bytes, so fingerprints identify content and byte
//     comparison is a valid equality test for indexes.
//   - Corruption is detected, never deserialized: every section carries a
//     CRC-32C, and a sealed footer carries a whole-body CRC-32C plus the
//     body length. A torn write has no valid footer; a flipped bit fails
//     a checksum; a future format version is refused before any payload
//     is parsed.
//   - Writes are crash-safe: Store.SaveImage writes a temp file, fsyncs,
//     atomically renames into place, and fsyncs the directory. A crash at
//     any instant leaves either the old snapshot, the new one, or an
//     ignorable *.tmp — never a half-visible file at the final path.
//
// Decode failures are classified (Classify) so callers can report and
// count them ("corrupt" / "version" / "io") and fall back to rebuilding
// from the raw payload.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"

	"dita/internal/geom"
	"dita/internal/traj"
	"dita/internal/trie"
)

// Version is the current snapshot format version. Bump it on any layout
// change; decoders refuse other versions (the caller rebuilds). The layout
// is versioned precisely so a compact (succinct-trie) index encoding can
// land behind the same file format later.
//
// Version 2 dropped the per-trajectory indexing points from the trie
// section (trie/serial.go): only Build reads them. Version 3 changed what a
// sealed fingerprint means: the content hash went from FNV-1a over bytes to
// a word-wise hash the decoder computes in its copy loop, and the unread
// cell side of the retired Lemma 5.6 filter left the meta section and the
// hash. There is one reader and one writer; a file of any other version is
// refused with VersionError, and its owner re-ships or heals the partition.
const Version = 3

const (
	magic     = "DITASNP1" // header magic, 8 bytes
	sealMagic = "DITASEAL" // footer magic, 8 bytes

	headerLen = 8 + 4 + 4     // magic, version, section count
	footerLen = 8 + 4 + 4 + 8 // seal magic, version, body CRC, body length
)

// Section kinds. Decoders skip unknown kinds (their CRC is still
// verified), so additive sections are backward-compatible within a
// version.
const (
	kindMeta  uint32 = 1
	kindTrajs uint32 = 2
	kindTrie  uint32 = 3
	// kindWatermark carries the WAL truncation watermark (u64): every
	// logged mutation with sequence number <= the watermark is already
	// folded into this snapshot's trajectories, so recovery replays only
	// the WAL suffix past it. Additive and optional: snapshots from
	// before streaming ingest simply have watermark 0.
	kindWatermark uint32 = 4
)

// castagnoli is the CRC-32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BuildOptions records everything needed to rebuild a partition's index
// from its trajectories — and therefore everything that must match for a
// snapshot to substitute for a fresh build.
type BuildOptions struct {
	// Measure is the similarity function name plus the parameters the
	// edit-based measures need (measure.ByName inputs).
	Measure string
	Eps     float64
	Delta   int
	// Trie configuration (trie.Config with Strategy as an int).
	K, NLAlign, NLPivot, MinNode, Strategy int
}

// Snapshot is the in-memory form of one partition snapshot.
type Snapshot struct {
	// Dataset and Partition identify the partition within a deployment.
	Dataset   string
	Partition int
	// Fingerprint is the content hash over (Opts, Trajs) — filled by
	// Encode, verified by Decode. Two snapshots with equal fingerprints
	// index the same data the same way.
	Fingerprint uint64
	Opts        BuildOptions
	Trajs       []*traj.T
	// Index is the partition's trie, sharing the Trajs slice.
	Index *trie.Trie
	// Watermark is the highest WAL sequence number folded into Trajs
	// (0 = none): recovery loads the snapshot, then replays only WAL
	// records with Seq > Watermark. Not part of the content fingerprint —
	// the same logical content reached via different merge schedules must
	// still fingerprint-match for dispatch reuse.
	Watermark uint64
}

// CorruptError reports a snapshot that failed structural or checksum
// validation. It is detection, not diagnosis: the caller's only safe move
// is to discard the file and rebuild.
type CorruptError struct {
	Reason string
}

func (e *CorruptError) Error() string { return "snap: corrupt snapshot: " + e.Reason }

// VersionError reports a snapshot written by a different format version.
type VersionError struct {
	Got uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("snap: unsupported snapshot version %d (supported: %d)", e.Got, Version)
}

// IsCorrupt reports whether err marks a corrupt (torn, bit-rotted, or
// structurally invalid) snapshot.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// Classify maps a Load/Decode error to the coarse class the skip reports
// and obs counters use: "corrupt" (checksum/structure), "version"
// (format mismatch), "io" (filesystem), or "" for nil.
func Classify(err error) string {
	switch {
	case err == nil:
		return ""
	case IsCorrupt(err):
		return "corrupt"
	case func() bool { var ve *VersionError; return errors.As(err, &ve) }():
		return "version"
	default:
		return "io"
	}
}

func corruptf(format string, args ...any) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// appendU32 / appendU64 / appendF64 / appendStr are the little-endian
// primitives shared by every section encoder.
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// reader is a strict bounds-checked cursor; the first overrun poisons it.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.err = corruptf("section truncated at offset %d", r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) str() string {
	n := int(r.u32())
	if r.err == nil && (n < 0 || n > len(r.data)-r.off) {
		r.err = corruptf("string length %d exceeds buffer", n)
		return ""
	}
	return string(r.take(n))
}

// encodeMeta builds the kindMeta payload.
func encodeMeta(s *Snapshot, fp uint64) []byte {
	b := appendStr(nil, s.Dataset)
	b = appendU64(b, uint64(int64(s.Partition)))
	b = appendU64(b, fp)
	b = appendStr(b, s.Opts.Measure)
	b = appendF64(b, s.Opts.Eps)
	b = appendU64(b, uint64(int64(s.Opts.Delta)))
	b = appendU32(b, uint32(int32(s.Opts.K)))
	b = appendU32(b, uint32(int32(s.Opts.NLAlign)))
	b = appendU32(b, uint32(int32(s.Opts.NLPivot)))
	b = appendU32(b, uint32(int32(s.Opts.MinNode)))
	b = appendU32(b, uint32(int32(s.Opts.Strategy)))
	b = appendU64(b, uint64(len(s.Trajs)))
	return b
}

func decodeMeta(data []byte, s *Snapshot) (trajCount int, err error) {
	r := &reader{data: data}
	s.Dataset = r.str()
	s.Partition = int(int64(r.u64()))
	s.Fingerprint = r.u64()
	s.Opts.Measure = r.str()
	s.Opts.Eps = r.f64()
	s.Opts.Delta = int(int64(r.u64()))
	s.Opts.K = int(int32(r.u32()))
	s.Opts.NLAlign = int(int32(r.u32()))
	s.Opts.NLPivot = int(int32(r.u32()))
	s.Opts.MinNode = int(int32(r.u32()))
	s.Opts.Strategy = int(int32(r.u32()))
	trajCount = int(r.u64())
	if r.err != nil {
		return 0, r.err
	}
	if r.off != len(data) {
		return 0, corruptf("meta section: %d trailing bytes", len(data)-r.off)
	}
	return trajCount, nil
}

// encodeTrajs builds the kindTrajs payload.
func encodeTrajs(trajs []*traj.T) []byte {
	n := 8
	for _, t := range trajs {
		n += 8 + 8 + 16*len(t.Points)
	}
	b := make([]byte, 0, n)
	b = appendU64(b, uint64(len(trajs)))
	for _, t := range trajs {
		b = appendU64(b, uint64(int64(t.ID)))
		b = appendU64(b, uint64(len(t.Points)))
		for _, p := range t.Points {
			b = appendF64(b, p.X)
			b = appendF64(b, p.Y)
		}
	}
	return b
}

// decodeTrajs reads the trajectory section into three allocations whatever
// the member count: one []traj.T, one []geom.Point slab every member's Points
// is carved from, and the pointer slice the trie indexes. Each Points is
// capped at its own length, so an append to one copies it out instead of
// running into its neighbour; nobody writes through them (DESIGN.md §10).
//
// Every point is read once: one loop copies a member into the slab, checks
// it as traj.Validate does and feeds each decoded word to the trajectory
// half of the content fingerprint, which decodeTrajs returns.
func decodeTrajs(data []byte) ([]*traj.T, uint64, error) {
	r := &reader{data: data}
	n := int(r.u64())
	if r.err != nil {
		return nil, 0, r.err
	}
	// Each trajectory costs at least 16 bytes of headers.
	if n < 0 || n > (len(data)-r.off)/16 {
		return nil, 0, corruptf("trajectory count %d exceeds buffer", n)
	}
	// The headers fix the slab's size: whatever they leave of the section is
	// points. Walk them first; the copy loop then cannot run out of slab or
	// of section.
	start := r.off
	for i := 0; i < n; i++ {
		r.u64()
		np := int(r.u64())
		if r.err == nil && (np < 0 || np > (len(data)-r.off)/16) {
			return nil, 0, corruptf("point count %d exceeds buffer", np)
		}
		r.take(16 * np)
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	if r.off != len(data) {
		return nil, 0, corruptf("trajectory section: %d trailing bytes", len(data)-r.off)
	}
	slab := make([]geom.Point, (len(data)-start-16*n)/16)
	ts := make([]traj.T, n)
	out := make([]*traj.T, n)
	h := newWordHash()
	h.word(uint64(n))
	b := data[start:]
	for i := range ts {
		id := binary.LittleEndian.Uint64(b[0:8])
		np := int(binary.LittleEndian.Uint64(b[8:16]))
		h.word(id)
		h.word(uint64(np))
		src := b[16 : 16+16*np]
		b = b[16+16*np:]
		pts := slab[:np:np]
		slab = slab[np:]
		ok := np >= traj.MinLen
		for j := range pts {
			x := binary.LittleEndian.Uint64(src[0:8])
			y := binary.LittleEndian.Uint64(src[8:16])
			src = src[16:]
			h.word(x)
			h.word(y)
			if !finiteBits(x) || !finiteBits(y) {
				ok = false
			}
			pts[j] = geom.Point{X: math.Float64frombits(x), Y: math.Float64frombits(y)}
		}
		ts[i] = traj.T{ID: int(int64(id)), Points: pts}
		out[i] = &ts[i]
		// A member every ingest edge would refuse (one point, a non-finite
		// coordinate) breaks the trie's bounds: refuse the image instead, in
		// Validate's words.
		if !ok {
			return nil, 0, &CorruptError{Reason: ts[i].Validate().Error()}
		}
	}
	return out, h.sum(), nil
}

// maxAbsBits is math.Float64bits(1e308), traj.Validate's bound on |x|. For
// a float with its sign bit cleared, bit order is value order and every NaN
// sorts above +Inf, so finiteBits(b) is traj.Validate's test on the value.
const maxAbsBits = 0x7FE1CCF385EBC8A0

func finiteBits(b uint64) bool { return b&^(1<<63) < maxAbsBits }

// Fingerprint hashes the partition content — build options plus every
// trajectory — into a 64-bit content identity. Equal fingerprints mean "a
// snapshot or an in-memory index built from this exact data with these
// exact options is interchangeable", which is what lets the coordinator
// skip re-shipping a partition a worker already holds.
//
// The options and the trajectory stream are hashed apart and then combined,
// so Decode hashes the stream in its copy loop whichever section comes
// first. The stream is the member count, then per member its id, its point
// count and the bits of each point's x and y — the trajectory section's
// words, in order.
func Fingerprint(opts BuildOptions, trajs []*traj.T) uint64 {
	h := newWordHash()
	h.word(uint64(len(trajs)))
	for _, t := range trajs {
		h.word(uint64(int64(t.ID)))
		h.word(uint64(len(t.Points)))
		for _, p := range t.Points {
			h.word(math.Float64bits(p.X))
			h.word(math.Float64bits(p.Y))
		}
	}
	return contentHash(opts, h.sum())
}

// contentHash combines the options' hash with a trajectory stream's.
func contentHash(opts BuildOptions, stream uint64) uint64 {
	o := newWordHash()
	o.str(opts.Measure)
	o.word(math.Float64bits(opts.Eps))
	for _, v := range [...]int{opts.Delta, opts.K, opts.NLAlign, opts.NLPivot, opts.MinNode, opts.Strategy} {
		o.word(uint64(int64(v)))
	}
	h := newWordHash()
	h.word(o.sum())
	h.word(stream)
	return h.sum()
}

// xxHash64's primes (github.com/Cyan4973/xxHash, xxhash.h).
const (
	prime1 uint64 = 0x9E3779B185EBCA87
	prime2 uint64 = 0xC2B2AE3D27D4EB4F
	prime3 uint64 = 0x165667B19E3779F9
	prime5 uint64 = 0x27D4EB2F165667C5
)

// wordHash is the content fingerprint's hash over a stream of u64 words:
// each word goes through xxHash64's lane round (multiply, rotate, multiply)
// on one lane, the word count is folded in, and xxHash64's avalanche
// finishes the value. For a fixed word every round is a bijection of the
// state, and so are the fold and the avalanche: two streams of equal length
// that differ in one word never collide. It is not xxHash64 itself, which
// runs four lanes over bytes.
type wordHash struct {
	acc, n uint64
}

func newWordHash() wordHash { return wordHash{acc: prime5} }

func (h *wordHash) word(w uint64) {
	h.acc = bits.RotateLeft64(h.acc+w*prime2, 31) * prime1
	h.n++
}

// str feeds a string as its length, then its bytes eight to a word,
// little-endian, the last word zero-padded.
func (h *wordHash) str(s string) {
	h.word(uint64(len(s)))
	for len(s) > 0 {
		var w uint64
		for i := 0; i < 8 && i < len(s); i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h.word(w)
		s = s[min(8, len(s)):]
	}
}

func (h *wordHash) sum() uint64 {
	v := h.acc + h.n
	v ^= v >> 33
	v *= prime2
	v ^= v >> 29
	v *= prime3
	v ^= v >> 32
	return v
}

// appendSection appends one framed section: kind, length, payload, CRC.
func appendSection(b []byte, kind uint32, payload []byte) []byte {
	b = appendU32(b, kind)
	b = appendU64(b, uint64(len(payload)))
	b = append(b, payload...)
	return appendU32(b, crc32.Checksum(payload, castagnoli))
}

// Encode serializes the snapshot to its canonical byte image, computing
// and embedding the content fingerprint (s.Fingerprint is updated).
// The caller is responsible for s being structurally sound: Index non-nil
// and built over exactly s.Trajs.
func Encode(s *Snapshot) []byte {
	fp := Fingerprint(s.Opts, s.Trajs)
	s.Fingerprint = fp
	nSections := uint32(3)
	if s.Watermark > 0 {
		nSections = 4
	}
	body := make([]byte, 0, 1024)
	body = append(body, magic...)
	body = appendU32(body, Version)
	body = appendU32(body, nSections)
	body = appendSection(body, kindMeta, encodeMeta(s, fp))
	body = appendSection(body, kindTrajs, encodeTrajs(s.Trajs))
	body = appendSection(body, kindTrie, s.Index.AppendBinary(nil))
	if s.Watermark > 0 {
		// Emitted only when set so pre-ingest snapshot images stay
		// byte-identical to what earlier builds wrote.
		body = appendSection(body, kindWatermark, appendU64(nil, s.Watermark))
	}

	out := body
	out = append(out, sealMagic...)
	out = appendU32(out, Version)
	out = appendU32(out, crc32.Checksum(body, castagnoli))
	out = appendU64(out, uint64(len(body)))
	return out
}

// Decode parses and fully verifies a snapshot image: footer seal, version,
// whole-body checksum, per-section checksums, strict structural decoding,
// and a recomputed content fingerprint. Any failure returns a classified
// error (CorruptError / VersionError) and never a partially-built
// snapshot; Decode never panics on arbitrary input.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerLen+footerLen {
		return nil, corruptf("file too short (%d bytes)", len(data))
	}
	foot := data[len(data)-footerLen:]
	if string(foot[:8]) != sealMagic {
		// No seal: the write never completed (torn write / crash mid-write).
		return nil, corruptf("missing seal footer (torn write)")
	}
	footVersion := binary.LittleEndian.Uint32(foot[8:12])
	bodyCRC := binary.LittleEndian.Uint32(foot[12:16])
	bodyLen := binary.LittleEndian.Uint64(foot[16:24])
	if footVersion != Version {
		return nil, &VersionError{Got: footVersion}
	}
	body := data[:len(data)-footerLen]
	if bodyLen != uint64(len(body)) {
		return nil, corruptf("footer body length %d != actual %d", bodyLen, len(body))
	}
	if crc := crc32.Checksum(body, castagnoli); crc != bodyCRC {
		return nil, corruptf("body checksum mismatch (want %08x, got %08x)", bodyCRC, crc)
	}
	if string(body[:8]) != magic {
		return nil, corruptf("bad header magic")
	}
	if v := binary.LittleEndian.Uint32(body[8:12]); v != Version {
		return nil, &VersionError{Got: v}
	}
	nSections := int(binary.LittleEndian.Uint32(body[12:16]))

	s := &Snapshot{}
	var (
		metaSeen, trajsSeen, trieSeen bool
		trajCount                     int
		trajsHash                     uint64
		triePayload                   []byte
	)
	r := &reader{data: body, off: headerLen}
	for i := 0; i < nSections; i++ {
		kind := r.u32()
		plen := int(r.u64())
		if r.err == nil && (plen < 0 || plen > len(body)-r.off-4) {
			return nil, corruptf("section %d length %d exceeds buffer", i, plen)
		}
		payload := r.take(plen)
		crc := r.u32()
		if r.err != nil {
			return nil, r.err
		}
		if got := crc32.Checksum(payload, castagnoli); got != crc {
			return nil, corruptf("section %d (kind %d) checksum mismatch", i, kind)
		}
		switch kind {
		case kindMeta:
			if metaSeen {
				return nil, corruptf("duplicate meta section")
			}
			metaSeen = true
			var err error
			if trajCount, err = decodeMeta(payload, s); err != nil {
				return nil, err
			}
		case kindTrajs:
			if trajsSeen {
				return nil, corruptf("duplicate trajectory section")
			}
			trajsSeen = true
			var err error
			if s.Trajs, trajsHash, err = decodeTrajs(payload); err != nil {
				return nil, err
			}
		case kindTrie:
			if trieSeen {
				return nil, corruptf("duplicate trie section")
			}
			trieSeen = true
			triePayload = payload
		case kindWatermark:
			if s.Watermark != 0 {
				return nil, corruptf("duplicate watermark section")
			}
			if len(payload) != 8 {
				return nil, corruptf("watermark section is %d bytes, want 8", len(payload))
			}
			s.Watermark = binary.LittleEndian.Uint64(payload)
			if s.Watermark == 0 {
				return nil, corruptf("watermark section holds zero")
			}
		default:
			// Unknown additive section: checksum verified above, content
			// ignored by this decoder.
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, corruptf("%d trailing bytes after sections", len(body)-r.off)
	}
	if !metaSeen || !trajsSeen || !trieSeen {
		return nil, corruptf("missing required section (meta=%t trajs=%t trie=%t)",
			metaSeen, trajsSeen, trieSeen)
	}
	if trajCount != len(s.Trajs) {
		return nil, corruptf("meta declares %d trajectories, section holds %d", trajCount, len(s.Trajs))
	}
	index, err := trie.DecodeBinary(triePayload, s.Trajs)
	if err != nil {
		return nil, &CorruptError{Reason: err.Error()}
	}
	s.Index = index
	// The fingerprint recomputed from the decoded values must match the
	// sealed one: catches any logical drift between encoder and decoder that
	// the CRCs cannot. decodeTrajs hashed the members as it copied them.
	if fp := contentHash(s.Opts, trajsHash); fp != s.Fingerprint {
		return nil, corruptf("content fingerprint mismatch (sealed %016x, recomputed %016x)",
			s.Fingerprint, fp)
	}
	return s, nil
}
