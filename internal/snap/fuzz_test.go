package snap

import (
	"bytes"
	"testing"
)

// FuzzSnapshot drives Decode with arbitrary bytes: it must never panic,
// and anything it accepts must be internally consistent — the sealed
// fingerprint matches a recompute over the decoded content, the trie's
// leaf references stay in range, and re-encoding is a fixed point
// (Encode(Decode(x)) decodes to the same canonical bytes). Run the seed
// corpus with plain `go test`, or fuzz with `go test -fuzz=FuzzSnapshot`.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DITASNP1"))
	f.Add([]byte("DITASEAL"))
	for _, n := range []int{1, 8, 40} {
		valid := Encode(testSnapshot(f, n, int64(n)))
		f.Add(valid)
		f.Add(valid[:len(valid)/2])          // torn
		f.Add(append(valid, valid...))       // trailing garbage
		mut := append([]byte(nil), valid...) // single bit of rot
		mut[len(mut)/3] ^= 0x40
		f.Add(mut)
	}
	// Formats 1 and 2 — and format 1's trie layout under a current
	// container — are refused.
	old := testSnapshot(f, 8, 3)
	f.Add(sealImage(1, old, format1TrieSection(old)))
	f.Add(sealImage(2, old, old.Index.AppendBinary(nil)))
	f.Add(sealImage(Version, old, format1TrieSection(old)))
	// So are a trie nested past K+2 levels and leaves that are not a
	// permutation of the members, however well the container checksums.
	f.Add(sealImage(Version, old, chainTrieSection(old, 64, []uint32{0, 1, 2, 3, 4, 5, 6, 7})))
	f.Add(sealImage(Version, old, chainTrieSection(old, 1, []uint32{0, 0, 2, 3, 4, 5, 6, 7})))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // bound per-input work; the format has no length-dependent logic beyond this
		}
		s, err := Decode(data)
		if err != nil {
			if s != nil {
				t.Fatal("Decode returned both a snapshot and an error")
			}
			return
		}
		if s.Fingerprint != Fingerprint(s.Opts, s.Trajs) {
			t.Fatalf("accepted snapshot's sealed fingerprint %016x does not match recompute", s.Fingerprint)
		}
		if s.Index == nil {
			t.Fatal("accepted snapshot without an index")
		}
		for _, idx := range s.Index.LeafIndexes() {
			if idx < 0 || idx >= len(s.Trajs) {
				t.Fatalf("accepted snapshot with out-of-range leaf index %d (%d trajs)", idx, len(s.Trajs))
			}
		}
		// Canonical fixed point: re-encoding the decoded snapshot must
		// produce bytes that decode to the same canonical form. (The raw
		// input may differ from the re-encoding only by sections Decode
		// skips; the canonical form itself must be stable.)
		enc := Encode(s)
		s2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded accepted snapshot does not decode: %v", err)
		}
		if !bytes.Equal(Encode(s2), enc) {
			t.Fatal("canonical encoding is not a fixed point")
		}
		if s2.Fingerprint != s.Fingerprint {
			t.Fatalf("fingerprint drifted across re-encode: %016x -> %016x", s.Fingerprint, s2.Fingerprint)
		}
	})
}
