package snap

import "testing"

// benchMembers is one partition of the repository benchmark's corpus: its
// 100 k Beijing-like members over 81 partitions hold about 1 230 each.
const benchMembers = 1230

// BenchmarkSnapDecode decodes one benchmark-shaped partition image: the
// seal and section CRCs, the trajectory copy with its validation and
// content fingerprint, and the trie. Bytes are the whole image.
func BenchmarkSnapDecode(b *testing.B) {
	img := Encode(benchSnapshot(benchMembers))
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Decode(img)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = s
	}
}

// BenchmarkFingerprint hashes the same partition's content as Encode and
// the network paths do. Bytes are the trajectory section's: the count, and
// per member its id, its point count and its coordinates.
func BenchmarkFingerprint(b *testing.B) {
	s := benchSnapshot(benchMembers)
	n := 8
	for _, t := range s.Trajs {
		n += 16 + 16*len(t.Points)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fpSink = Fingerprint(s.Opts, s.Trajs)
	}
}

var (
	benchSink *Snapshot
	fpSink    uint64
)
