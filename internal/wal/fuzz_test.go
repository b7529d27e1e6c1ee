package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWALReplay mangles a known-good log image — XOR patches at an
// arbitrary position, then an arbitrary truncation — and checks the
// replay safety contract: Open either fails classified (corrupt/io) or
// replays a strict prefix of the records that were appended. A wrong,
// reordered, or invented record is the only failure mode that matters
// for a WAL, and no byte mangling may produce one.
func FuzzWALReplay(f *testing.F) {
	base := sampleRecords()
	img := func(t *testing.T) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), "base.wal")
		l, _, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(base...); err != nil {
			t.Fatal(err)
		}
		l.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	f.Add([]byte{}, uint32(0), uint32(1<<30))            // untouched image
	f.Add([]byte{0xFF}, uint32(0), uint32(1<<30))        // header hit
	f.Add([]byte{0x01}, uint32(40), uint32(1<<30))       // payload bit
	f.Add([]byte{7, 7, 7, 7}, uint32(12), uint32(1<<30)) // length prefix
	f.Add([]byte{}, uint32(0), uint32(20))               // torn tail
	f.Add([]byte{0x80, 0x01}, uint32(60), uint32(70))    // mangle + tear

	f.Fuzz(func(t *testing.T, patch []byte, pos uint32, keep uint32) {
		data := img(t)
		if len(patch) > len(data) {
			patch = patch[:len(data)]
		}
		for i, b := range patch {
			data[(int(pos)+i)%len(data)] ^= b
		}
		if n := int(keep % uint32(len(data)+1)); n < len(data) {
			data = data[:n]
		}
		path := filepath.Join(t.TempDir(), "mangled.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rep, err := Open(path)
		if err != nil {
			if c := Classify(err); c != "corrupt" && c != "io" {
				t.Fatalf("unclassified open error %q: %v", c, err)
			}
			return
		}
		defer l.Close()
		if len(rep.Records) > len(base) {
			t.Fatalf("replayed %d records, only %d were appended", len(rep.Records), len(base))
		}
		for i, r := range rep.Records {
			if !reflect.DeepEqual(r, base[i]) {
				t.Fatalf("record %d replayed wrong:\n got %+v\nwant %+v", i, r, base[i])
			}
		}
		// The truncation repair must leave a clean log behind.
		l.Close()
		_, rep2, err := Open(path)
		if err != nil {
			t.Fatalf("repaired log failed to reopen: %v", err)
		}
		if rep2.TruncatedBytes != 0 {
			t.Fatalf("repaired log still has %d invalid tail bytes", rep2.TruncatedBytes)
		}
		if !reflect.DeepEqual(rep2.Records, rep.Records) {
			t.Fatal("repaired log replays differently")
		}
	})
}

// FuzzWALReplayRaw feeds entirely arbitrary bytes as a log file: Open
// must never panic, and whatever it accepts must be strictly
// seq-increasing with decodable payloads.
func FuzzWALReplayRaw(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(append([]byte(magic), 0, 0, 0, 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "raw.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rep, err := Open(path)
		if err != nil {
			if c := Classify(err); c != "corrupt" && c != "io" {
				t.Fatalf("unclassified open error %q: %v", c, err)
			}
			return
		}
		defer l.Close()
		last := uint64(0)
		for _, r := range rep.Records {
			if r.Seq <= last {
				t.Fatalf("non-increasing seq %d after %d", r.Seq, last)
			}
			last = r.Seq
			if r.Op != OpInsert && r.Op != OpDelete {
				t.Fatalf("invalid op %d replayed", r.Op)
			}
		}
	})
}
