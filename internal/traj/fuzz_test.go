package traj

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadCSV drives the CSV reader with arbitrary input: it must never
// panic, every dataset it accepts must satisfy Validate (no NaN/Inf
// coordinates, no trajectories below MinLen), and accepted datasets must
// round-trip through WriteCSV → ReadCSV unchanged. Run the corpus as a
// plain test with `go test`, or fuzz with `go test -fuzz=FuzzReadCSV`.
func FuzzReadCSV(f *testing.F) {
	seeds := []string{
		"1,0,0,1,1\n",
		"1,0,0,1,1,2,2\n2,5,5,6,6\n",
		"# comment\n\n1,0.5,0.5,1.5,1.5\n",
		"1,0,0,1,1\r\n2,3,3,4,4\r\n",
		"1,NaN,0,1,1\n",
		"1,Inf,0,1,1\n",
		"1,-Inf,0,1,1\n",
		"1,0,0\n",             // below MinLen
		"1,0,0,1\n",           // odd coordinate count
		"x,0,0,1,1\n",         // bad id
		"1,a,0,1,1\n",         // bad x
		"1,0,b,1,1\n",         // bad y
		"1, 0 , 0 , 1 , 1 \n", // embedded whitespace
		"9007199254740993,1e308,-1e308,2,2\n",
		"1,1e309,0,1,1\n", // overflow → +Inf
		"-5,-0.0,0.0,1,1\n",
		"1,0,0,1,1", // no trailing newline
		"",
		"#",
		"1,0,0,1,1\n1,0,0,1,1\n", // duplicate IDs are allowed at this layer
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			return // keep fuzzing fast; the parser is line-local
		}
		d, err := ReadCSV(strings.NewReader(input), "fuzz")
		if err != nil {
			return
		}
		if d == nil {
			t.Fatalf("ReadCSV(%q) returned nil dataset and nil error", input)
		}
		// Everything accepted must satisfy the dataset invariants the rest
		// of the engine (MBRs, STR partitioning, DP kernels) relies on.
		for _, tr := range d.Trajs {
			if err := tr.Validate(); err != nil {
				t.Fatalf("ReadCSV(%q) accepted invalid trajectory %d: %v", input, tr.ID, err)
			}
			for _, p := range tr.Points {
				if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
					t.Fatalf("ReadCSV(%q) accepted non-finite coordinate in %d", input, tr.ID)
				}
			}
		}
		// Round-trip: what WriteCSV emits must parse back to the same data.
		// (%g prints shortest-exact float representations, so coordinates
		// survive bit-for-bit.)
		var buf bytes.Buffer
		if err := WriteCSV(&buf, d); err != nil {
			t.Fatalf("WriteCSV failed on accepted dataset: %v", err)
		}
		d2, err := ReadCSV(&buf, "fuzz2")
		if err != nil {
			t.Fatalf("round-trip ReadCSV failed: %v", err)
		}
		if len(d2.Trajs) != len(d.Trajs) {
			t.Fatalf("round-trip lost trajectories: %d != %d", len(d2.Trajs), len(d.Trajs))
		}
		for i, tr := range d.Trajs {
			tr2 := d2.Trajs[i]
			if tr2.ID != tr.ID || len(tr2.Points) != len(tr.Points) {
				t.Fatalf("round-trip changed trajectory %d", tr.ID)
			}
			for j, p := range tr.Points {
				if tr2.Points[j] != p {
					t.Fatalf("round-trip changed point %d of trajectory %d: %v != %v",
						j, tr.ID, tr2.Points[j], p)
				}
			}
		}
	})
}
