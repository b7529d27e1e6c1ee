package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Funnel is the pruning funnel of one query: how many candidates survive
// each filter stage of the DITA cascade. Stages are ordered; from
// Considered onward each stage is a subset of the previous, so counts are
// monotonically non-increasing (Monotone checks this). Funnels from
// per-partition work merge by field-wise addition.
type Funnel struct {
	// Partitions is the number of partitions in the dataset (or, for a
	// join, candidate edges before orientation).
	Partitions int64 `json:"partitions"`
	// Relevant is partitions surviving the global R-tree probe
	// (first/last-point MBR pruning, Lemma 4.1/4.2/4.3).
	Relevant int64 `json:"relevant"`
	// Considered is total trajectories inside relevant partitions — the
	// population the local indexes operate on.
	Considered int64 `json:"considered"`
	// TrieCands is candidates emitted by the trie (pivot) descent.
	TrieCands int64 `json:"trie_cands"`
	// AfterLength is candidates surviving the length lower bound.
	AfterLength int64 `json:"after_length"`
	// AfterCoverage is candidates surviving the MBR coverage filter
	// (Lemma 5.4).
	AfterCoverage int64 `json:"after_coverage"`
	// Verified is candidates that ran the exact threshold DP: every
	// coverage survivor, so it equals AfterCoverage.
	Verified int64 `json:"verified"`
	// Matched is final results within the threshold.
	Matched int64 `json:"matched"`
}

// Merge adds o into f field-wise.
func (f *Funnel) Merge(o Funnel) {
	f.Partitions += o.Partitions
	f.Relevant += o.Relevant
	f.Considered += o.Considered
	f.TrieCands += o.TrieCands
	f.AfterLength += o.AfterLength
	f.AfterCoverage += o.AfterCoverage
	f.Verified += o.Verified
	f.Matched += o.Matched
}

// Monotone reports whether the funnel narrows at every stage where the
// cascade guarantees a subset relation: Relevant ≤ Partitions and
// Considered ≥ TrieCands ≥ AfterLength ≥ AfterCoverage ≥ Verified ≥
// Matched.
func (f Funnel) Monotone() bool {
	return f.Relevant <= f.Partitions &&
		f.TrieCands <= f.Considered &&
		f.AfterLength <= f.TrieCands &&
		f.AfterCoverage <= f.AfterLength &&
		f.Verified <= f.AfterCoverage &&
		f.Matched <= f.Verified
}

// String renders the funnel as a one-line arrowed chain for logs.
func (f Funnel) String() string {
	return fmt.Sprintf("parts %d -> relevant %d -> considered %d -> trie %d -> length %d -> coverage %d -> verified %d -> matched %d",
		f.Partitions, f.Relevant, f.Considered, f.TrieCands, f.AfterLength, f.AfterCoverage, f.Verified, f.Matched)
}

// Span is one timed step of a query. Spans are recorded flat (no
// parent pointers): Name identifies the pipeline stage and
// Worker/Partition scope it, which is enough to reassemble the picture
// and keeps the wire format trivial.
type Span struct {
	Name      string        `json:"name"`
	Worker    string        `json:"worker,omitempty"`   // dnet worker address, if remote
	Partition int           `json:"partition"`          // -1 when not partition-scoped
	Attempts  int           `json:"attempts,omitempty"` // RPC attempts incl. retries and failovers
	Start     time.Duration `json:"start"`              // offset from trace start
	Duration  time.Duration `json:"duration"`
	Remote    time.Duration `json:"remote,omitempty"` // worker-measured time, when reported
	Probe     time.Duration `json:"probe,omitempty"`  // join edge: its trie probes
	Verify    time.Duration `json:"verify,omitempty"` // join edge: its verification cascade
	Err       string        `json:"err,omitempty"`
	Class     string        `json:"class,omitempty"` // error class (see Classify)
	Funnel    *Funnel       `json:"funnel,omitempty"`
}

// Trace collects the spans of one query. Safe for concurrent Add from
// per-partition goroutines. A nil *Trace is a valid disabled trace.
type Trace struct {
	ID    string    `json:"id"`
	Op    string    `json:"op"` // "search", "knn", "join"
	Begin time.Time `json:"begin"`

	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace for the named operation with a fresh ID.
func NewTrace(op string) *Trace {
	return &Trace{ID: NewTraceID(), Op: op, Begin: time.Now()}
}

// Add records a span. Start/Duration may be filled by the caller; when
// Start is zero and the trace has a begin time, it stays zero-offset.
func (t *Trace) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// StartSpan returns a completion func that records the span with its
// measured duration. Usage: done := tr.StartSpan("plan", -1); ...; done(nil).
func (t *Trace) StartSpan(name string, partition int) func(err error) {
	if t == nil {
		return func(error) {}
	}
	begin := time.Now()
	return func(err error) {
		s := Span{
			Name:      name,
			Partition: partition,
			Start:     begin.Sub(t.Begin),
			Duration:  time.Since(begin),
		}
		if err != nil {
			s.Err = err.Error()
			s.Class = Classify(err)
		}
		t.Add(s)
	}
}

// Spans returns a copy of the recorded spans ordered by start offset.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Funnel sums the funnels of every span carrying one.
func (t *Trace) Funnel() Funnel {
	var f Funnel
	if t == nil {
		return f
	}
	t.mu.Lock()
	for i := range t.spans {
		if t.spans[i].Funnel != nil {
			f.Merge(*t.spans[i].Funnel)
		}
	}
	t.mu.Unlock()
	return f
}

// Write renders the trace as an indented human-readable report.
func (t *Trace) Write(w io.Writer) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "trace %s op=%s\n", t.ID, t.Op)
	for _, s := range t.Spans() {
		fmt.Fprintf(w, "  %-28s", s.Name)
		if s.Partition >= 0 {
			fmt.Fprintf(w, " part=%-3d", s.Partition)
		}
		if s.Worker != "" {
			fmt.Fprintf(w, " worker=%s", s.Worker)
		}
		fmt.Fprintf(w, " +%s dur=%s", s.Start.Round(time.Microsecond), s.Duration.Round(time.Microsecond))
		if s.Remote > 0 {
			fmt.Fprintf(w, " remote=%s", s.Remote.Round(time.Microsecond))
		}
		if s.Probe > 0 || s.Verify > 0 {
			fmt.Fprintf(w, " probe=%s verify=%s", s.Probe.Round(time.Microsecond), s.Verify.Round(time.Microsecond))
		}
		if s.Attempts > 1 {
			fmt.Fprintf(w, " attempts=%d", s.Attempts)
		}
		if s.Err != "" {
			fmt.Fprintf(w, " err[%s]=%q", s.Class, s.Err)
		}
		fmt.Fprintln(w)
		if s.Funnel != nil {
			fmt.Fprintf(w, "    funnel: %s\n", s.Funnel)
		}
	}
	f := t.Funnel()
	if f != (Funnel{}) {
		fmt.Fprintf(w, "  total funnel: %s\n", f)
	}
}

var traceSeq atomic.Uint64

// NewTraceID returns a 16-hex-char ID: 8 random bytes XOR a process-local
// sequence so IDs stay unique even if the entropy source misbehaves.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], 0)
	}
	seq := traceSeq.Add(1)
	binary.BigEndian.PutUint64(b[:], binary.BigEndian.Uint64(b[:])^(seq<<32)^seq)
	return hex.EncodeToString(b[:])
}

// Error classes for skip reports and metrics labels. Coarse on purpose:
// these become metric name suffixes and must stay low-cardinality.
const (
	ClassTimeout     = "timeout"
	ClassCancelled   = "cancelled"
	ClassTransport   = "transport"
	ClassApplication = "application"
	ClassPanic       = "panic"
	ClassOverloaded  = "overloaded"
	ClassNone        = ""
)

// Classify maps an error to a coarse class for metrics and skip reports.
// It works on error strings where needed because errors that crossed an
// RPC boundary have lost their concrete types.
func Classify(err error) string {
	if err == nil {
		return ClassNone
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ClassTimeout
	}
	if errors.Is(err, context.Canceled) {
		return ClassCancelled
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "context deadline exceeded") || strings.Contains(msg, "deadline"):
		return ClassTimeout
	case strings.Contains(msg, "context canceled") || strings.Contains(msg, "cancelled"):
		return ClassCancelled
	case strings.Contains(msg, "panic"):
		return ClassPanic
	case strings.Contains(msg, "overloaded"):
		return ClassOverloaded
	case strings.Contains(msg, "connection") || strings.Contains(msg, "EOF") ||
		strings.Contains(msg, "broken pipe") || strings.Contains(msg, "reset") ||
		strings.Contains(msg, "refused") || strings.Contains(msg, "unexpected"):
		return ClassTransport
	default:
		return ClassApplication
	}
}
