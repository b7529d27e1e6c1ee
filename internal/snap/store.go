package snap

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// suffix is the snapshot filename extension; tmpSuffix marks in-progress
// writes, which readers ignore and Scan cleans up (a crash mid-write
// leaves exactly one).
const (
	suffix    = ".snap"
	tmpSuffix = ".snap.tmp"
)

// Store manages the snapshot files of one directory: crash-safe saves,
// verified loads, and the cold-start scan.
type Store struct {
	dir string
	// Faults, when non-nil, injects seeded write failures (torn writes,
	// bit flips, mid-write crashes) — the chaos harness for snapshot I/O.
	// Never set it in production.
	Faults *FaultPlan
}

// NewStore opens (creating if needed) a snapshot directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("snap: empty snapshot directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Filename returns the file name (not path) a partition snapshot uses.
// The dataset name is path-escaped so arbitrary dataset strings cannot
// traverse or collide; the partition id terminates the name, after the
// last "-p", so escaped dashes in dataset names stay unambiguous.
func Filename(dataset string, partition int) string {
	return url.PathEscape(dataset) + "-p" + strconv.Itoa(partition) + suffix
}

// ParseFilename inverts Filename. ok is false for names this store did
// not produce (including temp files).
func ParseFilename(name string) (dataset string, partition int, ok bool) {
	if strings.HasSuffix(name, tmpSuffix) || !strings.HasSuffix(name, suffix) {
		return "", 0, false
	}
	stem := strings.TrimSuffix(name, suffix)
	i := strings.LastIndex(stem, "-p")
	if i < 0 {
		return "", 0, false
	}
	pid, err := strconv.Atoi(stem[i+2:])
	if err != nil || pid < 0 {
		return "", 0, false
	}
	ds, err := url.PathUnescape(stem[:i])
	if err != nil {
		return "", 0, false
	}
	return ds, pid, true
}

// Path returns the full path of a partition's snapshot file.
func (st *Store) Path(dataset string, partition int) string {
	return filepath.Join(st.dir, Filename(dataset, partition))
}

// Save encodes the snapshot and writes it with SaveImage.
func (st *Store) Save(s *Snapshot) (int64, error) {
	return st.SaveImage(s.Dataset, s.Partition, Encode(s))
}

// SaveImage writes an encoded snapshot image (Encode's output, or bytes a
// Decode has verified) crash-safely: temp file → fsync → atomic rename →
// directory fsync. On success the returned size is the image's byte length
// and the file at Path is complete and sealed; on error the final path is
// untouched (still holding any previous snapshot). A fault plan may corrupt
// or abort the write — that is the point of it.
func (st *Store) SaveImage(dataset string, partition int, data []byte) (int64, error) {
	size := int64(len(data))
	final := st.Path(dataset, partition)
	tmp := final + ".tmp"

	write := data
	crashAfter := -1
	if st.Faults != nil {
		var err error
		write, crashAfter, err = st.Faults.apply(data)
		if err != nil {
			return 0, err
		}
	}

	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("snap: %w", err)
	}
	if crashAfter >= 0 {
		// Injected mid-write crash: a prefix lands in the temp file and
		// the writer "dies" — no fsync, no rename. The final path is
		// untouched; Scan later removes the orphan.
		if crashAfter > len(write) {
			crashAfter = len(write)
		}
		f.Write(write[:crashAfter])
		f.Close()
		return 0, &InjectedFault{Kind: "crash"}
	}
	if _, err := f.Write(write); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("snap: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("snap: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("snap: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("snap: %w", err)
	}
	st.syncDir()
	return size, nil
}

// syncDir fsyncs the directory so the rename itself is durable. Errors
// are swallowed: some filesystems refuse directory fsync, and the rename
// already happened — the snapshot is at worst one crash behind.
func (st *Store) syncDir() {
	if d, err := os.Open(st.dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Load reads and fully verifies one partition's snapshot.
func (st *Store) Load(dataset string, partition int) (*Snapshot, error) {
	return LoadFile(st.Path(dataset, partition))
}

// LoadFile reads and fully verifies a snapshot file. The error is
// classified: filesystem problems stay as-is ("io"), everything
// structural becomes CorruptError/VersionError.
func LoadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// Remove deletes a partition's snapshot (and any orphaned temp file).
// Removing a snapshot that does not exist is not an error.
func (st *Store) Remove(dataset string, partition int) error {
	final := st.Path(dataset, partition)
	os.Remove(final + ".tmp")
	if err := os.Remove(final); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("snap: %w", err)
	}
	return nil
}

// Entry names one snapshot file found by Scan.
type Entry struct {
	Path      string
	Dataset   string
	Partition int
}

// Scan lists the directory's snapshot files (sorted by dataset, then
// partition) and removes orphaned temp files left by crashed writes.
// Files with foreign names are ignored, not errors: the directory may be
// shared with logs or operator notes.
func (st *Store) Scan() ([]Entry, error) {
	des, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	var out []Entry
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			// A crashed write's leftover: never visible at a final path,
			// safe to clear.
			os.Remove(filepath.Join(st.dir, name))
			continue
		}
		ds, pid, ok := ParseFilename(name)
		if !ok {
			continue
		}
		out = append(out, Entry{Path: filepath.Join(st.dir, name), Dataset: ds, Partition: pid})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		return out[i].Partition < out[j].Partition
	})
	return out, nil
}
