package stable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// readOnly reopens path read-only, so the next write through the returned
// handle fails (EBADF) the way a full or failing disk fails a write.
func readOnly(t *testing.T, path string) *os.File {
	t.Helper()
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return ro
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestFileLogFailedWritePoisons: a failed record write is sticky like a
// failed fsync. Every later Append, AppendNoSync, Remove and Commit returns
// ErrPoisoned and writes nothing, so no record can land behind the partial
// bytes of the failed one.
func TestFileLogFailedWritePoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := l.Append([]byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	rw := l.f
	l.mu.Lock()
	l.f = readOnly(t, path)
	l.mu.Unlock()
	size := fileSize(t, path)

	if _, err := l.Append([]byte("lost")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("failed write: Append = %v, want ErrPoisoned", err)
	}
	// Restore a writable handle: only the sticky poison may refuse now.
	l.mu.Lock()
	l.f.Close()
	l.f = rw
	l.mu.Unlock()
	if _, err := l.Append([]byte("later")); !errors.Is(err, ErrPoisoned) {
		t.Errorf("Append after failed write = %v, want ErrPoisoned", err)
	}
	if _, err := l.AppendNoSync([]byte("later")); !errors.Is(err, ErrPoisoned) {
		t.Errorf("AppendNoSync after failed write = %v, want ErrPoisoned", err)
	}
	if err := l.Remove(id); !errors.Is(err, ErrPoisoned) {
		t.Errorf("Remove after failed write = %v, want ErrPoisoned", err)
	}
	if err := l.Commit(); !errors.Is(err, ErrPoisoned) {
		t.Errorf("Commit after failed write = %v, want ErrPoisoned", err)
	}
	if !errors.Is(l.Poisoned(), ErrPoisoned) {
		t.Errorf("Poisoned() = %v", l.Poisoned())
	}
	if got := fileSize(t, path); got != size {
		t.Errorf("poisoned log wrote %d bytes", got-size)
	}
	l.Close()

	// The file still opens cleanly with the durable record intact.
	l2, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Len() != 1 {
		t.Errorf("reopened log holds %d records, want 1", l2.Len())
	}
}

// TestSegmentFailedWritePoisons: the segment twin. A failed write does not
// advance fileBytes, so without the poison a later record's offset would
// point into the partial bytes.
func TestSegmentFailedWritePoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, err := OpenSegmentFile(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	rw := s.f
	s.mu.Lock()
	s.f = readOnly(t, path)
	s.mu.Unlock()
	size := fileSize(t, path)

	if _, err := s.AppendNoSync([]byte("lost")); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("failed write: AppendNoSync = %v, want ErrPoisoned", err)
	}
	s.mu.Lock()
	s.f.Close()
	s.f = rw
	s.mu.Unlock()
	if _, err := s.Append([]byte("later")); !errors.Is(err, ErrPoisoned) {
		t.Errorf("Append after failed write = %v, want ErrPoisoned", err)
	}
	if _, err := s.AppendNoSync([]byte("later")); !errors.Is(err, ErrPoisoned) {
		t.Errorf("AppendNoSync after failed write = %v, want ErrPoisoned", err)
	}
	if err := s.Commit(); !errors.Is(err, ErrPoisoned) {
		t.Errorf("Commit after failed write = %v, want ErrPoisoned", err)
	}
	if got := fileSize(t, path); got != size {
		t.Errorf("poisoned segment wrote %d bytes", got-size)
	}
	if got := s.Size(); got != size {
		t.Errorf("Size() = %d, want %d", got, size)
	}
	s.Close()
}
