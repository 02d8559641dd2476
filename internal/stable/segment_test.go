package stable

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

func openSeg(t *testing.T, path string, opts Options) (*SegmentFile, map[int64][]byte) {
	t.Helper()
	got := map[int64][]byte{}
	s, err := OpenSegmentFile(path, opts, func(off int64, rec []byte) error {
		got[off] = append([]byte(nil), rec...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, got
}

func TestSegmentAppendReadAt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, _ := openSeg(t, path, Options{})
	defer s.Close()
	var offs []int64
	for i := 0; i < 50; i++ {
		off, err := s.AppendNoSync([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, off := range offs {
		rec, err := s.ReadAt(off)
		if err != nil {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if want := fmt.Sprintf("record-%d", i); string(rec) != want {
			t.Fatalf("ReadAt(%d) = %q, want %q", off, rec, want)
		}
	}
	if _, err := s.ReadAt(s.Size()); err == nil {
		t.Fatal("ReadAt past end succeeded")
	}
	if _, err := s.ReadAt(offs[3] + 1); err == nil {
		t.Fatal("ReadAt at a non-record offset succeeded")
	}
}

func TestSegmentScanAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, _ := openSeg(t, path, Options{})
	want := map[int64][]byte{}
	// A large record forces the streaming scan across chunk refills.
	big := bytes.Repeat([]byte("x"), 300<<10)
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf("r%d", i))
		if i == 10 {
			rec = big
		}
		off, err := s.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		want[off] = append([]byte(nil), rec...)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, got := openSeg(t, path, Options{})
	defer s2.Close()
	if len(got) != len(want) {
		t.Fatalf("scan saw %d records, want %d", len(got), len(want))
	}
	for off, rec := range want {
		if !bytes.Equal(got[off], rec) {
			t.Fatalf("offset %d: scan %q want %q", off, got[off], rec)
		}
		back, err := s2.ReadAt(off)
		if err != nil || !bytes.Equal(back, rec) {
			t.Fatalf("ReadAt(%d) after reopen: %q, %v", off, back, err)
		}
	}
}

func TestSegmentCompressedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, _ := openSeg(t, path, Options{Compress: true})
	payload := bytes.Repeat([]byte("compressible "), 200)
	off, err := s.Append(payload)
	if err != nil {
		t.Fatal(err)
	}
	back, err := s.ReadAt(off)
	if err != nil || !bytes.Equal(back, payload) {
		t.Fatalf("compressed ReadAt: %v (len %d)", err, len(back))
	}
	if st := s.Stats(); st.BytesWritten >= st.BytesLogical {
		t.Errorf("compression did not shrink: wrote %d for %d logical", st.BytesWritten, st.BytesLogical)
	}
	s.Close()
	s2, got := openSeg(t, path, Options{Compress: true})
	defer s2.Close()
	if !bytes.Equal(got[off], payload) {
		t.Fatal("scan after reopen lost the compressed payload")
	}
}
