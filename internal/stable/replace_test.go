package stable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestFileLogHighWaterAfterCompaction: the Log contract promises ids that
// strictly increase across recoveries. A compacted file holds only live
// records, so without its trailing high-water record a reopen would hand
// out the removed records' ids again.
func TestFileLogHighWaterAfterCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("stays live")); err != nil {
		t.Fatal(err)
	}
	var last uint64
	payload := bytes.Repeat([]byte("x"), 1<<10)
	for l.Stats().Compactions < 1 {
		if last, err = l.Append(payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Remove(last); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 1 {
		t.Errorf("recovered %d records, want 1", l2.Len())
	}
	id, err := l2.Append([]byte("after reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if id <= last {
		t.Errorf("id after compaction and reopen = %d, want > %d", id, last)
	}
}

// TestFileLogCompactionReplaceCountsSyncs: compaction goes through the
// appender's durable replace, whose two fsyncs (the rewritten file and its
// directory) count in Stats.Syncs beside the Remove's own group commit.
func TestFileLogCompactionReplaceCountsSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 4096)
	var ids []uint64
	for i := 0; i < 64; i++ {
		id, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids[:63] {
		before := l.Stats()
		if err := l.Remove(id); err != nil {
			t.Fatal(err)
		}
		after := l.Stats()
		want := int64(1)
		if after.Compactions > before.Compactions {
			want = 3
		}
		if got := after.Syncs - before.Syncs; got != want {
			t.Fatalf("Remove(%d) paid %d fsyncs, want %d (compactions %d→%d)", id, got, want, before.Compactions, after.Compactions)
		}
	}
	if l.Stats().Compactions == 0 {
		t.Fatal("no compaction occurred")
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Errorf("replacement file left behind: %v", err)
	}
	if _, err := l.Append([]byte("post-compact")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 2 {
		t.Errorf("recovered %d records after compaction, want 2", l2.Len())
	}
}

// TestSegmentReplaceKeepsHandle: Replace swaps the rewritten file in under
// the same *SegmentFile. Offsets the rewrite got from tmp read back, later
// appends land in the new file, and Stats stay cumulative with the
// replace's appends and both of its fsyncs counted.
func TestSegmentReplaceKeepsHandle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, _ := openSeg(t, path, Options{})
	for i := 0; i < 3; i++ {
		if _, err := s.Append([]byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	var offs []int64
	var end int64
	err := s.Replace(func(tmp *SegmentFile) error {
		for i := 0; i < 2; i++ {
			off, err := tmp.AppendNoSync([]byte(fmt.Sprintf("new-%d", i)))
			if err != nil {
				return err
			}
			offs = append(offs, off)
		}
		// The live segment stays readable while the rewrite runs.
		if _, err := s.ReadAt(0); err != nil {
			return err
		}
		end = tmp.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if got := st.Syncs - before.Syncs; got != 2 {
		t.Errorf("Replace paid %d fsyncs, want 2 (file and directory)", got)
	}
	if st.Appends != before.Appends+2 {
		t.Errorf("Appends = %d, want %d (cumulative across the replace)", st.Appends, before.Appends+2)
	}
	if s.Size() != end {
		t.Errorf("Size() = %d after Replace, want %d", s.Size(), end)
	}
	for i, off := range offs {
		if rec, err := s.ReadAt(off); err != nil || string(rec) != fmt.Sprintf("new-%d", i) {
			t.Errorf("ReadAt(%d) after Replace = %q, %v", off, rec, err)
		}
	}
	off, err := s.Append([]byte("after"))
	if err != nil || off != end {
		t.Fatalf("append after Replace: off=%d err=%v, want off %d", off, err, end)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Errorf("replacement file left behind: %v", err)
	}
	s.Close()
	s2, got := openSeg(t, path, Options{})
	defer s2.Close()
	if len(got) != 3 || string(got[offs[0]]) != "new-0" || string(got[offs[1]]) != "new-1" || string(got[end]) != "after" {
		t.Errorf("reopen after Replace recovered %q", got)
	}
}

// TestSegmentReplaceFailureKeepsLive: a failed rewrite leaves the live
// file in use unchanged and removes the replacement.
func TestSegmentReplaceFailureKeepsLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg")
	s, _ := openSeg(t, path, Options{})
	defer s.Close()
	off, err := s.Append([]byte("live"))
	if err != nil {
		t.Fatal(err)
	}
	size := s.Size()
	boom := errors.New("boom")
	err = s.Replace(func(tmp *SegmentFile) error {
		tmp.AppendNoSync([]byte("discarded"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Replace = %v, want %v", err, boom)
	}
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Errorf("replacement file left behind: %v", err)
	}
	if got := fileSize(t, path); got != size || s.Size() != size {
		t.Errorf("live file is %d bytes, Size() %d, want %d", got, s.Size(), size)
	}
	if rec, err := s.ReadAt(off); err != nil || string(rec) != "live" {
		t.Errorf("ReadAt(%d) = %q, %v", off, rec, err)
	}
	if err := s.Poisoned(); err != nil {
		t.Errorf("Poisoned() = %v", err)
	}
	if _, err := s.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
}
