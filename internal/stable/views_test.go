package stable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// viewFile is the surface FileLog and SegmentFile share, for tests that
// hold both views of the appender to one contract. append and appendNoSync
// return a key read hands back: a FileLog id, a SegmentFile offset.
type viewFile interface {
	append(rec []byte) (int64, error)
	appendNoSync(rec []byte) (int64, error)
	read(key int64) ([]byte, error)
	Commit() error
	Close() error
	Stats() Stats
	TornTail() error
}

type fileLogView struct{ *FileLog }

func (v fileLogView) append(rec []byte) (int64, error) {
	id, err := v.Append(rec)
	return int64(id), err
}

func (v fileLogView) appendNoSync(rec []byte) (int64, error) {
	id, err := v.AppendNoSync(rec)
	return int64(id), err
}

func (v fileLogView) read(key int64) ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	rec, ok := v.live[uint64(key)]
	if !ok {
		return nil, ErrNotFound
	}
	return rec, nil
}

type segmentView struct{ *SegmentFile }

func (v segmentView) append(rec []byte) (int64, error)       { return v.Append(rec) }
func (v segmentView) appendNoSync(rec []byte) (int64, error) { return v.AppendNoSync(rec) }
func (v segmentView) read(key int64) ([]byte, error)         { return v.ReadAt(key) }

// views opens the file at path through each view, returning the payloads
// it recovered in order.
var views = []struct {
	name string
	open func(path string) (viewFile, []string, error)
}{
	{"FileLog", func(path string) (viewFile, []string, error) {
		l, err := OpenFileLog(path, Options{})
		if err != nil {
			return nil, nil, err
		}
		var got []string
		l.Replay(func(_ uint64, rec []byte) error {
			got = append(got, string(rec))
			return nil
		})
		return fileLogView{l}, got, nil
	}},
	{"SegmentFile", func(path string) (viewFile, []string, error) {
		var got []string
		s, err := OpenSegmentFile(path, Options{}, func(_ int64, rec []byte) error {
			got = append(got, string(rec))
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		return segmentView{s}, got, nil
	}},
}

// writeView appends recs durably through a view opened at path and returns
// the file's contents plus the offset at which each record begins.
func writeView(t *testing.T, open func(string) (viewFile, []string, error), path string, recs ...string) ([]byte, []int64) {
	t.Helper()
	v, _, err := open(path)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for _, r := range recs {
		offsets = append(offsets, fileSize(t, path))
		if _, err := v.append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, offsets
}

// TestTornTailTruncated: every prefix of the final record, and a final
// record whose checksum fails, is the crash-mid-append signature. Each view
// recovers the earlier record, truncates the file to where the torn one
// began, reports it as a typed *TornTailError at that offset, and stays
// appendable there.
func TestTornTailTruncated(t *testing.T) {
	const good, last = "complete record", "this one will be torn"
	for _, v := range views {
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			data, offsets := writeView(t, v.open, filepath.Join(dir, "log"), good, last)
			type damage struct {
				name string
				file []byte
			}
			var damages []damage
			for cut := 1; cut < len(data)-int(offsets[1]); cut++ {
				damages = append(damages, damage{fmt.Sprintf("cut%d", cut), data[:len(data)-cut]})
			}
			badCRC := bytes.Clone(data)
			badCRC[len(badCRC)-6] ^= 0x40 // inside the final record's payload
			damages = append(damages, damage{"badcrc", badCRC})

			for _, d := range damages {
				path := filepath.Join(dir, d.name)
				if err := os.WriteFile(path, d.file, 0o600); err != nil {
					t.Fatal(err)
				}
				f, got, err := v.open(path)
				if err != nil {
					t.Fatalf("%s: torn tail must recover, got %v", d.name, err)
				}
				if len(got) != 1 || got[0] != good {
					t.Errorf("%s: recovered %q, want [%q]", d.name, got, good)
				}
				terr := f.TornTail()
				var tt *TornTailError
				if !errors.Is(terr, ErrTornTail) || !errors.As(terr, &tt) {
					t.Fatalf("%s: TornTail() = %v; want a *TornTailError matching ErrTornTail", d.name, terr)
				}
				if tt.Offset != offsets[1] {
					t.Errorf("%s: torn offset = %d, want %d", d.name, tt.Offset, offsets[1])
				}
				if size := fileSize(t, path); size != offsets[1] {
					t.Errorf("%s: file size after recovery = %d, want %d", d.name, size, offsets[1])
				}
				if _, err := f.append([]byte("after recovery")); err != nil {
					t.Errorf("%s: append after recovery: %v", d.name, err)
				}
				f.Close()
				f, got, err = v.open(path)
				if err != nil {
					t.Fatalf("%s: reopen: %v", d.name, err)
				}
				if len(got) != 2 || got[0] != good || got[1] != "after recovery" {
					t.Errorf("%s: after append and reopen recovered %q", d.name, got)
				}
				if err := f.TornTail(); err != nil {
					t.Errorf("%s: TornTail() = %v after a clean reopen", d.name, err)
				}
				f.Close()
			}
		})
	}
}

// TestInteriorCorruptionFailsOpen: damage before the final record fails
// the open with ErrCorrupt — silently truncating there would discard good
// later records and reorder the replayed stream — and leaves the bytes
// untouched for out-of-band repair.
func TestInteriorCorruptionFailsOpen(t *testing.T) {
	recs := []string{"rec-0-padding-padding", "rec-1-padding-padding", "rec-2-padding-padding"}
	for _, v := range views {
		t.Run(v.name, func(t *testing.T) {
			dir := t.TempDir()
			data, offsets := writeView(t, v.open, filepath.Join(dir, "log"), recs...)
			for _, d := range []struct {
				name string
				at   int64
				mask byte
			}{
				{"first", 10, 0xff},
				{"middle", offsets[1] + 3, 0x01},
			} {
				mut := bytes.Clone(data)
				mut[d.at] ^= d.mask
				path := filepath.Join(dir, d.name)
				if err := os.WriteFile(path, mut, 0o600); err != nil {
					t.Fatal(err)
				}
				f, _, err := v.open(path)
				if err == nil {
					f.Close()
					t.Fatalf("%s: interior corruption silently accepted", d.name)
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: open error = %v; want errors.Is(_, ErrCorrupt)", d.name, err)
				}
				if after, _ := os.ReadFile(path); !bytes.Equal(after, mut) {
					t.Errorf("%s: failed open changed the file", d.name)
				}
			}
		})
	}
}
