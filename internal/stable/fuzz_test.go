package stable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// fuzzSeeds builds the recovery vectors the torn-tail and corruption tests
// use — clean logs, every torn prefix of a final record, a bad final CRC,
// interior flips — plus remove records, a compressed record and a
// compacted log ending in its high-water record.
func fuzzSeeds(tb testing.TB) [][]byte {
	dir := tb.TempDir()
	build := func(name string, opts Options, drive func(l *FileLog)) []byte {
		path := filepath.Join(dir, name)
		l, err := OpenFileLog(path, opts)
		if err != nil {
			tb.Fatal(err)
		}
		drive(l)
		l.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	clean := build("clean", Options{}, func(l *FileLog) {
		for _, r := range []string{"first", "second", "third"} {
			l.Append([]byte(r))
		}
	})
	seeds := [][]byte{nil, clean}
	for cut := 1; cut < 10; cut++ {
		seeds = append(seeds, clean[:len(clean)-cut])
	}
	for _, at := range []int{len(clean) - 6, 3, 10} {
		mut := bytes.Clone(clean)
		mut[at] ^= 0x40
		seeds = append(seeds, mut)
	}
	seeds = append(seeds,
		build("removes", Options{}, func(l *FileLog) {
			a, _ := l.Append([]byte("acked"))
			l.Append([]byte("pending"))
			l.Remove(a)
		}),
		build("compressed", Options{Compress: true}, func(l *FileLog) {
			l.Append(bytes.Repeat([]byte("compressible "), 40))
		}),
		build("compacted", Options{}, func(l *FileLog) {
			for l.Stats().Compactions == 0 {
				id, _ := l.Append(make([]byte, 1<<10))
				l.Remove(id)
			}
		}),
	)
	return seeds
}

// FuzzRecordScan treats arbitrary bytes as a log file — the disk is a trust
// boundary — and opens them through the appender's recovery scan and both
// views. Nothing may panic, and no open may allocate more than MaxRecord in
// total. A failed open reports ErrCorrupt and leaves the file untouched. A
// successful one keeps a prefix of the input that the scanned records
// re-encode to byte for byte, reporting a TornTailError at the cut whenever
// it dropped anything; FileLog agrees with it, and SegmentFile too unless
// the file holds a remove record, which a segment refuses.
func FuzzRecordScan(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		file := func(name string) string {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, data, 0o600); err != nil {
				t.Fatal(err)
			}
			return path
		}

		var a appender
		var recs []record
		live := map[uint64]bool{}
		removes := false
		path := file("core")
		err := boundedAlloc(t, func() error {
			return a.open(path, Options{}, false, 0, func(_ int64, r record) error {
				recs = append(recs, record{kind: r.kind, id: r.id, flags: r.flags, stored: bytes.Clone(r.stored)})
				if r.kind == kindAppend {
					live[r.id] = true
				} else {
					delete(live, r.id)
					removes = true
				}
				return nil
			})
		})
		kept, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open failed with %v, want ErrCorrupt", err)
			}
			if !bytes.Equal(kept, data) {
				t.Fatal("failed open changed the file")
			}
		} else {
			var enc []byte
			for _, r := range recs {
				enc = appendRecord(enc, r.kind, r.id, r.flags, r.stored)
			}
			if !bytes.HasPrefix(data, kept) || !bytes.Equal(enc, kept) {
				t.Fatalf("kept %d of %d bytes; records re-encode to %d bytes that differ", len(kept), len(data), len(enc))
			}
			var torn *TornTailError
			switch terr := a.TornTail(); {
			case len(kept) == len(data) && terr != nil:
				t.Fatalf("TornTail() = %v on an intact file", terr)
			case len(kept) < len(data) && (!errors.As(terr, &torn) || torn.Offset != int64(len(kept))):
				t.Fatalf("TornTail() = %v, want a cut at %d", terr, len(kept))
			}
			a.Close()
		}

		var l *FileLog
		lerr := boundedAlloc(t, func() (err error) {
			l, err = OpenFileLog(file("log"), Options{})
			return err
		})
		if (lerr == nil) != (err == nil) {
			t.Fatalf("FileLog open = %v, core scan = %v", lerr, err)
		}
		if l != nil {
			if l.Len() != len(live) {
				t.Fatalf("FileLog holds %d live records, want %d", l.Len(), len(live))
			}
			l.Close()
		}

		var s *SegmentFile
		scanned := 0
		serr := boundedAlloc(t, func() (err error) {
			s, err = OpenSegmentFile(file("seg"), Options{}, func(int64, []byte) error {
				scanned++
				return nil
			})
			return err
		})
		if (serr == nil) != (err == nil && !removes) {
			t.Fatalf("SegmentFile open = %v, core scan = %v (remove records: %v)", serr, err, removes)
		}
		if s != nil {
			if scanned != len(recs) {
				t.Fatalf("SegmentFile scanned %d records, want %d", scanned, len(recs))
			}
			s.Close()
		}
	})
}

// boundedAlloc runs open and fails the test if it allocated more than
// MaxRecord bytes in total — so no single allocation did either.
func boundedAlloc(t *testing.T, open func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := open()
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d > MaxRecord {
		t.Fatalf("open allocated %d bytes, more than MaxRecord", d)
	}
	return err
}
