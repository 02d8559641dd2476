package stable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// logFactory builds a fresh log for the shared conformance tests.
type logFactory struct {
	name string
	make func(t *testing.T, opts Options) Log
}

func factories() []logFactory {
	return []logFactory{
		{"MemLog", func(t *testing.T, opts Options) Log {
			return NewMemLog(opts)
		}},
		{"FileLog", func(t *testing.T, opts Options) Log {
			l, err := OpenFileLog(filepath.Join(t.TempDir(), "wal"), opts)
			if err != nil {
				t.Fatalf("OpenFileLog: %v", err)
			}
			return l
		}},
	}
}

func TestAppendReplayRemove(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{})
			defer l.Close()
			var ids []uint64
			for i := 0; i < 10; i++ {
				id, err := l.Append([]byte(fmt.Sprintf("rec-%d", i)))
				if err != nil {
					t.Fatalf("Append: %v", err)
				}
				if len(ids) > 0 && id <= ids[len(ids)-1] {
					t.Fatalf("ids not increasing: %d after %d", id, ids[len(ids)-1])
				}
				ids = append(ids, id)
			}
			if l.Len() != 10 {
				t.Errorf("Len = %d", l.Len())
			}
			// Remove the odd records.
			for i, id := range ids {
				if i%2 == 1 {
					if err := l.Remove(id); err != nil {
						t.Fatalf("Remove: %v", err)
					}
				}
			}
			var got []string
			err := l.Replay(func(id uint64, rec []byte) error {
				got = append(got, string(rec))
				return nil
			})
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			want := []string{"rec-0", "rec-2", "rec-4", "rec-6", "rec-8"}
			if len(got) != len(want) {
				t.Fatalf("Replay yielded %v", got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("replay[%d] = %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}

func TestRemoveUnknown(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{})
			defer l.Close()
			if err := l.Remove(42); !errors.Is(err, ErrNotFound) {
				t.Errorf("Remove(42) = %v", err)
			}
		})
	}
}

// TestRemoveBatch: one Remove call removes every known id, reports
// ErrNotFound for the unknown one only after the others are gone, and on a
// FileLog pays a single fsync for the whole batch, durable across reopen.
func TestRemoveBatch(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{})
			defer l.Close()
			var ids []uint64
			for i := 0; i < 6; i++ {
				id, err := l.Append([]byte(fmt.Sprintf("rec-%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			if err := l.Remove(); err != nil {
				t.Fatalf("empty Remove = %v", err)
			}
			before := l.Stats()
			if err := l.Remove(ids[1], ids[3], 999, ids[5]); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Remove with an unknown id = %v, want ErrNotFound", err)
			}
			after := l.Stats()
			if l.Len() != 3 || after.Removes-before.Removes != 3 {
				t.Fatalf("Len = %d, Removes +%d, want 3 and +3", l.Len(), after.Removes-before.Removes)
			}
			if fl, ok := l.(*FileLog); ok {
				if got := after.Syncs - before.Syncs; got != 1 {
					t.Errorf("batch Remove paid %d syncs, want 1", got)
				}
				if err := fl.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := OpenFileLog(fl.path, Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				l = re
			}
			var got []string
			l.Replay(func(_ uint64, rec []byte) error { got = append(got, string(rec)); return nil })
			if fmt.Sprint(got) != "[rec-0 rec-2 rec-4]" {
				t.Fatalf("live after batch Remove = %v", got)
			}
			if err := l.Remove(ids[0], ids[1]); !errors.Is(err, ErrNotFound) || l.Len() != 2 {
				t.Fatalf("Remove(known, removed) = %v, Len = %d, want ErrNotFound and 2", err, l.Len())
			}
		})
	}
}

// TestStagedRunCoveredByDurableAppend: a durable Append covers the staged
// records written before it, so AppendNoSync, Append, Commit costs one
// sync on both logs (the MemLog's modeled count must match the FileLog's).
func TestStagedRunCoveredByDurableAppend(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{}).(BatchLog)
			defer l.Close()
			if _, err := l.AppendNoSync([]byte("staged")); err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append([]byte("durable")); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := l.Stats().Syncs; got != 1 {
				t.Errorf("Syncs = %d, want 1", got)
			}
		})
	}
}

func TestClosedLog(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{})
			l.Close()
			if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
				t.Errorf("Append after Close = %v", err)
			}
			if err := l.Remove(1); !errors.Is(err, ErrClosed) {
				t.Errorf("Remove after Close = %v", err)
			}
		})
	}
}

func TestRecordSizeLimit(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{})
			defer l.Close()
			if _, err := l.Append(make([]byte, MaxRecord+1)); !errors.Is(err, ErrRecordBig) {
				t.Errorf("oversized Append = %v", err)
			}
		})
	}
}

func TestReplayError(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{})
			defer l.Close()
			l.Append([]byte("a"))
			l.Append([]byte("b"))
			boom := errors.New("boom")
			calls := 0
			err := l.Replay(func(uint64, []byte) error { calls++; return boom })
			if err != boom || calls != 1 {
				t.Errorf("Replay stopped after %d calls with %v", calls, err)
			}
		})
	}
}

func TestAppendDoesNotAliasCaller(t *testing.T) {
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			l := f.make(t, Options{})
			defer l.Close()
			rec := []byte("mutable")
			l.Append(rec)
			rec[0] = 'X'
			l.Replay(func(_ uint64, got []byte) error {
				if string(got) != "mutable" {
					t.Errorf("log aliases caller buffer: %q", got)
				}
				return nil
			})
		})
	}
}

func TestFileLogRecoveryAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := l.Append([]byte("first"))
	id2, _ := l.Append([]byte("second"))
	id3, _ := l.Append([]byte("third"))
	l.Remove(id2)
	l.Close()

	l2, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	var got []string
	var gotIDs []uint64
	l2.Replay(func(id uint64, rec []byte) error {
		got = append(got, string(rec))
		gotIDs = append(gotIDs, id)
		return nil
	})
	if len(got) != 2 || got[0] != "first" || got[1] != "third" {
		t.Errorf("recovered %v", got)
	}
	if gotIDs[0] != id1 || gotIDs[1] != id3 {
		t.Errorf("recovered ids %v, want [%d %d]", gotIDs, id1, id3)
	}
	// Ids must continue past the old ones after recovery.
	id4, _ := l2.Append([]byte("fourth"))
	if id4 <= id3 {
		t.Errorf("id after recovery %d <= %d", id4, id3)
	}
}

func TestFileLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("complete record"))
	l.Append([]byte("this one will be torn"))
	l.Close()

	// Chop bytes off the tail to simulate a crash mid-write.
	data, _ := os.ReadFile(path)
	for cut := 1; cut < 12; cut++ {
		mut := filepath.Join(dir, fmt.Sprintf("torn-%d", cut))
		os.WriteFile(mut, data[:len(data)-cut], 0o600)
		lt, err := OpenFileLog(mut, Options{})
		if err != nil {
			t.Fatalf("open torn(%d): %v", cut, err)
		}
		var got []string
		lt.Replay(func(_ uint64, rec []byte) error {
			got = append(got, string(rec))
			return nil
		})
		if len(got) != 1 || got[0] != "complete record" {
			t.Errorf("torn(%d): recovered %v", cut, got)
		}
		// The log must be writable after tail truncation.
		if _, err := lt.Append([]byte("after recovery")); err != nil {
			t.Errorf("torn(%d): append after recovery: %v", cut, err)
		}
		lt.Close()
	}
}

func TestFileLogCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	l, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("x"), 4096)
	var ids []uint64
	for i := 0; i < 64; i++ {
		id, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Remove all but the last: should trip compaction.
	for _, id := range ids[:63] {
		if err := l.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Compactions == 0 {
		t.Fatal("no compaction occurred")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Compaction stops below the 64 KiB floor; the file must have shrunk
	// from ~64 records (256 KiB+) to under that floor plus one record.
	if fi.Size() > compactFloor+4096+64 {
		t.Errorf("compacted file still %d bytes", fi.Size())
	}
	// Contents must survive compaction and a reopen.
	l.Append([]byte("post-compact"))
	l.Close()
	l2, err := OpenFileLog(path, Options{})
	if err != nil {
		t.Fatalf("reopen after compaction: %v", err)
	}
	defer l2.Close()
	count := 0
	l2.Replay(func(_ uint64, rec []byte) error { count++; return nil })
	if count != 2 {
		t.Errorf("recovered %d records after compaction, want 2", count)
	}
}

func TestCompressionReducesBytes(t *testing.T) {
	dir := t.TempDir()
	compressible := bytes.Repeat([]byte("abcdef"), 1000)

	open := func(name string, opts Options) *FileLog {
		l, err := OpenFileLog(filepath.Join(dir, name), opts)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	plain := open("plain", Options{})
	comp := open("comp", Options{Compress: true})
	plain.Append(compressible)
	comp.Append(compressible)
	pw, cw := plain.Stats().BytesWritten, comp.Stats().BytesWritten
	if cw >= pw {
		t.Errorf("compression did not help: %d vs %d", cw, pw)
	}
	// Compressed record must decompress identically on recovery.
	comp.Close()
	reopened, err := OpenFileLog(filepath.Join(dir, "comp"), Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	reopened.Replay(func(_ uint64, rec []byte) error {
		if !bytes.Equal(rec, compressible) {
			t.Error("compressed record corrupted on recovery")
		}
		return nil
	})
	reopened.Close()
	plain.Close()
}

// TestGroupCommitSerialSyncsEveryAppend pins the durability contract: with
// no concurrency there is nothing to coalesce, so every append pays its own
// fsync — group commit never defers durability.
func TestGroupCommitSerialSyncsEveryAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenFileLog(filepath.Join(dir, "wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := l.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Stats().Syncs; got != 25 {
		t.Errorf("Syncs = %d, want 25 (serial appends never coalesce)", got)
	}
	l.Close()

	l2, err := OpenFileLog(filepath.Join(dir, "wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Len() != 25 {
		t.Errorf("recovered %d records, want 25", l2.Len())
	}
}

// TestGroupCommitCoalescesConcurrentAppends drives many concurrent
// appenders through each view, durable Append and staged AppendNoSync plus
// Commit alike, and checks that they share fsyncs: while one flush is in
// flight, later appenders write behind it and ride the next one, so the
// sync count comes out well under the append count — with every record
// readable once its append returned, and durable (verified by reopening).
func TestGroupCommitCoalescesConcurrentAppends(t *testing.T) {
	const (
		goroutines = 8
		perG       = 25
	)
	for _, v := range views {
		for _, staged := range []bool{false, true} {
			name := v.name + "/Append"
			if staged {
				name = v.name + "/AppendNoSync"
			}
			t.Run(name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "log")
				l, _, err := v.open(path)
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				errs := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < perG; i++ {
							rec := fmt.Sprintf("g%d-%d", g, i)
							var key int64
							var err error
							if staged {
								if key, err = l.appendNoSync([]byte(rec)); err == nil {
									err = l.Commit()
								}
							} else {
								key, err = l.append([]byte(rec))
							}
							if err != nil {
								errs <- err
								return
							}
							if back, err := l.read(key); err != nil || string(back) != rec {
								errs <- fmt.Errorf("readback of %q: %q, %v", rec, back, err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatalf("concurrent append: %v", err)
				}
				st := l.Stats()
				if st.Appends != goroutines*perG {
					t.Fatalf("Appends = %d, want %d", st.Appends, goroutines*perG)
				}
				// At least one coalescing event must have occurred under this
				// much contention; typically syncs come out far below the
				// append count.
				if st.Syncs >= st.Appends {
					t.Errorf("Syncs = %d not below Appends = %d: no group commit", st.Syncs, st.Appends)
				}
				t.Logf("group commit: %d appends shared %d fsyncs", st.Appends, st.Syncs)
				l.Close()

				// Every append that returned success must survive reopen.
				l2, got, err := v.open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer l2.Close()
				if len(got) != goroutines*perG {
					t.Errorf("recovered %d records, want %d", len(got), goroutines*perG)
				}
			})
		}
	}
}

func TestMemLogCost(t *testing.T) {
	l := NewMemLog(Options{FlushCost: 5 * time.Millisecond})
	if l.Cost() != 5*time.Millisecond {
		t.Errorf("Cost = %v", l.Cost())
	}
	lns := NewMemLog(Options{FlushCost: 5 * time.Millisecond, NoSync: true})
	if lns.Cost() != 0 {
		t.Errorf("NoSync Cost = %v", lns.Cost())
	}
	var fl Log = mustFileLog(t)
	if fl.Cost() != 0 {
		t.Errorf("FileLog Cost = %v", fl.Cost())
	}
	fl.Close()
}

func mustFileLog(t *testing.T) *FileLog {
	l, err := OpenFileLog(filepath.Join(t.TempDir(), "wal"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestMemLogFailureInjection(t *testing.T) {
	l := NewMemLog(Options{})
	l.FailNext(2)
	if _, err := l.Append([]byte("a")); err == nil {
		t.Error("first injected failure did not fire")
	}
	if _, err := l.Append([]byte("b")); err == nil {
		t.Error("second injected failure did not fire")
	}
	if _, err := l.Append([]byte("c")); err != nil {
		t.Errorf("append after injected failures: %v", err)
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestOptionsString(t *testing.T) {
	s := Options{Compress: true}.String()
	if s != "sync=true compress=true" {
		t.Errorf("Options.String = %q", s)
	}
}

// Property: an arbitrary interleaving of appends and removes replays to
// exactly the live set in append order, both in memory and across a file
// reopen.
func TestQuickLogEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dir, err := os.MkdirTemp("", "stable-quick")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		fl, err := OpenFileLog(filepath.Join(dir, "wal"), Options{NoSync: true})
		if err != nil {
			return false
		}
		ml := NewMemLog(Options{})
		type rec struct {
			fid, mid uint64
			body     string
		}
		var liveRecs []rec
		for op := 0; op < 60; op++ {
			if r.Intn(3) > 0 || len(liveRecs) == 0 {
				body := fmt.Sprintf("rec-%d-%d", seed, op)
				fid, err1 := fl.Append([]byte(body))
				mid, err2 := ml.Append([]byte(body))
				if err1 != nil || err2 != nil {
					return false
				}
				liveRecs = append(liveRecs, rec{fid, mid, body})
			} else {
				i := r.Intn(len(liveRecs))
				if fl.Remove(liveRecs[i].fid) != nil || ml.Remove(liveRecs[i].mid) != nil {
					return false
				}
				liveRecs = append(liveRecs[:i], liveRecs[i+1:]...)
			}
		}
		collect := func(l Log) []string {
			var out []string
			l.Replay(func(_ uint64, b []byte) error {
				out = append(out, string(b))
				return nil
			})
			return out
		}
		want := make([]string, len(liveRecs))
		for i, lr := range liveRecs {
			want[i] = lr.body
		}
		same := func(got []string) bool {
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		if !same(collect(fl)) || !same(collect(ml)) {
			return false
		}
		// Reopen the file log: recovery must reproduce the same state.
		fl.Close()
		fl2, err := OpenFileLog(filepath.Join(dir, "wal"), Options{NoSync: true})
		if err != nil {
			return false
		}
		defer fl2.Close()
		return same(collect(fl2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
