package disk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rover/internal/rdo"
	"rover/internal/store"
	"rover/internal/urn"
)

func syncs(s *Store) int64 { return s.SegmentStats().Syncs }

// stageOps stages one ops commit on u through the staged view.
func stageOps(t *testing.T, s *Store, u urn.URN, arg string) uint64 {
	t.Helper()
	cur, err := s.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	cur.Set("n", arg)
	inv := rdo.Invocation{Object: u, Method: "set", Args: []string{arg}}
	v, err := s.Staged().CommitOpsBy(cur, cur.Version, []rdo.Invocation{inv}, "cli")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// copyDir copies every regular file of src into a fresh directory — a
// crash image of the store directory, taken without closing the store.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestStagedInvisibleUntilSync: staged mutations reach the segment but no
// published surface — List, ListAll, Len, Snapshot, the observer — until one
// Sync makes the whole batch durable and publishes it in append order.
func TestStagedInvisibleUntilSync(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	if err := s.Create(obj("b")); err != nil {
		t.Fatal(err)
	}
	var events []store.ApplyEvent
	s.SetOnApply(func(ev store.ApplyEvent) { events = append(events, ev) })
	listBefore, snapBefore := s.ListAll(), s.Snapshot()
	syncsBefore := syncs(s)

	st := s.Staged()
	if err := st.Create(obj("a")); err != nil {
		t.Fatal(err)
	}
	cur := obj("b")
	cur.Set("k", "staged")
	if v, err := st.Commit(cur, 1); err != nil || v != 2 {
		t.Fatalf("staged Commit = v%d, %v", v, err)
	}
	if got := s.ListAll(); len(got) != len(listBefore) || got[0].Version != 1 {
		t.Errorf("ListAll shows staged state: %+v", got)
	}
	if got := s.List(obj("a").URN); len(got) != 0 {
		t.Errorf("List shows the staged create: %+v", got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if string(s.Snapshot()) != string(snapBefore) {
		t.Error("Snapshot shows staged state")
	}
	if len(events) != 0 {
		t.Errorf("observer saw %d staged events", len(events))
	}
	if got := syncs(s); got != syncsBefore {
		t.Errorf("staging paid %d fsyncs", got-syncsBefore)
	}

	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := syncs(s) - syncsBefore; got != 1 {
		t.Errorf("Sync of a 2-record batch paid %d fsyncs, want 1", got)
	}
	if s.Len() != 2 || len(events) != 2 {
		t.Fatalf("after Sync: Len=%d events=%d, want 2/2", s.Len(), len(events))
	}
	if events[0].URN != obj("a").URN || events[1].URN != cur.URN || events[1].Version != 2 {
		t.Errorf("events out of append order: %+v", events)
	}
	// Nothing staged: a Sync is free.
	if err := s.Sync(); err != nil || syncs(s)-syncsBefore != 1 {
		t.Errorf("idle Sync: err=%v fsyncs=%d", err, syncs(s)-syncsBefore)
	}
}

// TestStagedTouchForcesOneSync: a read or commit that touches a URN with
// staged records makes them durable first — exactly one segment sync — and
// then sees them (read-your-writes inside a batch).
func TestStagedTouchForcesOneSync(t *testing.T) {
	touches := map[string]func(s *Store, u urn.URN) error{
		"Get": func(s *Store, u urn.URN) error {
			o, err := s.Get(u)
			if err == nil && o.Version != 2 {
				err = fmt.Errorf("Get saw v%d", o.Version)
			}
			return err
		},
		"Version": func(s *Store, u urn.URN) error {
			v, err := s.Version(u)
			if err == nil && v != 2 {
				err = fmt.Errorf("Version = %d", v)
			}
			return err
		},
		"OpsSince": func(s *Store, u urn.URN) error {
			if _, v, ok := s.OpsSince(u, 1); !ok || v != 2 {
				return fmt.Errorf("OpsSince = v%d ok=%v", v, ok)
			}
			return nil
		},
		"StreamOpsSince": func(s *Store, u urn.URN) error {
			var last uint64
			ok, err := s.StreamOpsSince(u, 1, func(ver uint64, _ []rdo.Invocation, _ string, _ []byte) error {
				last = ver
				return nil
			})
			if err == nil && (!ok || last != 2) {
				err = fmt.Errorf("StreamOpsSince = ok %v through v%d", ok, last)
			}
			return err
		},
		"WasCommitted": func(s *Store, u urn.URN) error {
			inv := rdo.Invocation{Object: u, Method: "set", Args: []string{"x"}}
			if !s.WasCommitted(u, 1, []rdo.Invocation{inv}, "cli") {
				return errors.New("WasCommitted = false")
			}
			return nil
		},
		"begin": func(s *Store, u urn.URN) error {
			o := obj("a")
			v, err := s.Staged().Commit(o, 2)
			if err == nil && v != 3 {
				err = fmt.Errorf("commit on staged URN = v%d", v)
			}
			return err
		},
	}
	for name, touch := range touches {
		t.Run(name, func(t *testing.T) {
			s := openStore(t, t.TempDir(), Options{})
			o := obj("a")
			if err := s.Create(o); err != nil {
				t.Fatal(err)
			}
			stageOps(t, s, o.URN, "x")
			before := syncs(s)
			if err := touch(s, o.URN); err != nil {
				t.Fatal(err)
			}
			if got := syncs(s) - before; got != 1 {
				t.Errorf("touch paid %d fsyncs, want 1", got)
			}
			// An untouched URN costs nothing.
			if _, err := s.Get(obj("other").URN); !errors.Is(err, store.ErrNotFound) {
				t.Fatal(err)
			}
			if got := syncs(s) - before; got != 1 {
				t.Errorf("untouched read paid a sync")
			}
		})
	}
}

// TestStagedLostWithoutSync: a staged record is not durable. A crash image
// cut at the segment's pre-Sync size — the bytes a crash before the fsync
// may drop — reopens without the object; after Sync the image has it.
func TestStagedLostWithoutSync(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	if err := s.Create(obj("keep")); err != nil {
		t.Fatal(err)
	}
	preSize := s.Occupancy().SegmentBytes
	if err := s.Staged().Create(obj("staged")); err != nil {
		t.Fatal(err)
	}
	img := copyDir(t, dir)
	if err := os.Truncate(filepath.Join(img, SegmentName), preSize); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, img, Options{})
	if _, err := s2.Get(obj("staged").URN); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("unsynced staged object survived the crash image: %v", err)
	}
	if _, err := s2.Get(obj("keep").URN); err != nil {
		t.Fatalf("durable object lost: %v", err)
	}

	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, copyDir(t, dir), Options{})
	if _, err := s3.Get(obj("staged").URN); err != nil {
		t.Fatalf("synced object missing from the crash image: %v", err)
	}
}

// TestStagedDrainedBeforeRewrite: compaction, Close and LoadSnapshot sync
// and publish staged records before they rewrite the segment or write the
// index footer, so a footer-path reopen never drops one.
func TestStagedDrainedBeforeRewrite(t *testing.T) {
	t.Run("compaction", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, dir, Options{CompactEvery: 1 << 20})
		hot := obj("hot")
		if err := s.Create(hot); err != nil {
			t.Fatal(err)
		}
		bumpOps(t, s, hot.URN, 20) // dead weight
		v := stageOps(t, s, hot.URN, "staged")
		if err := s.Staged().Create(obj("new")); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.opts.CompactEvery = 1
		s.mu.Unlock()
		s.maybeCompact()
		if s.Occupancy().Compactions != 1 {
			t.Fatal("compaction did not run")
		}
		if s.Len() != 2 {
			t.Fatalf("staged create not published by the compaction drain: Len=%d", s.Len())
		}
		s2 := openStore(t, copyDir(t, dir), Options{})
		if !s2.RecoveredByFooter() {
			t.Fatal("reopen did not take the footer path")
		}
		if got, err := s2.Version(hot.URN); err != nil || got != v {
			t.Fatalf("staged commit after compaction: v%d %v, want v%d", got, err, v)
		}
		if _, err := s2.Get(obj("new").URN); err != nil {
			t.Fatalf("staged create lost by compaction: %v", err)
		}
	})
	t.Run("close", func(t *testing.T) {
		dir := t.TempDir()
		s := openStore(t, dir, Options{})
		if err := s.Create(obj("a")); err != nil {
			t.Fatal(err)
		}
		if err := s.Staged().Create(obj("b")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir, Options{})
		if !s2.RecoveredByFooter() {
			t.Fatal("reopen did not take the footer path")
		}
		if _, err := s2.Get(obj("b").URN); err != nil {
			t.Fatalf("staged create lost across Close: %v", err)
		}
	})
	t.Run("LoadSnapshot", func(t *testing.T) {
		dir := t.TempDir()
		src := store.New()
		if err := src.Create(obj("loaded")); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, dir, Options{})
		var seen []urn.URN
		s.SetOnApply(func(ev store.ApplyEvent) { seen = append(seen, ev.URN) })
		if err := s.Staged().Create(obj("staged")); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadSnapshot(src.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 1 || seen[0] != obj("staged").URN {
			t.Fatalf("staged create not published before the load: %v", seen)
		}
		before := syncs(s)
		if err := s.Sync(); err != nil || syncs(s) != before {
			t.Fatalf("records left staged across LoadSnapshot: err=%v", err)
		}
		s2 := openStore(t, copyDir(t, dir), Options{})
		if !s2.RecoveredByFooter() {
			t.Fatal("reopen did not take the footer path")
		}
		if got := s2.ListAll(); len(got) != 1 || got[0].URN != obj("loaded").URN {
			t.Fatalf("reopened population = %+v, want only the snapshot's object", got)
		}
	})
}

// TestSyncRacingCompactionSwap: a Sync whose segment commit lost the race
// to a compaction swap (the old segment is closed under it) must not poison
// the store — the swap already drained and published its records.
func TestSyncRacingCompactionSwap(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{CompactEvery: 1 << 20})
	hot := obj("hot")
	if err := s.Create(hot); err != nil {
		t.Fatal(err)
	}
	bumpOps(t, s, hot.URN, 20)
	v := stageOps(t, s, hot.URN, "racing")

	// Sync's first half: capture the segment and the staged high-water mark.
	s.mu.Lock()
	seg, target := s.seg, s.stageSeq
	s.opts.CompactEvery = 1
	s.mu.Unlock()
	// The compaction wins the race: it drains, rewrites, swaps, and closes
	// the captured segment.
	s.maybeCompact()
	if s.Occupancy().Compactions != 1 {
		t.Fatal("compaction did not run")
	}
	// Sync's second half: the commit on the retired segment fails closed.
	if err := s.finishSync(target, seg.Commit()); err != nil {
		t.Fatalf("Sync racing the swap = %v, want nil", err)
	}
	if got, err := s.Version(hot.URN); err != nil || got != v {
		t.Fatalf("Version = %d, %v, want %d", got, err, v)
	}
	// The store still stages and syncs.
	s.mu.Lock()
	s.opts.CompactEvery = 1 << 20
	s.mu.Unlock()
	v2 := stageOps(t, s, hot.URN, "after")
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after the race: %v", err)
	}
	if got, _ := s.Version(hot.URN); got != v2 {
		t.Fatalf("Version = %d, want %d", got, v2)
	}
}

// TestStagedConcurrentSyncsAndCompaction runs stagers on distinct objects
// against frequent compaction: every staged commit is published by some
// Sync, no Sync fails, and the counters stay monotonic. Run with -race.
func TestStagedConcurrentSyncsAndCompaction(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{CompactEvery: 4})
	const workers, rounds = 4, 40
	for w := 0; w < workers; w++ {
		if err := s.Create(obj(fmt.Sprint("w", w))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			u := obj(fmt.Sprint("w", w)).URN
			for i := 0; i < rounds; i++ {
				cur, err := s.Get(u)
				if err == nil {
					_, err = s.Staged().Commit(cur, cur.Version)
				}
				if err == nil && i%3 == 0 {
					err = s.Sync()
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- s.Sync()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.Occupancy().Compactions == 0 {
		t.Fatal("no compaction ran")
	}
	for w := 0; w < workers; w++ {
		if v, err := s.Version(obj(fmt.Sprint("w", w)).URN); err != nil || v != rounds+1 {
			t.Fatalf("w%d at v%d (%v), want v%d", w, v, err, rounds+1)
		}
	}
}

// TestSegmentStatsSurviveRewrites: the store's segment counters are
// cumulative — a compaction or LoadSnapshot swaps in a fresh segment file,
// but the fsync and append counts carry over instead of restarting at zero.
func TestSegmentStatsSurviveRewrites(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{CompactEvery: 8})
	hot := obj("hot")
	if err := s.Create(hot); err != nil {
		t.Fatal(err)
	}
	bumpOps(t, s, hot.URN, 3)
	before := s.SegmentStats()
	bumpUntilCompact(t, s, hot.URN)
	after := s.SegmentStats()
	if after.Syncs <= before.Syncs || after.Appends <= before.Appends || after.BytesWritten <= before.BytesWritten {
		t.Fatalf("counters reset by compaction: before %+v, after %+v", before, after)
	}
	src := store.New()
	if err := src.Create(obj("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadSnapshot(src.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if got := s.SegmentStats(); got.Syncs <= after.Syncs || got.Appends <= after.Appends {
		t.Fatalf("counters reset by LoadSnapshot: before %+v, after %+v", after, got)
	}
}
