package disk

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/urn"
)

// bumpOps commits n ops mutations on u, one version step each.
func bumpOps(t *testing.T, s *Store, u urn.URN, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		cur, err := s.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		cur.Set("n", strconv.Itoa(i))
		inv := rdo.Invocation{Object: u, Method: "set", Args: []string{strconv.Itoa(i)}, BaseVer: cur.Version}
		if _, err := s.CommitOpsBy(cur, cur.Version, []rdo.Invocation{inv}, "cli"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFooterRecoveryFastPath: a clean Close leaves a footer+sidecar, so the
// next Open preads the index instead of streaming the whole segment — and
// the recovered state (population, snapshot bytes, history windows) is
// identical to what a full scan would rebuild.
func TestFooterRecoveryFastPath(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for i := 0; i < 50; i++ {
		if err := s.Create(obj(fmt.Sprintf("f/%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	a := urn.MustParse("urn:rover:h/f/00")
	bumpOps(t, s, a, 10)
	want := s.Snapshot()
	wantOps, wantVer, ok := s.OpsSince(a, 5)
	if !ok {
		t.Fatal("OpsSince before close")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	if !s2.RecoveredByFooter() {
		t.Fatal("clean reopen did not take the footer fast path")
	}
	if s2.Len() != 50 {
		t.Fatalf("footer recovery found %d objects, want 50", s2.Len())
	}
	if !bytes.Equal(s2.Snapshot(), want) {
		t.Fatal("footer-recovered snapshot diverges from pre-close snapshot")
	}
	gotOps, gotVer, ok := s2.OpsSince(a, 5)
	if !ok || gotVer != wantVer || len(gotOps) != len(wantOps) {
		t.Fatalf("history after footer recovery: %d ops to v%d ok=%v, want %d to v%d",
			len(gotOps), gotVer, ok, len(wantOps), wantVer)
	}
	inv := rdo.Invocation{Object: a, Method: "set", Args: []string{"9"}, BaseVer: 10}
	if !s2.WasCommitted(a, 10, []rdo.Invocation{inv}, "cli") {
		t.Fatal("WasCommitted lost across footer recovery")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The sidecar is a pure accelerator: delete it and the full scan must
	// rebuild the exact same state.
	if err := os.Remove(filepath.Join(dir, FooterName)); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir, Options{})
	if s3.RecoveredByFooter() {
		t.Fatal("took the footer path with no sidecar")
	}
	if !bytes.Equal(s3.Snapshot(), want) {
		t.Fatal("scan-recovered snapshot diverges from footer-recovered snapshot")
	}
}

// TestFooterCorruptSidecarFallsBack: a flipped byte anywhere in the sidecar
// must cost only the fast path, never correctness.
func TestFooterCorruptSidecarFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	for i := 0; i < 10; i++ {
		if err := s.Create(obj(fmt.Sprintf("c/%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Snapshot()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	side := filepath.Join(dir, FooterName)
	raw, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(side, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	if s2.RecoveredByFooter() {
		t.Fatal("trusted a corrupt sidecar")
	}
	if !bytes.Equal(s2.Snapshot(), want) {
		t.Fatal("fallback scan diverged after sidecar corruption")
	}
}

// TestFooterStaleSidecarAfterCompaction: a sidecar from before a compaction
// points into a segment that no longer exists (the generation token catches
// the mismatch against whatever bytes now sit at that offset), so Open must
// fall back to the scan and still recover everything.
func TestFooterStaleSidecarAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactEvery: 8})
	o := obj("hot")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	bumpOps(t, s, o.URN, 20)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	side := filepath.Join(dir, FooterName)
	stale, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{CompactEvery: 8})
	bumpOps(t, s2, o.URN, 100) // enough dead weight to force a rewrite
	if s2.Occupancy().Compactions == 0 {
		t.Fatal("no compaction; the stale-sidecar scenario needs a segment rewrite")
	}
	want := s2.Snapshot()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(side, stale, 0o600); err != nil {
		t.Fatal(err)
	}

	s3 := openStore(t, dir, Options{})
	if s3.RecoveredByFooter() {
		t.Fatal("trusted a sidecar from a pre-compaction segment generation")
	}
	if !bytes.Equal(s3.Snapshot(), want) {
		t.Fatal("fallback scan diverged after stale sidecar")
	}
}

// bumpUntilCompact commits ops mutations on u until a fresh compaction
// fires, leaving the mutations-since-compaction counter at zero — the next
// few mutations are then guaranteed not to trigger another rewrite.
func bumpUntilCompact(t *testing.T, s *Store, u urn.URN) {
	t.Helper()
	before := s.Occupancy().Compactions
	for i := 0; i < 1000; i++ {
		bumpOps(t, s, u, 1)
		if s.Occupancy().Compactions > before {
			return
		}
	}
	t.Fatal("no compaction after 1000 mutations")
}

// TestFooterTailReplay: a crash AFTER compaction wrote its footer but before
// the next clean Close leaves a valid sidecar plus post-footer mutations.
// Open must take the footer path and replay just the tail.
func TestFooterTailReplay(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactEvery: 8})
	o := obj("hot")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	bumpOps(t, s, o.URN, 100)
	bumpUntilCompact(t, s, o.URN) // tail below stays inside the compact window
	hotVer, _ := s.Version(o.URN)
	// The sidecar as compaction left it, before Close overwrites it.
	side := filepath.Join(dir, FooterName)
	midLife, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Create(obj(fmt.Sprintf("tail/%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := s.Snapshot()
	preClose := s.Occupancy().SegmentBytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: drop Close's footer, restore compaction's sidecar.
	seg := filepath.Join(dir, SegmentName)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:preClose], 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(side, midLife, 0o600); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	if !s2.RecoveredByFooter() {
		t.Fatal("crash after compaction did not recover via the footer")
	}
	if s2.Len() != 6 {
		t.Fatalf("recovered %d objects, want 6 (hot + 5 tail creates)", s2.Len())
	}
	if v, _ := s2.Version(o.URN); v != hotVer {
		t.Fatalf("hot object at v%d, want %d", v, hotVer)
	}
	if !bytes.Equal(s2.Snapshot(), want) {
		t.Fatal("footer+tail recovery diverges from pre-crash state")
	}
}

// TestFooterTornTailTruncation: the crash-mid-commit signature combined with
// footer recovery — the torn final record truncates away, everything durable
// before it survives, and the store reports and keeps working.
func TestFooterTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactEvery: 8})
	o := obj("hot")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	bumpOps(t, s, o.URN, 100)
	bumpUntilCompact(t, s, o.URN) // the two creates below cannot re-compact
	side := filepath.Join(dir, FooterName)
	midLife, err := os.ReadFile(side)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(obj("kept")); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(obj("torn")); err != nil {
		t.Fatal(err)
	}
	preClose := s.Occupancy().SegmentBytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, SegmentName)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the torn create's record.
	if err := os.WriteFile(seg, data[:preClose-5], 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(side, midLife, 0o600); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	if !s2.RecoveredByFooter() {
		t.Fatal("torn tail abandoned the footer path entirely")
	}
	if !errors.Is(s2.TornTail(), stable.ErrTornTail) {
		t.Fatalf("TornTail = %v", s2.TornTail())
	}
	if _, err := s2.Get(urn.MustParse("urn:rover:h/kept")); err != nil {
		t.Fatalf("durable pre-torn create lost: %v", err)
	}
	if _, err := s2.Get(urn.MustParse("urn:rover:h/torn")); err == nil {
		t.Fatal("torn create resurrected")
	}
	if err := s2.Create(obj("after")); err != nil {
		t.Fatalf("store not writable after torn-tail footer recovery: %v", err)
	}
}

// TestStreamOpsSince covers the OpsReader contract on the happy path and
// every documented ok=false case reachable without racing compaction.
func TestStreamOpsSince(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	o := obj("chain")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	const steps = 100 // far beyond the in-memory history window
	bumpOps(t, s, o.URN, steps)

	type got struct {
		ver  uint64
		args []string
		src  string
	}
	collect := func(from uint64) ([]got, bool) {
		var out []got
		ok, err := s.StreamOpsSince(o.URN, from, func(ver uint64, invs []rdo.Invocation, src string, objBytes []byte) error {
			if len(invs) != 1 || len(objBytes) == 0 {
				t.Fatalf("step v%d: %d invs, %d obj bytes", ver, len(invs), len(objBytes))
			}
			out = append(out, got{ver: ver, args: invs[0].Args, src: src})
			return nil
		})
		if err != nil {
			t.Fatalf("StreamOpsSince(%d): %v", from, err)
		}
		return out, ok
	}

	// Full chain from version 1: contiguous, oldest first, bounded memory is
	// the implementation's problem — we just check the contract.
	all, ok := collect(1)
	if !ok || len(all) != steps {
		t.Fatalf("stream from 1: %d steps ok=%v, want %d", len(all), ok, steps)
	}
	for i, g := range all {
		if g.ver != uint64(i+2) || g.src != "cli" || g.args[0] != strconv.Itoa(i) {
			t.Fatalf("step %d = %+v", i, g)
		}
	}
	// Mid-chain start.
	mid, ok := collect(51)
	if !ok || len(mid) != 50 || mid[0].ver != 52 {
		t.Fatalf("stream from 51: %d steps ok=%v first=%v", len(mid), ok, mid)
	}
	// Already caught up, and ahead of head.
	if _, ok := collect(uint64(steps + 1)); ok {
		t.Fatal("stream from head reported a delta")
	}
	// fn errors abort and propagate.
	sentinel := errors.New("stop")
	if ok, err := s.StreamOpsSince(o.URN, 1, func(uint64, []rdo.Invocation, string, []byte) error {
		return sentinel
	}); ok || !errors.Is(err, sentinel) {
		t.Fatalf("fn error: ok=%v err=%v", ok, err)
	}
	// An opaque jump (plain state commit) breaks the chain: no delta.
	cur, err := s.Get(o.URN)
	if err != nil {
		t.Fatal(err)
	}
	cur.Set("n", "opaque")
	if _, err := s.Commit(cur, cur.Version); err != nil {
		t.Fatal(err)
	}
	if _, ok := collect(1); ok {
		t.Fatal("streamed a delta across an opaque state jump")
	}
	// Unknown object.
	if ok, err := s.StreamOpsSince(urn.MustParse("urn:rover:h/nope"), 0,
		func(uint64, []rdo.Invocation, string, []byte) error { return nil }); ok || err != nil {
		t.Fatalf("unknown urn: ok=%v err=%v", ok, err)
	}
}

// TestStreamOpsSinceAfterCompaction: compaction collapses an object's chain
// into one snapshot record, so a pre-compaction `from` cannot be served
// (ok=false → the caller's full-state fallback), while deltas wholly within
// post-compaction commits stream fine.
func TestStreamOpsSinceAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{CompactEvery: 8})
	o := obj("hot")
	if err := s.Create(o); err != nil {
		t.Fatal(err)
	}
	bumpOps(t, s, o.URN, 100)
	if s.Occupancy().Compactions == 0 {
		t.Fatal("no compaction fired")
	}
	nop := func(uint64, []rdo.Invocation, string, []byte) error { return nil }
	if ok, err := s.StreamOpsSince(o.URN, 1, nop); ok || err != nil {
		t.Fatalf("far-behind stream across a compaction: ok=%v err=%v (want fallback)", ok, err)
	}
	// Fresh commits re-grow a streamable chain.
	bumpOps(t, s, o.URN, 10)
	ver, _ := s.Version(o.URN)
	n := 0
	ok, err := s.StreamOpsSince(o.URN, ver-5, func(uint64, []rdo.Invocation, string, []byte) error {
		n++
		return nil
	})
	if !ok || err != nil || n != 5 {
		t.Fatalf("post-compaction stream: %d steps ok=%v err=%v, want 5", n, ok, err)
	}
}

// TestStreamOpsSinceStopsAtReplace: a rewrite that lands mid-walk replaces
// the segment's file in place, so the walk's remaining offsets point into
// the new file. Here the new file is rebuilt with the same records at the
// same offsets, so only the rewrite itself can tell the walk to stop: it
// must end with ok=false (the caller's full-state fallback).
func TestStreamOpsSinceStopsAtReplace(t *testing.T) {
	s := openStore(t, t.TempDir(), Options{})
	empty := s.Snapshot()
	o := obj("chain")
	build := func() {
		if err := s.Create(o.Clone()); err != nil {
			t.Fatal(err)
		}
		bumpOps(t, s, o.URN, 20)
	}
	build()
	calls := 0
	ok, err := s.StreamOpsSince(o.URN, 1, func(uint64, []rdo.Invocation, string, []byte) error {
		if calls++; calls == 1 {
			if err := s.LoadSnapshot(empty); err != nil {
				return err
			}
			build()
		}
		return nil
	})
	if ok || err != nil || calls != 1 {
		t.Fatalf("stream across a mid-walk rewrite: ok=%v err=%v after %d steps, want a fallback after 1", ok, err, calls)
	}
}
