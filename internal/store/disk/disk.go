package disk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/urn"
	"rover/internal/wire"
)

// Defaults for Options fields left zero.
const (
	DefaultCacheBytes   = 64 << 20
	DefaultCompactEvery = 1 << 15
)

// SegmentName is the segment file inside Options.Dir. Compaction writes
// SegmentName + ".compact" beside it and renames over it atomically; a
// surviving .compact file is always a crash leftover, and opening the
// segment removes it.
const SegmentName = "store.seg"

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("disk: store is closed")

// Options configure a disk store.
type Options struct {
	// Dir is the store directory (created if absent). The segment lives at
	// Dir/store.seg.
	Dir string
	// CacheBytes bounds the hot-object LRU (estimated decoded bytes);
	// <= 0 selects DefaultCacheBytes.
	CacheBytes int64
	// CompactEvery is how many committed mutations elapse between
	// compaction checks; <= 0 selects DefaultCompactEvery. A check only
	// rewrites when the segment holds more than twice its live data, so
	// pure-insert workloads never pay a rewrite.
	CompactEvery int
	// Compress flate-compresses segment records (stable.Options.Compress).
	Compress bool
}

// idxEnt is the resident per-object index entry: everything List/Version
// need plus the byte offset of the object's latest segment record — the
// fault-in address. ~100 bytes per object; this index and the LRU are the
// store's whole resident footprint.
type idxEnt struct {
	ver  uint64
	off  int64
	rlen int64 // on-disk record length (live-bytes accounting)
	typ  string
	kind byte // segment record kind at off (footer recovery, delta streaming)
}

// Store is the disk-backed Backend. See the package comment for the
// shape; the essential invariants are:
//
//   - Publish-after-durable: a mutation's record is appended and fsynced
//     (riding the segment's group commit) BEFORE the index, history, LRU,
//     and observer see it. Readers never observe state that a crash could
//     lose, and the index only ever points at durable records — so
//     fault-in cannot read a torn record. A crash between append and
//     publish leaves a durable record the committer never acknowledged;
//     recovery replays it — the same crash-before-ack window the session
//     journal has, absorbed by WasCommitted and the engine's reply cache.
//   - One publish path: every mutation stages its record (AppendNoSync)
//     and queues its publish; Sync makes everything staged so far durable
//     with one segment commit and publishes it in append order. A durable
//     mutation is a staged one followed by Sync; the Staged view returns
//     before the Sync, so a caller can stage a batch and pay one fsync.
//   - Force on touch: begin, Get, Version, OpsSince, StreamOpsSince and
//     WasCommitted of a URN with staged records Sync first (read-your-
//     writes for the stager; no other reader sees a losable record).
//     List, ListAll, Snapshot and Len show published state only.
//   - Per-object commit slots: concurrent committers of one object
//     serialize (version checks stay correct), while committers of
//     different objects proceed concurrently and coalesce onto one fsync.
//   - Compaction gate: the compactor excludes new mutations, drains
//     in-flight committers, syncs and publishes staged records, rewrites
//     every live object (plus its history window) into a fresh file, and
//     replaces the segment with it in place (fsync, rename, directory
//     fsync, handle swap) — readers are excluded only during the rewrite
//     itself. Close and LoadSnapshot drain staged records the same way
//     before they write a footer or rewrite.
//
// The conflict repair queue is memory-only, as on the in-memory backend:
// conflicts are an operator-facing inbox, not committed object state.
// A failed segment fsync poisons the segment permanently: every later
// mutation fails with stable.ErrPoisoned, while reads keep working. A
// failed Sync is sticky the same way: its staged records are dropped,
// never published.
type Store struct {
	mu   sync.RWMutex
	cond *sync.Cond // begin/compaction gate waiters

	path string
	opts Options
	seg  *stable.SegmentFile

	idx        map[urn.URN]idxEnt
	hist       *store.History
	lru        *lruCache
	committing map[urn.URN]struct{}
	compacting bool
	closed     bool

	repairs []store.Conflict
	onApply func(store.ApplyEvent)

	// Staged records: appended to the current segment, not yet known
	// durable, in append order. stagedN counts them per URN (force on
	// touch); stageSeq numbers them so a Sync publishes exactly the records
	// its commit covered. syncErr is a failed Sync's sticky error.
	pending  []pendingRec
	stagedN  map[urn.URN]int
	stageSeq uint64
	syncErr  error

	mutsSinceCompact int
	liveBytes        int64
	compactions      int64
	coldFaults       atomic.Int64
	rewrites         uint64 // segment replaces; each moves every offset

	// Footer bookkeeping. segFooterBytes is the weight of 'X' records in
	// the current segment (excluded from the compaction dead-weight test —
	// a footer is overhead, not reclaimable garbage in the 2× sense).
	// cleanFooter means the on-disk sidecar+footer describe the segment
	// exactly through its end, so Close need not write another.
	segFooterBytes    int64
	cleanFooter       bool
	recoveredByFooter bool
}

// pendingRec is one staged record awaiting the Sync that publishes it.
type pendingRec struct {
	seq       uint64
	u         urn.URN
	off, rlen int64
	publish   func(off, rlen int64)
}

var (
	_ store.Backend = (*Store)(nil)
	_ store.Stager  = (*Store)(nil)
)

// Open opens (or creates) the store under opts.Dir, replaying the segment
// to rebuild the index and the per-object history windows. A torn trailing
// record — a crash mid-commit — is truncated away (TornTail reports it);
// compaction leftovers from a crash mid-rewrite are removed.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("disk: Options.Dir is required")
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = DefaultCacheBytes
	}
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = DefaultCompactEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o700); err != nil {
		return nil, fmt.Errorf("disk: %w", err)
	}
	s := &Store{
		path:       filepath.Join(opts.Dir, SegmentName),
		opts:       opts,
		idx:        make(map[urn.URN]idxEnt),
		hist:       store.NewHistory(),
		lru:        newLRU(opts.CacheBytes),
		committing: make(map[urn.URN]struct{}),
		stagedN:    make(map[urn.URN]int),
	}
	s.cond = sync.NewCond(&s.mu)
	// Fast path: a valid sidecar points at an index footer near the
	// segment's end — rebuild from it and scan only the tail.
	if s.openFromFooter() {
		return s, nil
	}
	var scanned int
	seg, err := stable.OpenSegmentFile(s.path, stable.Options{Compress: opts.Compress},
		func(off int64, rec []byte) error {
			scanned++
			if len(rec) > 0 && rec[0] == recFooter {
				// A footer run whose sidecar is gone or stale: index data we
				// cannot trust, carried as overhead until the next rewrite.
				s.segFooterBytes += int64(len(rec)) + 16
				return nil
			}
			return s.applyScan(off, rec)
		})
	if err != nil {
		return nil, err
	}
	s.seg = seg
	// Inherit the segment's dead weight as compaction pressure: without
	// this, a server that crashes and reboots more often than CompactEvery
	// mutations apart would reset the counter every boot and never compact,
	// no matter how dead its segment grew. (The rewrite itself still waits
	// for the next mutation — a read-only reopen never rewrites.)
	if dead := scanned - len(s.idx); dead > 0 {
		s.mutsSinceCompact = dead
	}
	return s, nil
}

// RecoveredByFooter reports whether this Open took the footer fast path
// instead of the full streaming scan (observability for tests and bench).
func (s *Store) RecoveredByFooter() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recoveredByFooter
}

// applyScan replays one segment record into the index and history during
// Open — the same transitions the publish paths make, minus the cache.
func (s *Store) applyScan(off int64, p []byte) error {
	if len(p) > 0 && p[0] == recFooter {
		return nil // index footer chunk: recovery metadata, not object state
	}
	rec, err := decodeRecord(p)
	if err != nil {
		return fmt.Errorf("disk: segment offset %d: %w", off, err)
	}
	rlen := int64(len(p)) + 16 // approximate framing; exact enough for the 2× heuristic
	switch rec.kind {
	case recState:
		typ, terr := objType(rec.obj)
		if terr != nil {
			return fmt.Errorf("disk: segment offset %d: %w", off, terr)
		}
		s.setIdxLocked(rec.urn, idxEnt{ver: rec.ver, off: off, rlen: rlen, typ: typ, kind: recState})
		s.hist.Clear(rec.urn)
	case recOps:
		typ, terr := objType(rec.obj)
		if terr != nil {
			return fmt.Errorf("disk: segment offset %d: %w", off, terr)
		}
		s.setIdxLocked(rec.urn, idxEnt{ver: rec.ver, off: off, rlen: rlen, typ: typ, kind: recOps})
		if !s.hist.Record(rec.urn, rec.ver, rec.invs, rec.src) {
			s.hist.Clear(rec.urn)
		}
	case recDelete:
		if old, ok := s.idx[rec.urn]; ok {
			s.liveBytes -= old.rlen
			delete(s.idx, rec.urn)
		}
		s.hist.Clear(rec.urn)
	case recSnap:
		typ, terr := objType(rec.obj)
		if terr != nil {
			return fmt.Errorf("disk: segment offset %d: %w", off, terr)
		}
		s.setIdxLocked(rec.urn, idxEnt{ver: rec.ver, off: off, rlen: rlen, typ: typ, kind: recSnap})
		s.hist.Clear(rec.urn)
		s.hist.Restore(rec.urn, rec.hist)
	}
	return nil
}

func (s *Store) setIdxLocked(u urn.URN, ent idxEnt) {
	if old, ok := s.idx[u]; ok {
		s.liveBytes -= old.rlen
	}
	s.idx[u] = ent
	s.liveBytes += ent.rlen
}

func (s *Store) notifyLocked(ev store.ApplyEvent) {
	if s.onApply != nil {
		s.onApply(ev)
	}
}

// begin acquires u's commit slot — syncing u's staged records, waiting out
// a concurrent committer of the same object and any compaction gate — and
// returns u's current index entry. The caller must end with stage or
// release.
func (s *Store) begin(u urn.URN) (idxEnt, bool, error) {
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return idxEnt{}, false, ErrClosed
		}
		if s.stagedN[u] > 0 {
			s.mu.Unlock()
			if err := s.Sync(); err != nil {
				return idxEnt{}, false, err
			}
			s.mu.Lock()
			continue
		}
		_, busy := s.committing[u]
		if !s.compacting && !busy {
			break
		}
		s.cond.Wait()
	}
	s.committing[u] = struct{}{}
	ent, ok := s.idx[u]
	s.mu.Unlock()
	return ent, ok, nil
}

func (s *Store) release(u urn.URN) {
	s.mu.Lock()
	delete(s.committing, u)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// stage appends rec without waiting for durability, queues publish for the
// Sync that makes the record durable, and releases u's slot. publish runs
// under the store lock only once the record is durable, with its offset
// and on-disk length. A durable stage Syncs before returning.
func (s *Store) stage(u urn.URN, rec []byte, publish func(off, rlen int64), durable bool) error {
	s.mu.Lock()
	err := s.syncErr
	if err == nil {
		var off int64
		if off, err = s.seg.AppendNoSync(rec); err == nil {
			s.stageSeq++
			s.pending = append(s.pending, pendingRec{seq: s.stageSeq, u: u, off: off, rlen: s.seg.Size() - off, publish: publish})
			s.stagedN[u]++
		}
	}
	delete(s.committing, u)
	s.cond.Broadcast()
	s.mu.Unlock()
	if err != nil || !durable {
		return err
	}
	return s.Sync()
}

// Sync implements store.Stager: it makes every record staged so far durable
// with one segment commit (joining any commit in flight) and publishes them
// in append order — index, LRU, history, observer. With nothing staged it
// costs nothing. A failed Sync is sticky: every staged record is dropped,
// never published, and every later Sync and mutation returns the error. A
// commit that fails with stable.ErrClosed because Close retired the
// segment meanwhile is not a failure: Close drained and published those
// records first.
func (s *Store) Sync() error {
	s.mu.Lock()
	if s.syncErr != nil || len(s.pending) == 0 {
		err := s.syncErr
		s.mu.Unlock()
		return err
	}
	seg, target := s.seg, s.stageSeq
	s.mu.Unlock()
	return s.finishSync(target, seg.Commit())
}

// finishSync publishes the records numbered up to target once the segment
// commit that covers them returned err.
func (s *Store) finishSync(target uint64, err error) error {
	s.mu.Lock()
	if errors.Is(err, stable.ErrClosed) && (len(s.pending) == 0 || s.pending[0].seq > target) {
		err = nil
	}
	compact := false
	switch {
	case err != nil:
		s.failLocked(err)
	case s.syncErr != nil:
		err = s.syncErr // another Sync failed and dropped the records
	default:
		compact = s.publishLocked(target)
	}
	s.mu.Unlock()
	if compact {
		s.maybeCompact()
	}
	return err
}

// publishLocked publishes the staged records numbered up to target, which a
// segment commit has made durable, and reports whether compaction is due.
func (s *Store) publishLocked(target uint64) bool {
	n := 0
	for ; n < len(s.pending) && s.pending[n].seq <= target; n++ {
		p := &s.pending[n]
		p.publish(p.off, p.rlen)
		if s.stagedN[p.u]--; s.stagedN[p.u] == 0 {
			delete(s.stagedN, p.u)
		}
	}
	if n == 0 {
		return false
	}
	rest := copy(s.pending, s.pending[n:])
	clear(s.pending[rest:])
	s.pending = s.pending[:rest]
	s.mutsSinceCompact += n
	s.cleanFooter = false
	return s.mutsSinceCompact >= s.opts.CompactEvery
}

// failLocked records a failed Sync and drops every staged record.
func (s *Store) failLocked(err error) {
	if s.syncErr == nil {
		s.syncErr = err
	}
	clear(s.pending)
	s.pending = s.pending[:0]
	clear(s.stagedN)
}

// drainLocked syncs and publishes every staged record before the caller
// rewrites the segment or writes its index footer: a footer that omitted a
// staged record would let the next footer-path Open drop it. Called with
// mu held and no committer in flight.
func (s *Store) drainLocked() error {
	if s.syncErr != nil || len(s.pending) == 0 {
		return s.syncErr
	}
	if err := s.seg.Commit(); err != nil {
		s.failLocked(err)
		return err
	}
	s.publishLocked(s.stageSeq)
	return nil
}

// rlockTouched takes the read lock with u's staged records published (force
// on touch). On success the caller holds the read lock.
func (s *Store) rlockTouched(u urn.URN) error {
	for {
		s.mu.RLock()
		if s.stagedN[u] == 0 {
			return nil
		}
		s.mu.RUnlock()
		if err := s.Sync(); err != nil {
			return err
		}
	}
}

// Staged implements store.Stager: a view of the store whose mutations
// append their record and return without waiting for durability. Nothing a
// staged mutation does is visible — to readers, List, Snapshot or the
// observer — until a Sync publishes it; a touch of the URN forces that Sync.
// Reads and every other method are the store's own.
func (s *Store) Staged() store.Backend { return stagedView{s} }

// stagedView is the Staged backend: the store with non-durable mutations.
type stagedView struct{ *Store }

func (v stagedView) Create(obj *rdo.Object) error { return v.create(obj, false) }
func (v stagedView) Commit(obj *rdo.Object, expect uint64) (uint64, error) {
	return v.commit(obj, expect, false)
}
func (v stagedView) CommitOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation) (uint64, error) {
	return v.commitOps(obj, expect, invs, "", true, false)
}
func (v stagedView) CommitOpsBy(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error) {
	return v.commitOps(obj, expect, invs, src, true, false)
}
func (v stagedView) Delete(u urn.URN) error { return v.delete(u, false) }
func (v stagedView) InstallOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error) {
	return v.commitOps(obj, expect, invs, src, false, false)
}
func (v stagedView) InstallState(obj *rdo.Object) (uint64, error) {
	return v.installState(obj, false)
}
func (v stagedView) InstallDelete(u urn.URN) { v.installDelete(u, false) }

// Create implements store.Backend.
func (s *Store) Create(obj *rdo.Object) error { return s.create(obj, true) }

func (s *Store) create(obj *rdo.Object, durable bool) error {
	cp := obj.Clone()
	cp.Version = 1
	_, ok, err := s.begin(cp.URN)
	if err != nil {
		return err
	}
	if ok {
		s.release(cp.URN)
		return fmt.Errorf("%w: %s", store.ErrExists, cp.URN)
	}
	objBytes := cp.Encode()
	return s.stage(cp.URN, encodeState(cp.URN, 1, objBytes), func(off, rlen int64) {
		s.setIdxLocked(cp.URN, idxEnt{ver: 1, off: off, rlen: rlen, typ: cp.Type, kind: recState})
		s.hist.Clear(cp.URN) // a re-created URN starts with no past
		s.lru.put(cp)
		s.notifyLocked(store.ApplyEvent{Kind: store.ApplyState, URN: cp.URN, Version: 1, Object: objBytes})
	}, durable)
}

// Commit implements store.Backend (see Store.Commit in the parent package
// for the optimistic-concurrency contract; a plain Commit is an opaque jump
// and clears the object's history).
func (s *Store) Commit(obj *rdo.Object, expect uint64) (uint64, error) {
	return s.commit(obj, expect, true)
}

func (s *Store) commit(obj *rdo.Object, expect uint64, durable bool) (uint64, error) {
	ent, ok, err := s.begin(obj.URN)
	if err != nil {
		return 0, err
	}
	if !ok {
		s.release(obj.URN)
		return 0, fmt.Errorf("%w: %s", store.ErrNotFound, obj.URN)
	}
	if ent.ver != expect {
		s.release(obj.URN)
		return 0, fmt.Errorf("store: commit race on %s: store at %d, caller read %d",
			obj.URN, ent.ver, expect)
	}
	cp := obj.Clone()
	cp.Version = expect + 1
	objBytes := cp.Encode()
	err = s.stage(cp.URN, encodeState(cp.URN, cp.Version, objBytes), func(off, rlen int64) {
		s.setIdxLocked(cp.URN, idxEnt{ver: cp.Version, off: off, rlen: rlen, typ: cp.Type, kind: recState})
		s.hist.Clear(cp.URN)
		s.lru.put(cp)
		s.notifyLocked(store.ApplyEvent{Kind: store.ApplyState, URN: cp.URN,
			PrevVersion: expect, Version: cp.Version, Object: objBytes})
	}, durable)
	if err != nil {
		return 0, err
	}
	return cp.Version, nil
}

// CommitOps implements store.Backend.
func (s *Store) CommitOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation) (uint64, error) {
	return s.commitOps(obj, expect, invs, "", true, true)
}

// CommitOpsBy implements store.Backend.
func (s *Store) CommitOpsBy(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error) {
	return s.commitOps(obj, expect, invs, src, true, true)
}

// InstallOps implements store.Backend: CommitOpsBy without the observer
// echo (see the in-memory Store.InstallOps).
func (s *Store) InstallOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error) {
	return s.commitOps(obj, expect, invs, src, false, true)
}

func (s *Store) commitOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string, notify, durable bool) (uint64, error) {
	ent, ok, err := s.begin(obj.URN)
	if err != nil {
		return 0, err
	}
	if !ok {
		s.release(obj.URN)
		return 0, fmt.Errorf("%w: %s", store.ErrNotFound, obj.URN)
	}
	if ent.ver != expect {
		s.release(obj.URN)
		return 0, fmt.Errorf("store: commit race on %s: store at %d, caller read %d",
			obj.URN, ent.ver, expect)
	}
	cp := obj.Clone()
	cp.Version = expect + 1
	objBytes := cp.Encode()
	cpInvs := make([]rdo.Invocation, len(invs))
	copy(cpInvs, invs)
	var rec []byte
	recKind := recState
	if len(cpInvs) > 0 {
		// The chain link points at the object's previous record (ent.off),
		// letting recovery and far-behind catch-up walk versions backwards.
		rec = encodeOps(cp.URN, expect, cp.Version, src, cpInvs, objBytes, ent.off)
		recKind = recOps
	} else {
		rec = encodeState(cp.URN, cp.Version, objBytes)
	}
	err = s.stage(cp.URN, rec, func(off, rlen int64) {
		s.setIdxLocked(cp.URN, idxEnt{ver: cp.Version, off: off, rlen: rlen, typ: cp.Type, kind: recKind})
		s.lru.put(cp)
		if s.hist.Record(cp.URN, cp.Version, cpInvs, src) {
			if notify {
				s.notifyLocked(store.ApplyEvent{Kind: store.ApplyOps, URN: cp.URN,
					PrevVersion: expect, Version: cp.Version, Invs: cpInvs, Src: src, Object: objBytes})
			}
		} else {
			// History disabled or a no-op commit: an opaque jump.
			s.hist.Clear(cp.URN)
			if notify {
				s.notifyLocked(store.ApplyEvent{Kind: store.ApplyState, URN: cp.URN,
					PrevVersion: expect, Version: cp.Version, Object: objBytes})
			}
		}
	}, durable)
	if err != nil {
		return 0, err
	}
	return cp.Version, nil
}

// Delete implements store.Backend.
func (s *Store) Delete(u urn.URN) error { return s.delete(u, true) }

func (s *Store) delete(u urn.URN, durable bool) error {
	ent, ok, err := s.begin(u)
	if err != nil {
		return err
	}
	if !ok {
		s.release(u)
		return fmt.Errorf("%w: %s", store.ErrNotFound, u)
	}
	return s.stage(u, encodeDelete(u), func(off, rlen int64) {
		s.dropIdxLocked(u)
		s.notifyLocked(store.ApplyEvent{Kind: store.ApplyDelete, URN: u, PrevVersion: ent.ver})
	}, durable)
}

// dropIdxLocked unpublishes a deleted object: index, history and cache.
func (s *Store) dropIdxLocked(u urn.URN) {
	if old, ok := s.idx[u]; ok {
		s.liveBytes -= old.rlen
		delete(s.idx, u)
	}
	s.hist.Clear(u)
	s.lru.drop(u)
}

// InstallState implements store.Backend: whole-object install without an
// expect check, refusing version regression, observer-silent.
func (s *Store) InstallState(obj *rdo.Object) (uint64, error) {
	return s.installState(obj, true)
}

func (s *Store) installState(obj *rdo.Object, durable bool) (uint64, error) {
	ent, ok, err := s.begin(obj.URN)
	if err != nil {
		return 0, err
	}
	if ok && obj.Version < ent.ver {
		s.release(obj.URN)
		return 0, fmt.Errorf("store: install %s at %d would regress from %d",
			obj.URN, obj.Version, ent.ver)
	}
	cp := obj.Clone()
	objBytes := cp.Encode()
	err = s.stage(cp.URN, encodeState(cp.URN, cp.Version, objBytes), func(off, rlen int64) {
		s.setIdxLocked(cp.URN, idxEnt{ver: cp.Version, off: off, rlen: rlen, typ: cp.Type, kind: recState})
		s.hist.Clear(cp.URN)
		s.lru.put(cp)
	}, durable)
	if err != nil {
		return 0, err
	}
	return cp.Version, nil
}

// InstallDelete implements store.Backend: idempotent, observer-silent. The
// interface carries no error; a segment failure here surfaces as poisoning
// on the next mutation.
func (s *Store) InstallDelete(u urn.URN) { s.installDelete(u, true) }

func (s *Store) installDelete(u urn.URN, durable bool) {
	_, ok, err := s.begin(u)
	if err != nil {
		return
	}
	if !ok {
		s.release(u)
		return
	}
	s.stage(u, encodeDelete(u), func(off, rlen int64) { s.dropIdxLocked(u) }, durable)
}

// Get implements store.Backend: a cache hit clones the resident object; a
// miss faults the object in with a pread of its latest segment record,
// admits it to the LRU, and counts a cold fault. The pread runs under the
// read lock so compaction cannot swap the segment mid-read.
func (s *Store) Get(u urn.URN) (*rdo.Object, error) {
	if err := s.rlockTouched(u); err != nil {
		return nil, err
	}
	ent, ok := s.idx[u]
	if !ok {
		s.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s", store.ErrNotFound, u)
	}
	if obj := s.lru.get(u, ent.ver); obj != nil {
		s.mu.RUnlock()
		return obj, nil
	}
	rec, err := readRecordAt(s.seg, ent.off)
	s.mu.RUnlock()
	if err != nil {
		return nil, fmt.Errorf("disk: fault-in %s: %w", u, err)
	}
	obj, err := rdo.Decode(rec.obj)
	if err != nil {
		return nil, fmt.Errorf("disk: fault-in %s: %w", u, err)
	}
	s.coldFaults.Add(1)
	s.lru.put(obj)
	return obj.Clone(), nil
}

// Version implements store.Backend — index-only, never touches disk.
func (s *Store) Version(u urn.URN) (uint64, error) {
	if err := s.rlockTouched(u); err != nil {
		return 0, err
	}
	defer s.mu.RUnlock()
	ent, ok := s.idx[u]
	if !ok {
		return 0, fmt.Errorf("%w: %s", store.ErrNotFound, u)
	}
	return ent.ver, nil
}

// OpsSince implements store.Backend (see Store.OpsSince in the parent
// package for the contiguity contract). History windows are rebuilt from
// the segment at Open and persisted through compaction, so deltas keep
// working across restarts.
func (s *Store) OpsSince(u urn.URN, from uint64) ([]rdo.Invocation, uint64, bool) {
	if s.rlockTouched(u) != nil {
		return nil, 0, false
	}
	defer s.mu.RUnlock()
	ent, ok := s.idx[u]
	if !ok {
		return nil, 0, false
	}
	return s.hist.OpsSince(u, from, ent.ver)
}

// maxStreamChain bounds StreamOpsSince's backward walk. Past ~64k versions
// the offset list itself is still tiny, but the replica is so far behind
// that shipping the object's state is almost certainly cheaper than
// replaying the delta.
const maxStreamChain = 1 << 16

// StreamOpsSince implements store.OpsReader: it streams the ops records
// that advance u from version `from` up to the version current at the call,
// oldest first, reading them straight from the segment via each record's
// chain link — the far-behind catch-up path that keeps working long after
// the in-memory history window pruned those versions.
//
// ok=false with a nil error means the delta cannot be served — the object
// reached its version through an opaque jump, a rewrite (compaction or
// LoadSnapshot) moved the chain's offsets mid-walk, or the span is
// unreasonable — and the caller should fall back to full-state transfer.
// An error from fn aborts the stream and is returned as (false, err).
//
// Memory stays bounded regardless of how far behind `from` is: the backward
// pass retains only one offset per version, and the forward pass re-reads
// one record at a time.
func (s *Store) StreamOpsSince(u urn.URN, from uint64, fn func(ver uint64, invs []rdo.Invocation, src string, obj []byte) error) (bool, error) {
	if err := s.rlockTouched(u); err != nil {
		return false, err
	}
	ent, ok := s.idx[u]
	gen := s.rewrites
	s.mu.RUnlock()
	if !ok || from >= ent.ver || ent.ver-from > maxStreamChain || ent.kind != recOps {
		return false, nil
	}
	// Each read holds the read lock just for its pread, and fails once a
	// rewrite has replaced the segment in place: the walk's offsets would
	// then point into the new file.
	read := func(off int64) (record, bool) {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.rewrites != gen {
			return record{}, false
		}
		rec, err := readRecordAt(s.seg, off)
		return rec, err == nil
	}
	// Backward pass: collect each version's record offset via the chain.
	offs := make([]int64, 0, ent.ver-from)
	off, want := ent.off, ent.ver
	for want > from {
		rec, ok := read(off)
		if !ok || rec.kind != recOps || rec.urn != u || rec.ver != want {
			return false, nil
		}
		offs = append(offs, off)
		want--
		if want == from {
			break
		}
		if rec.prevOff < 0 {
			return false, nil
		}
		off = rec.prevOff
	}
	// Forward pass: replay oldest-first, handing each record to fn.
	for i := len(offs) - 1; i >= 0; i-- {
		rec, ok := read(offs[i])
		if !ok || rec.kind != recOps {
			return false, nil
		}
		if ferr := fn(rec.ver, rec.invs, rec.src, rec.obj); ferr != nil {
			return false, ferr
		}
	}
	return true, nil
}

// SetCacheBytes implements store.CacheTuner: it retunes the hot-object LRU
// budget online, evicting immediately on shrink. The facade's autotuner is
// the intended caller.
func (s *Store) SetCacheBytes(n int64) { s.lru.setMax(n) }

// CacheBytes implements store.CacheTuner.
func (s *Store) CacheBytes() int64 { return s.lru.maxBytes() }

// WasCommitted implements store.Backend. Because history survives restart,
// redelivery detection holds even when the store's fsync won the race
// against the session journal's before a crash.
func (s *Store) WasCommitted(u urn.URN, base uint64, invs []rdo.Invocation, src string) bool {
	if s.rlockTouched(u) != nil {
		return false
	}
	defer s.mu.RUnlock()
	return s.hist.WasCommitted(u, base, invs, src)
}

// SetHistoryLimit implements store.Backend.
func (s *Store) SetHistoryLimit(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hist.SetLimit(n)
}

// SetOnApply implements store.Backend.
func (s *Store) SetOnApply(fn func(store.ApplyEvent)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onApply = fn
}

// List implements store.Backend — index-only.
func (s *Store) List(prefix urn.URN) []store.Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []store.Entry
	for u, ent := range s.idx {
		if u.HasPrefix(prefix) {
			out = append(out, store.Entry{URN: u, Version: ent.ver, Type: ent.typ})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URN.Less(out[j].URN) })
	return out
}

// ListAll implements store.Backend — index-only.
func (s *Store) ListAll() []store.Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]store.Entry, 0, len(s.idx))
	for u, ent := range s.idx {
		out = append(out, store.Entry{URN: u, Version: ent.ver, Type: ent.typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URN.Less(out[j].URN) })
	return out
}

// Len implements store.Backend.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.idx)
}

// AddConflict implements store.Backend (memory-only, like the in-memory
// backend — the repair queue is an operator inbox, not object state).
func (s *Store) AddConflict(c store.Conflict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.repairs = append(s.repairs, c)
}

// Conflicts implements store.Backend.
func (s *Store) Conflicts() []store.Conflict {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]store.Conflict, len(s.repairs))
	copy(out, s.repairs)
	return out
}

// ClearConflicts implements store.Backend.
func (s *Store) ClearConflicts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.repairs)
	s.repairs = nil
	return n
}

// Snapshot implements store.Backend: the same canonical URN-sorted
// encoding as the in-memory backend (byte-identical for identical
// committed state), taken as an atomic cut under the read lock. Cold
// objects are read back from the segment, so this walks the disk —
// convergence checks and state transfer, not a hot path. An object whose
// record cannot be read back (closed store, disk fault) is omitted.
func (s *Store) Snapshot() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	urns := make([]urn.URN, 0, len(s.idx))
	for u := range s.idx {
		urns = append(urns, u)
	}
	sort.Slice(urns, func(i, j int) bool { return urns[i].Less(urns[j]) })
	blobs := make([][]byte, 0, len(urns))
	for _, u := range urns {
		objBytes, err := s.objBytesLocked(u, s.idx[u])
		if err != nil {
			continue
		}
		blobs = append(blobs, objBytes)
	}
	var b wire.Buffer
	b.PutUvarint(uint64(len(blobs)))
	for _, blob := range blobs {
		b.PutBytes(blob)
	}
	return b.Bytes()
}

// objBytesLocked returns u's current wire encoding: from the cache when
// hot (without promoting), else a pread of its latest segment record.
// Callers hold mu in either mode.
func (s *Store) objBytesLocked(u urn.URN, ent idxEnt) ([]byte, error) {
	if obj := s.lru.peek(u); obj != nil && obj.Version == ent.ver {
		return obj.Encode(), nil
	}
	rec, err := readRecordAt(s.seg, ent.off)
	if err != nil {
		return nil, err
	}
	if rec.ver != ent.ver {
		return nil, fmt.Errorf("disk: index/segment version skew on %s: %d vs %d", u, ent.ver, rec.ver)
	}
	return rec.obj, nil
}

// LoadSnapshot implements store.Backend: it atomically replaces the whole
// population AND makes it durable, by rewriting the segment wholesale (the
// compaction machinery) before the swap. History is cleared — snapshot
// versions are opaque jumps.
func (s *Store) LoadSnapshot(data []byte) error {
	objs, err := store.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	urns := make([]urn.URN, 0, len(objs))
	for u := range objs {
		urns = append(urns, u)
	}
	sort.Slice(urns, func(i, j int) bool { return urns[i].Less(urns[j]) })
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return ErrClosed
		}
		if !s.compacting {
			break
		}
		s.cond.Wait()
	}
	err = s.rewriteLocked(func(tmp *stable.SegmentFile, add func(urn.URN, idxEnt)) error {
		for _, u := range urns {
			obj := objs[u]
			objBytes := obj.Encode()
			off, aerr := tmp.AppendNoSync(encodeState(u, obj.Version, objBytes))
			if aerr != nil {
				return aerr
			}
			add(u, idxEnt{ver: obj.Version, off: off, rlen: tmp.Size() - off, typ: obj.Type, kind: recState})
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.hist.ClearAll()
	s.lru.reset()
	return nil
}

// maybeCompact rewrites the segment when enough mutations have landed AND
// the file holds more than twice its live data — the gate excludes new
// mutators, drains in-flight committers, and swaps atomically via rename.
func (s *Store) maybeCompact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.compacting || s.mutsSinceCompact < s.opts.CompactEvery {
		return
	}
	if s.seg.Size() < 2*(s.liveBytes+s.segFooterBytes+1) {
		// Mostly live (e.g. a pure-insert load): rewriting would reclaim
		// nothing. Rearm the counter. Footer chunks count with the live
		// side — a rewrite would write a footer of the same size again.
		s.mutsSinceCompact = 0
		return
	}
	err := s.rewriteLocked(func(tmp *stable.SegmentFile, add func(urn.URN, idxEnt)) error {
		urns := make([]urn.URN, 0, len(s.idx))
		for u := range s.idx {
			urns = append(urns, u)
		}
		sort.Slice(urns, func(i, j int) bool { return urns[i].Less(urns[j]) })
		for _, u := range urns {
			ent := s.idx[u]
			objBytes, oerr := s.objBytesLocked(u, ent)
			if oerr != nil {
				return oerr
			}
			var rec []byte
			recKind := recState
			if w := s.hist.Window(u); len(w) > 0 {
				rec = encodeSnap(u, ent.ver, objBytes, w)
				recKind = recSnap
			} else {
				rec = encodeState(u, ent.ver, objBytes)
			}
			off, aerr := tmp.AppendNoSync(rec)
			if aerr != nil {
				return aerr
			}
			add(u, idxEnt{ver: ent.ver, off: off, rlen: tmp.Size() - off, typ: ent.typ, kind: recKind})
		}
		return nil
	})
	if err == nil {
		s.compactions++
	}
}

// rewriteLocked raises the compaction gate, waits out in-flight committers
// and drains staged records, then rewrites the segment in place through the
// segment's durable replace — write fills the fresh file, an index footer
// follows — and swaps in the index it built. Called with mu held and the
// gate down. On error the old segment and index stay live.
func (s *Store) rewriteLocked(write func(tmp *stable.SegmentFile, add func(urn.URN, idxEnt)) error) error {
	s.compacting = true
	defer func() {
		s.compacting = false
		s.cond.Broadcast()
	}()
	for len(s.committing) > 0 {
		s.cond.Wait()
	}
	if err := s.drainLocked(); err != nil {
		return err
	}
	newIdx := make(map[urn.URN]idxEnt, len(s.idx))
	var live int64
	add := func(u urn.URN, ent idxEnt) {
		newIdx[u] = ent
		live += ent.rlen
	}
	var foot footerInfo
	err := s.seg.Replace(func(tmp *stable.SegmentFile) error {
		if err := write(tmp, add); err != nil {
			return err
		}
		var err error
		foot, err = appendFooter(tmp, newIdx)
		return err
	})
	if err != nil {
		return err
	}
	s.rewrites++
	s.idx = newIdx
	s.liveBytes = live
	s.segFooterBytes = s.seg.Size() - foot.off
	s.mutsSinceCompact = 0
	// Point the sidecar at the fresh footer; a failed write just means the
	// next Open scans (writeSidecar already removed the stale pointer).
	s.cleanFooter = s.writeSidecar(foot)
	return nil
}

// Occupancy implements store.Backend.
func (s *Store) Occupancy() store.Occupancy {
	s.mu.RLock()
	objects := len(s.idx)
	segBytes := s.seg.Size()
	compactions := s.compactions
	s.mu.RUnlock()
	residentObjs, residentBytes, hits := s.lru.stats()
	return store.Occupancy{
		Objects:         objects,
		ResidentObjects: residentObjs,
		ResidentBytes:   residentBytes,
		CacheHits:       hits,
		ColdFaults:      s.coldFaults.Load(),
		Compactions:     compactions,
		SegmentBytes:    segBytes,
	}
}

// SegmentStats returns the store's stable-log counters (appends, syncs,
// bytes) — fsync-economics accounting for stats lines and benchmarks. They
// are cumulative over the store's lifetime: compaction and LoadSnapshot
// rewrite the segment in place, and the rewrites' own writes and fsyncs
// count too.
func (s *Store) SegmentStats() stable.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seg.Stats()
}

// TornTail reports the torn trailing record recovery truncated at Open
// (a *stable.TornTailError), or nil if the segment ended cleanly.
func (s *Store) TornTail() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seg.TornTail()
}

// Poisoned reports the segment's sticky fsync failure, or nil.
func (s *Store) Poisoned() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seg.Poisoned()
}

// Close implements store.Backend: refuses new mutations, drains in-flight
// committers, syncs and publishes staged records, and closes the segment
// (whose Close performs a final safety sync). Reads fail afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.compacting {
		s.cond.Wait()
	}
	if s.closed {
		return nil
	}
	s.closed = true
	for len(s.committing) > 0 {
		s.cond.Wait()
	}
	drainErr := s.drainLocked()
	// Leave a fresh index footer behind so the next Open skips the scan.
	// The chunks ride the final safety sync inside seg.Close; the sidecar
	// is only written once that sync succeeded, so it never points at
	// records that might not be durable.
	wroteFooter := false
	var foot footerInfo
	if !s.cleanFooter && drainErr == nil && s.seg.Poisoned() == nil {
		if f, ferr := appendFooter(s.seg, s.idx); ferr == nil {
			foot, wroteFooter = f, true
		}
	}
	err := s.seg.Close()
	if wroteFooter && err == nil {
		s.writeSidecar(foot)
	}
	if err == nil {
		err = drainErr
	}
	s.cond.Broadcast()
	return err
}
