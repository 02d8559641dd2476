package store

import (
	"rover/internal/rdo"
	"rover/internal/urn"
)

// Backend is the object-store surface the rest of the toolkit programs
// against: the QRPC server's handlers, the replication layer, the HTTP
// gateway, and the facade all take a Backend, so the in-memory map and the
// disk-backed segment store are interchangeable.
//
// Semantics every implementation must provide (the conformance suite in
// backend_conformance_test.go enforces them):
//
//   - Returned objects are clones; callers mutate freely.
//   - Versions start at 1 (Create) and advance by exactly one per commit.
//   - Commit/CommitOps check the caller's expected version and fail on a
//     race; InstallState replaces without an expect check but refuses to
//     regress a version.
//   - Only ops commits record history; plain Commits, installs, deletes,
//     re-creates, and snapshot loads clear the object's window, so OpsSince
//     never serves a delta spanning an opaque jump.
//   - The SetOnApply observer sees every locally committed mutation in
//     per-object version order and none from the Install* family.
//   - Snapshot is an atomic, canonical (URN-sorted, byte-deterministic)
//     cut; LoadSnapshot atomically replaces the population.
type Backend interface {
	// Mutations.
	Create(obj *rdo.Object) error
	Commit(obj *rdo.Object, expect uint64) (uint64, error)
	CommitOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation) (uint64, error)
	CommitOpsBy(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error)
	Delete(u urn.URN) error

	// Replica-peer installs: same state transitions, no observer echo.
	InstallOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error)
	InstallState(obj *rdo.Object) (uint64, error)
	InstallDelete(u urn.URN)

	// Reads.
	Get(u urn.URN) (*rdo.Object, error)
	Version(u urn.URN) (uint64, error)
	List(prefix urn.URN) []Entry
	ListAll() []Entry
	Len() int

	// History: delta imports and redelivery detection.
	OpsSince(u urn.URN, from uint64) ([]rdo.Invocation, uint64, bool)
	WasCommitted(u urn.URN, base uint64, invs []rdo.Invocation, src string) bool
	SetHistoryLimit(n int)

	// Conflict repair queue.
	AddConflict(c Conflict)
	Conflicts() []Conflict
	ClearConflicts() int

	// Whole-store state transfer.
	Snapshot() []byte
	LoadSnapshot(data []byte) error

	// Replication observer.
	SetOnApply(fn func(ApplyEvent))

	// Occupancy reports population and cache-residency counters for the
	// stats surface.
	Occupancy() Occupancy

	// Close releases backend resources (files, caches). The in-memory
	// backend's Close is a no-op; the disk backend flushes and closes its
	// segment. Mutations after Close fail.
	Close() error
}

// OpsReader is an optional Backend extension for segment-backed stores: it
// streams the ops that advance an object from version `from` to the version
// current at the call, oldest first, straight from durable storage — so a
// caller can assemble a delta far longer than the in-memory history window.
// Each fn call carries one version step: its invocations, source tag, and
// the object's full encoding at that version (callers use the last one as a
// convergence check).
//
// ok=false with err=nil means the delta cannot be served (opaque jump in
// the object's past, storage rewritten mid-stream, span too large) and the
// caller must fall back to full-state transfer; an error from fn aborts the
// stream and is returned. The replication layer type-asserts this interface
// for far-behind replica catch-up.
type OpsReader interface {
	StreamOpsSince(u urn.URN, from uint64, fn func(ver uint64, invs []rdo.Invocation, src string, obj []byte) error) (bool, error)
}

// Stager is an optional Backend extension for stores whose commits pay an
// fsync: it lets a caller stage a batch of mutations and pay one durability
// wait for all of them. Mutations through the Staged view write their
// record and return without waiting; none of them is visible — to readers,
// listings, snapshots or the SetOnApply observer — until a Sync makes it
// durable and publishes it. A read that touches an object with staged
// mutations Syncs first, so the stager reads its own writes and no reader
// ever observes state a crash could lose. The QRPC server stages a batch's
// handler mutations and calls Sync once, before any exec record or reply.
type Stager interface {
	// Staged returns the store with non-durable mutations; its reads and
	// every other method are the store's own.
	Staged() Backend
	// Sync makes every mutation staged so far durable and publishes it. A
	// failed Sync is sticky: the staged mutations are dropped, and every
	// later Sync and mutation fails.
	Sync() error
}

// CacheTuner is an optional Backend extension: online retuning of the
// backend's resident-cache budget. The facade's adaptive controller grows
// the budget when the observed cold-fault ratio says the working set does
// not fit; shrinking evicts immediately.
type CacheTuner interface {
	SetCacheBytes(n int64)
	CacheBytes() int64
}

// Occupancy is a Backend's population and residency report — the store
// section of the server stats line. For the in-memory backend resident ==
// total and the fault/compaction counters stay zero; for the disk backend
// resident is the hot-object LRU and the counters describe its traffic.
type Occupancy struct {
	Objects         int   // committed objects
	ResidentObjects int   // decoded objects resident in memory
	ResidentBytes   int64 // estimated bytes of those resident objects
	CacheHits       int64 // Gets served from the resident set
	ColdFaults      int64 // Gets that faulted in from the segment
	Compactions     int64 // segment rewrites
	SegmentBytes    int64 // on-disk segment size (0 for in-memory)
}

var _ Backend = (*Store)(nil)
