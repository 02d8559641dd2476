// Package stable implements Rover's stable operation log.
//
// QRPC's central promise is that a request, once accepted, survives
// anything short of losing the machine: the access manager writes every
// queued request to stable storage before returning to the application, and
// redelivers from the log after crashes and reconnections. The paper notes
// that "the flush is on the critical path for message sending" and that the
// prototype "favors simplicity over performance: it does not perform any
// compression on the log and it does not employ efficient techniques for
// implementing stable storage (e.g., Flash RAM or group commit)".
//
// This package mirrors that prototype as the default — no compression,
// every append durable before return — and provides the two optimizations
// the paper cites as future work: flate compression (an option) and group
// commit, which every file this package writes performs unconditionally
// without weakening durability by coalescing concurrent appenders onto one
// in-flight fsync. The benchmark harness measures both as ablations
// (A-COMPRESS, A-GROUP).
//
// Two implementations share the Log interface: FileLog, a crash-safe
// append-only file used by real deployments and the crash-recovery tests,
// and MemLog, an in-memory store with a modeled flush cost used under the
// discrete-event simulator (where fsync time must be charged to virtual,
// not wall, time). FileLog and SegmentFile, the disk object store's
// offset-addressed file, are thin views over one append-log core
// (appender): one record format, one recovery scan, one group commit.
package stable

import (
	"errors"
	"fmt"
	"time"
)

// Errors returned by logs.
var (
	ErrClosed    = errors.New("stable: log is closed")
	ErrNotFound  = errors.New("stable: record not found")
	ErrCorrupt   = errors.New("stable: corrupt log record")
	ErrRecordBig = errors.New("stable: record exceeds size limit")
	// ErrTornTail marks a partially-written record at the end of the log —
	// the signature of a crash mid-append. Recovery truncates the torn
	// record and continues; FileLog.TornTail reports it afterwards.
	ErrTornTail = errors.New("stable: torn record at log tail")
	// ErrPoisoned marks a log whose group-commit fsync or record write
	// failed. After the kernel fails a flush the page-cache state is
	// unknowable, and a short write leaves partial bytes the next record
	// would land behind, so the log refuses all further appends, removes
	// and commits rather than pretend the data is durable. Match with
	// errors.Is; the concrete *PoisonedError carries the original failure.
	ErrPoisoned = errors.New("stable: log poisoned by failed write or sync")
)

// TornTailError carries the byte offset of a torn trailing record detected
// (and truncated) during recovery. It unwraps to ErrTornTail.
type TornTailError struct {
	// Offset is the file offset at which the torn record began; every
	// record before it was recovered intact.
	Offset int64
}

func (e *TornTailError) Error() string {
	return fmt.Sprintf("stable: torn record at log tail (offset %d, truncated)", e.Offset)
}

// Unwrap makes errors.Is(e, ErrTornTail) true.
func (e *TornTailError) Unwrap() error { return ErrTornTail }

// PoisonedError is the sticky error a log returns once a group-commit
// fsync or a record write has failed: the first failure is remembered and
// every subsequent Append/Remove/Commit (and any waiter that was riding the
// failed flush) gets it.
// Durability-critical callers — the QRPC server's session journal — treat
// it as fatal and refuse further work instead of continuing without
// durability. It matches errors.Is(err, ErrPoisoned) and unwraps to the
// underlying fsync failure.
type PoisonedError struct {
	// Cause is the original fsync or write error that poisoned the log.
	Cause error
}

func (e *PoisonedError) Error() string {
	return fmt.Sprintf("stable: log poisoned by failed write or sync: %v", e.Cause)
}

// Unwrap exposes the original failure.
func (e *PoisonedError) Unwrap() error { return e.Cause }

// Is makes errors.Is(e, ErrPoisoned) true without hiding the cause chain.
func (e *PoisonedError) Is(target error) bool { return target == ErrPoisoned }

// MaxRecord bounds a single log record.
const MaxRecord = 32 << 20

// Log is a stable store of uniquely-identified records. Records are
// appended durably, removed when no longer needed (the request was
// acknowledged), and replayed in append order at recovery.
type Log interface {
	// Append stores rec durably and returns its assigned id. Ids are
	// strictly increasing within and across recoveries.
	Append(rec []byte) (uint64, error)
	// Remove marks the records as no longer needed. A batch pays one
	// durability wait and still returns only once every remove is durable.
	// Unknown ids yield ErrNotFound, after the known ids are removed.
	Remove(ids ...uint64) error
	// Replay calls fn for every live (appended, not removed) record in
	// append order. Replay during active use sees a consistent snapshot.
	Replay(fn func(id uint64, rec []byte) error) error
	// Len returns the number of live records.
	Len() int
	// Cost returns the flush latency an Append is expected to pay. MemLog
	// returns the configured modeled latency (charged under virtual time);
	// FileLog returns a rolling estimate measured from its own group-commit
	// fsyncs — zero until the first sync completes, so engines built on a
	// freshly opened log still treat the flush as already paid in wall time
	// inside Append itself.
	Cost() time.Duration
	// Stats returns operation counters.
	Stats() Stats
	// Close releases resources. Appends after Close fail with ErrClosed.
	Close() error
}

// BatchLog is implemented by logs that can stage appends and amortize the
// durability wait across a run of them: AppendNoSync writes and sequences a
// record exactly like Append but returns without waiting for the flush;
// Commit blocks until everything appended so far is durable. The contract
// is pipelined group commit [Hagmann 87]: the caller may stage K records
// back-to-back and pay ONE commit wait for all of them, but must not
// release any effect that depends on a staged record before Commit returns
// nil. A crash between AppendNoSync and Commit may lose the staged suffix
// (it reads as a torn tail); durability is only promised at Commit.
type BatchLog interface {
	Log
	// AppendNoSync stores rec with Append's sequencing but without waiting
	// for durability. On a poisoned log it fails immediately.
	AppendNoSync(rec []byte) (uint64, error)
	// Commit blocks until every record appended so far is durable, joining
	// the in-flight group commit if one is running.
	Commit() error
}

// Stats counts log activity.
type Stats struct {
	Appends      int64
	Removes      int64
	Syncs        int64 // fsync (or modeled flush) operations
	SyncNanos    int64 // total wall time spent inside fsync (FileLog only)
	BytesWritten int64 // bytes written to the backing store, post-compression
	BytesLogical int64 // bytes of record payload before compression
	Compactions  int64
}

// add folds o's counters into s.
func (s *Stats) add(o Stats) {
	s.Appends += o.Appends
	s.Removes += o.Removes
	s.Syncs += o.Syncs
	s.SyncNanos += o.SyncNanos
	s.BytesWritten += o.BytesWritten
	s.BytesLogical += o.BytesLogical
	s.Compactions += o.Compactions
}

// Options configure a log's durability/space trade-offs. The zero value is
// the paper's prototype: synchronous flush per append, no compression.
type Options struct {
	// NoSync disables the per-append fsync entirely (unsafe; for measuring
	// the flush's share of the critical path).
	NoSync bool
	// Compress flate-compresses record payloads larger than 64 bytes. The
	// paper's prototype "does not perform any compression on the log".
	Compress bool
	// FlushCost is the modeled per-append flush latency for MemLog. It is
	// ignored by FileLog.
	FlushCost time.Duration
}

func (o Options) String() string {
	return fmt.Sprintf("sync=%v compress=%v", !o.NoSync, o.Compress)
}
