package stable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rover/internal/compress"
)

// Record format, shared by every file this package writes (all integers
// are uvarints, minimally encoded, unless noted):
//
//	kind[1] id [flags[1] storedLen stored[storedLen]] crc32[4]
//
// kind is 'A' (append) or 'R' (remove); only 'A' records carry a payload,
// flate-compressed when flags has flagCompressed. The CRC (Castagnoli,
// little-endian) covers every byte of the record before it.
const (
	kindAppend = byte('A')
	kindRemove = byte('R')

	flagCompressed = byte(1)

	// scanChunk is the recovery scan's read size: recovering a
	// multi-gigabyte file holds one chunk (or one record, if larger).
	scanChunk = 256 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	errTorn = fmt.Errorf("stable: torn record")
	// errBadCRC is a structurally complete record whose checksum failed.
	// Recovery decides by position whether it is a torn tail (last record:
	// truncate and continue) or interior corruption (fail the open).
	errBadCRC = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
)

// record is one decoded record. stored is the payload as written (deflated
// when flags says so) and payload the decoded payload; an uncompressed
// payload aliases the buffer it was parsed from.
type record struct {
	kind    byte
	id      uint64
	flags   byte
	stored  []byte
	payload []byte
}

// appendRecord appends the framed record to b — the one encoder.
func appendRecord(b []byte, kind byte, id uint64, flags byte, stored []byte) []byte {
	start := len(b)
	b = append(b, kind)
	b = binary.AppendUvarint(b, id)
	if kind == kindAppend {
		b = append(b, flags)
		b = binary.AppendUvarint(b, uint64(len(stored)))
		b = append(b, stored...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], crcTable))
}

// uvarint decodes a minimally encoded uvarint: errTorn if p ends inside
// it, ErrCorrupt if it overflows or carries padding bytes — the encoder
// never writes either, and rejecting them keeps one encoding per record.
func uvarint(p []byte) (uint64, int, error) {
	v, n := binary.Uvarint(p)
	if n == 0 {
		return 0, 0, errTorn
	}
	if n < 0 || (n > 1 && p[n-1] == 0) {
		return 0, 0, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	return v, n, nil
}

// recordHeader decodes the header at the front of p: the record's kind,
// id and flags, the header's length, and the record's total size on disk.
// errTorn means p ends inside the header.
func recordHeader(p []byte) (r record, hdr, size int, err error) {
	if len(p) < 1 {
		return r, 0, 0, errTorn
	}
	r.kind = p[0]
	if r.kind != kindAppend && r.kind != kindRemove {
		return r, 0, 0, fmt.Errorf("%w: bad kind %#x", ErrCorrupt, r.kind)
	}
	id, n, err := uvarint(p[1:])
	if err != nil {
		return r, 0, 0, err
	}
	r.id = id
	hdr = 1 + n
	if r.kind == kindRemove {
		return r, hdr, hdr + 4, nil
	}
	if hdr >= len(p) {
		return r, 0, 0, errTorn
	}
	r.flags = p[hdr]
	storedLen, n, err := uvarint(p[hdr+1:])
	if err != nil {
		return r, 0, 0, err
	}
	if storedLen > MaxRecord {
		return r, 0, 0, fmt.Errorf("%w: record of %d bytes", ErrCorrupt, storedLen)
	}
	hdr += 1 + n
	return r, hdr, hdr + int(storedLen) + 4, nil
}

// parseRecord decodes the record at the front of p and returns it with its
// size on disk — the one parser. It never copies: an uncompressed payload
// aliases p and is valid only while the caller owns p. errTorn means p
// ends inside the record; errBadCRC still reports the record's full extent
// so recovery can tell a torn write at the tail from interior corruption.
func parseRecord(p []byte) (record, int, error) {
	r, hdr, size, err := recordHeader(p)
	if err != nil {
		return record{}, 0, err
	}
	if size > len(p) {
		return record{}, 0, errTorn
	}
	body := size - 4
	if crc32.Checksum(p[:body], crcTable) != binary.LittleEndian.Uint32(p[body:]) {
		return record{}, size, errBadCRC
	}
	if r.kind == kindAppend {
		r.stored = p[hdr:body]
		r.payload = r.stored
		if r.flags&flagCompressed != 0 {
			dec, err := compress.Inflate(r.stored, MaxRecord)
			if err != nil {
				return record{}, 0, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
			}
			r.payload = dec
		}
	}
	return r, size, nil
}

// appender is the one append-log core FileLog and SegmentFile are views
// over. It owns the open file, the record encoder, streaming recovery with
// torn-tail truncation, the group-commit leader protocol, the sticky
// poison, the fsync cost estimate and counters, the final-sync Close, and
// the durable in-place file replace. The views add only what differs:
// FileLog its resident live map and compaction policy, SegmentFile its
// offset addressing.
type appender struct {
	mu   sync.Mutex
	path string
	f    *os.File
	opts Options

	next    uint64 // id of the next record; recovery folds in every id it scans
	size    int64  // bytes in the file, durable or not
	stats   Stats
	closed  bool
	scratch []byte
	torn    *TornTailError // set when recovery truncated a torn tail

	// Group-commit state. Writes are sequenced under mu; fsync happens with
	// mu RELEASED so concurrent appenders can queue more writes behind the
	// in-flight flush and then ride the next one. See commitLocked.
	writeSeq  uint64        // writes issued to the file
	syncedSeq uint64        // writes known durable
	syncing   bool          // an fsync is in flight (mu released by the leader)
	syncErr   error         // sticky: the first failed fsync or write poisons the log
	synced    *sync.Cond    // broadcast when a sync completes (or fails)
	syncEWMA  time.Duration // rolling measured fsync latency (see Cost)
}

// open opens (or creates, or with trunc empties) the file at path and
// recovers it, streaming it from byte offset start through parseRecord in
// bounded chunks and handing every intact record to scan (which may be nil)
// with the offset it begins at. A partial record at EOF, or a
// checksum-failed one ending exactly there, is the signature of a crash
// mid-append: it is truncated away and reported by TornTail. Any other
// damage fails the open with the file untouched, since skipping interior
// records would reorder what the views replay. Records before start are
// trusted unseen; start past the end fails the open (the offset belongs to
// another incarnation).
func (a *appender) open(path string, opts Options, trunc bool, start int64, scan func(off int64, r record) error) (err error) {
	flag := os.O_RDWR | os.O_CREATE
	if trunc {
		flag |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o600)
	if err != nil {
		return fmt.Errorf("stable: open: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	// A replacement left beside the file is a crash mid-replace, from
	// before its rename: garbage, with the file itself still whole.
	os.Remove(path + ".compact")
	a.path, a.f, a.opts, a.next = path, f, opts, 1
	a.synced = sync.NewCond(&a.mu)
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("stable: stat: %w", err)
	}
	end := fi.Size()
	if start > end {
		return fmt.Errorf("%w: scan start %d past end %d", ErrCorrupt, start, end)
	}
	// buf[lo:hi] holds the unparsed bytes from file offset pos; read is the
	// offset of the next byte to fetch.
	buf := make([]byte, min(scanChunk, end-start))
	lo, hi := 0, 0
	pos, read := start, start
	for pos < end {
		r, n, err := parseRecord(buf[lo:hi])
		if err == errTorn && read < end {
			hi = copy(buf, buf[lo:hi])
			lo = 0
			if hi == len(buf) {
				// A record larger than the buffer: its header is complete, so
				// grow to exactly its size, capped by what the file holds.
				_, _, size, _ := recordHeader(buf)
				grown := make([]byte, min(int64(size), int64(hi)+end-read))
				copy(grown, buf)
				buf = grown
			}
			m, rerr := a.f.ReadAt(buf[hi:min(int64(len(buf)), int64(hi)+end-read)], read)
			hi += m
			read += int64(m)
			if rerr == io.EOF {
				end = read // the file shrank under us; scan what is there
			} else if rerr != nil {
				return fmt.Errorf("stable: read: %w", rerr)
			}
			continue
		}
		if err == errTorn || (err == errBadCRC && pos+int64(n) == end) {
			a.torn = &TornTailError{Offset: pos}
			if err := a.f.Truncate(pos); err != nil {
				return fmt.Errorf("stable: truncate torn tail: %w", err)
			}
			break
		}
		if err != nil {
			return fmt.Errorf("stable: offset %d: %w", pos, err)
		}
		if scan != nil {
			if err := scan(pos, r); err != nil {
				return err
			}
		}
		if r.id >= a.next {
			a.next = r.id + 1
		}
		lo += n
		pos += int64(n)
	}
	a.size = pos
	_, err = a.f.Seek(pos, io.SeekStart)
	return err
}

// usableLocked refuses work on a closed or poisoned log. A poisoned log
// refuses even unsynced writes: nothing could ever make them durable.
func (a *appender) usableLocked() error {
	if a.closed {
		return ErrClosed
	}
	return a.syncErr
}

// appendLocked writes rec as the next 'A' record and returns its id, the
// offset it begins at and its write sequence number; the caller decides
// whether to wait for durability.
func (a *appender) appendLocked(rec []byte) (id uint64, off int64, seq uint64, err error) {
	if err := a.usableLocked(); err != nil {
		return 0, 0, 0, err
	}
	if len(rec) > MaxRecord {
		return 0, 0, 0, ErrRecordBig
	}
	id, off = a.next, a.size
	if err := a.writeLocked(kindAppend, id, rec); err != nil {
		return 0, 0, 0, err
	}
	a.next++
	a.stats.Appends++
	a.stats.BytesLogical += int64(len(rec))
	return id, off, a.writeSeq, nil
}

// writeLocked encodes and writes one record, advancing the write sequence.
// It does NOT wait for durability — callers commit (or stage) explicitly. A
// failed write poisons the log: a short write leaves partial bytes, and the
// next record landing behind them would be interior corruption that fails
// the next open (and, in a segment, sit at an offset nothing points to).
func (a *appender) writeLocked(kind byte, id uint64, payload []byte) error {
	stored, flags := payload, byte(0)
	if kind == kindAppend && a.opts.Compress && len(payload) > 64 {
		if c, ok := compress.Deflate(payload); ok {
			stored, flags = c, flagCompressed
		}
	}
	a.scratch = appendRecord(a.scratch[:0], kind, id, flags, stored)
	if _, err := a.f.Write(a.scratch); err != nil {
		a.syncErr = &PoisonedError{Cause: fmt.Errorf("stable: write: %w", err)}
		a.synced.Broadcast()
		return a.syncErr
	}
	a.size += int64(len(a.scratch))
	a.stats.BytesWritten += int64(len(a.scratch))
	a.writeSeq++
	return nil
}

// Commit blocks until every record appended so far — including
// AppendNoSync staging — is durable, joining the in-flight group commit if
// one is running (BatchLog's contract).
func (a *appender) Commit() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.usableLocked(); err != nil {
		return err
	}
	return a.commitLocked(a.writeSeq)
}

// commitLocked blocks until write number seq is durable, via group commit:
// the first appender to arrive becomes the leader, captures the current
// high-water write mark, and fsyncs with a.mu RELEASED — so appenders
// arriving during the flush write their records behind it and wait. When
// the leader's fsync returns, every write it covered is durable at once
// (one fsync amortized over N appends); an uncovered waiter becomes the
// next leader. Durability is never weakened: no append or remove returns
// success before its own bytes are flushed. An fsync failure is sticky —
// after the kernel fails a flush the page-cache state is unknowable, so
// the log is poisoned and every waiter and later append gets the same
// typed *PoisonedError (errors.Is(err, ErrPoisoned); see Poisoned).
func (a *appender) commitLocked(seq uint64) error {
	if a.opts.NoSync {
		return nil
	}
	for a.syncedSeq < seq {
		if a.syncErr != nil {
			return a.syncErr
		}
		if a.syncing {
			a.synced.Wait()
			continue
		}
		// Leader: flush on behalf of every write issued so far. Yield once
		// before capturing the target so appenders already racing toward
		// the log land inside this flush instead of forcing the next one;
		// writes issued after the capture wait for the next leader, since
		// an fsync only guarantees data written before it started.
		a.syncing = true
		a.mu.Unlock()
		runtime.Gosched()
		a.mu.Lock()
		target := a.writeSeq
		f := a.f
		a.mu.Unlock()
		start := time.Now()
		err := f.Sync()
		d := time.Since(start)
		a.mu.Lock()
		a.syncing = false
		if err != nil {
			a.syncErr = &PoisonedError{Cause: err}
		} else {
			if target > a.syncedSeq {
				a.syncedSeq = target
			}
			a.stats.Syncs++
			a.stats.SyncNanos += int64(d)
			// Cost's estimate: the first sample seeds it, later ones blend
			// 1/8 new against 7/8 history, so one slow flush moves it
			// without whipsawing it.
			if a.syncEWMA == 0 {
				a.syncEWMA = d
			} else {
				a.syncEWMA = (a.syncEWMA*7 + d) / 8
			}
		}
		a.synced.Broadcast()
	}
	return nil
}

// waitSyncLocked waits out an fsync in flight: the leader holds only a file
// reference, not the lock, so nothing may close or swap the file under it.
func (a *appender) waitSyncLocked() {
	for a.syncing {
		a.synced.Wait()
	}
}

// openReplacementLocked opens tmp as an empty file beside the live one, at
// path+".compact", for replaceLocked to adopt once the caller has written
// it through tmp's own encoder. It first waits out any fsync in flight, so
// a caller that snapshots its state under the lock afterwards sees every
// write. tmp continues the live file's ids.
func (a *appender) openReplacementLocked(tmp *appender) error {
	a.waitSyncLocked()
	if err := a.usableLocked(); err != nil {
		return err
	}
	if err := tmp.open(a.path+".compact", a.opts, true, 0, nil); err != nil {
		return err
	}
	tmp.next = a.next
	return nil
}

// replaceLocked durably replaces the live file, in place, with tmp (from
// openReplacementLocked); err is the error from writing it. The sequence
// is: fsync tmp, rename it over path, fsync the parent directory — so a
// crash cannot lose the rename while later appends land in the new inode —
// and only then, with no fsync in flight (so no waiter to wake), swap the
// handle. Every record is then durable. Both fsyncs count in Stats.Syncs, and tmp's counters fold
// into the appender's, so Stats stays cumulative across the swap.
//
// On any error tmp is discarded and the live file stays in use. A failed
// directory fsync also poisons the log: which file the path names after a
// crash is then unknown, so nothing more may be appended to either.
func (a *appender) replaceLocked(tmp *appender, err error) error {
	a.waitSyncLocked()
	if err == nil {
		err = a.usableLocked()
	}
	if err == nil && !a.opts.NoSync {
		err = tmp.fsyncLocked(tmp.f)
	}
	if err == nil {
		err = os.Rename(tmp.path, a.path)
	}
	if err == nil && !a.opts.NoSync {
		if err = a.syncDirLocked(); err != nil {
			a.syncErr = &PoisonedError{Cause: fmt.Errorf("stable: sync directory: %w", err)}
			err = a.syncErr
		}
	}
	a.stats.add(tmp.stats)
	if err != nil {
		tmp.f.Close()
		os.Remove(tmp.path) // a no-op once the rename happened
		return err
	}
	a.f.Close()
	a.f, a.size = tmp.f, tmp.size
	a.next = max(a.next, tmp.next)
	a.syncedSeq = a.writeSeq
	return nil
}

// fsyncLocked fsyncs f, holding the lock throughout, and counts it.
func (a *appender) fsyncLocked(f *os.File) error {
	start := time.Now()
	if err := f.Sync(); err != nil {
		return err
	}
	a.stats.Syncs++
	a.stats.SyncNanos += int64(time.Since(start))
	return nil
}

// syncDirLocked fsyncs the directory holding the file, making a rename in
// it durable.
func (a *appender) syncDirLocked() error {
	d, err := os.Open(filepath.Dir(a.path))
	if err != nil {
		return err
	}
	defer d.Close()
	return a.fsyncLocked(d)
}

// Poisoned reports the sticky *PoisonedError set by the first failed
// group-commit fsync or record write, or nil while the log is healthy. Once
// non-nil, every append, remove and Commit returns the same error.
func (a *appender) Poisoned() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.syncErr
}

// TornTail reports the torn trailing record recovery truncated at open, as
// a *TornTailError (errors.Is(err, ErrTornTail) is true), or nil if the
// file ended cleanly. Callers that care about the lost in-flight append —
// the QRPC client re-enqueues on the error it saw at Append time, so
// normally none do — can log or alert on it.
func (a *appender) TornTail() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.torn == nil {
		return nil
	}
	return a.torn
}

// Cost reports a rolling estimate of the flush cost an append pays in wall
// time — an EWMA over the log's own group-commit fsync durations — so
// schedulers and stats lines can see what a flush actually costs on this
// disk. Zero until the first fsync completes (and always zero under
// NoSync).
func (a *appender) Cost() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.syncEWMA
}

// Stats returns operation counters, cumulative across compactions and
// replaces.
func (a *appender) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Close waits out an fsync still in flight, then pays a final sync if
// anything written is not yet durable — a staged AppendNoSync suffix no
// Commit covered — before closing the file. Appends after Close fail with
// ErrClosed.
func (a *appender) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	a.waitSyncLocked()
	var err error
	if a.syncedSeq < a.writeSeq && !a.opts.NoSync && a.syncErr == nil {
		if err = a.fsyncLocked(a.f); err == nil {
			a.syncedSeq = a.writeSeq
		} else {
			a.syncErr = &PoisonedError{Cause: err}
		}
	}
	a.synced.Broadcast()
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	return err
}
