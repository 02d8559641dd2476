package stable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"rover/internal/compress"
)

// SegmentFile is a crash-safe append-only record file addressed by byte
// offset — the persistence primitive behind the disk-backed object store.
//
// It shares FileLog's record framing (kind 'A', uvarint id, flags, payload,
// Castagnoli CRC) and its pipelined group-commit protocol, but differs in
// two ways that matter at millions of records:
//
//   - Records are addressed by the byte offset AppendNoSync returns, and
//     read back individually with ReadAt (a pread) — nothing is kept
//     resident. FileLog, by contrast, holds every live payload in memory,
//     which is exactly the ceiling the disk store exists to remove.
//   - The open-time scan streams through the file in bounded chunks instead
//     of reading it whole, so recovering a multi-gigabyte segment does not
//     spike RSS.
//
// Torn-tail semantics are identical to FileLog: a partial record at EOF is
// truncated away and reported via TornTail as a *TornTailError; interior
// corruption fails the open. A failed group-commit fsync or record write
// poisons the segment permanently (ErrPoisoned).
type SegmentFile struct {
	mu   sync.Mutex
	path string
	f    *os.File
	opts Options

	nextID    uint64
	fileBytes int64
	stats     Stats
	closed    bool
	scratch   []byte
	torn      *TornTailError

	// Group-commit state; the protocol is FileLog's (see commitLocked
	// there): writes are sequenced under mu, the leader fsyncs with mu
	// released, and a failed fsync or write is sticky.
	writeSeq  uint64
	syncedSeq uint64
	syncing   bool
	syncErr   error
	synced    *sync.Cond
	syncEWMA  time.Duration
}

// OpenSegmentFile opens (or creates) the segment at path and streams every
// intact record through scan in file order, passing each record's byte
// offset and payload; scan may be nil. The payload slice is only valid for
// the duration of the scan call — retain a copy, not the slice. A torn
// trailing record is truncated away (TornTail reports it); interior
// corruption fails the open.
func OpenSegmentFile(path string, opts Options, scan func(off int64, rec []byte) error) (*SegmentFile, error) {
	return OpenSegmentFileAt(path, opts, 0, scan)
}

// OpenSegmentFileAt is OpenSegmentFile with the recovery scan starting at
// byte offset start — a record boundary a previous incarnation persisted
// (e.g. an index footer's offset), letting a recovered index skip the bulk
// of the file. Records before start are trusted unseen; torn-tail
// truncation still applies to the scanned region. start past the file's end
// fails the open (the offset belongs to some other incarnation of the
// file).
func OpenSegmentFileAt(path string, opts Options, start int64, scan func(off int64, rec []byte) error) (*SegmentFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("stable: open segment: %w", err)
	}
	if start > 0 {
		fi, serr := f.Stat()
		if serr != nil {
			f.Close()
			return nil, fmt.Errorf("stable: open segment: %w", serr)
		}
		if start > fi.Size() {
			f.Close()
			return nil, fmt.Errorf("%w: segment scan start %d past end %d", ErrCorrupt, start, fi.Size())
		}
	}
	s := &SegmentFile{path: path, f: f, opts: opts, nextID: 1}
	s.synced = sync.NewCond(&s.mu)
	if err := s.recover(scan, start); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// CreateSegmentFile creates an empty segment at path, truncating any
// existing file — the compaction path's fresh output segment.
func CreateSegmentFile(path string, opts Options) (*SegmentFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("stable: create segment: %w", err)
	}
	s := &SegmentFile{path: path, f: f, opts: opts, nextID: 1}
	s.synced = sync.NewCond(&s.mu)
	return s, nil
}

// recover streams the file through parseRecord in bounded chunks starting
// at byte offset start. buf holds the unparsed window; pos is the file
// offset of buf[0]. Payloads handed to scan alias buf and are only valid
// during the scan call.
func (s *SegmentFile) recover(scan func(off int64, rec []byte) error, start int64) error {
	const chunk = 256 << 10
	var (
		buf  []byte
		pos  = start
		read = start
		eof  bool
	)
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	tmp := make([]byte, chunk)
	for {
		for len(buf) > 0 {
			rec, n, err := parseRecordZC(buf)
			if err == errTorn && !eof {
				break // need more bytes
			}
			if err == errTorn || (err == errBadCRC && eof && n == len(buf)) {
				// Partial or checksum-failed record reaching exactly to EOF:
				// a crash mid-append. Truncate it away and stop.
				s.torn = &TornTailError{Offset: pos}
				if terr := s.f.Truncate(pos); terr != nil {
					return fmt.Errorf("stable: truncate torn segment tail: %w", terr)
				}
				buf = nil
				eof = true
				break
			}
			if err != nil {
				return fmt.Errorf("stable: segment offset %d: %w", pos, err)
			}
			if rec.kind != kindAppend {
				return fmt.Errorf("%w: segment offset %d: unexpected kind %#x", ErrCorrupt, pos, rec.kind)
			}
			if scan != nil {
				if serr := scan(pos, rec.payload); serr != nil {
					return serr
				}
			}
			if rec.id >= s.nextID {
				s.nextID = rec.id + 1
			}
			buf = buf[n:]
			pos += int64(n)
		}
		if eof {
			break
		}
		// Refill: compact the unparsed remainder to the front, then read.
		if len(buf) > 0 {
			buf = append(buf[:0:0], buf...)
		}
		n, err := s.f.ReadAt(tmp, read)
		read += int64(n)
		buf = append(buf, tmp[:n]...)
		if err == io.EOF {
			eof = true
			if len(buf) == 0 {
				break
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("stable: segment read: %w", err)
		}
	}
	if _, err := s.f.Seek(pos, io.SeekStart); err != nil {
		return err
	}
	s.fileBytes = pos
	return nil
}

// AppendNoSync writes one record and returns its starting byte offset
// without waiting for durability; the offset must not be published to
// readers until a Commit covering it returns nil. On a poisoned segment it
// fails immediately.
func (s *SegmentFile) AppendNoSync(rec []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	off, _, err := s.appendLocked(rec)
	return off, err
}

// Append writes one record durably and returns its starting byte offset.
func (s *SegmentFile) Append(rec []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	off, seq, err := s.appendLocked(rec)
	if err != nil {
		return 0, err
	}
	if err := s.commitLocked(seq); err != nil {
		return 0, err
	}
	return off, nil
}

// appendLocked writes one record. A poisoned segment refuses up front, and
// a failed write poisons it: fileBytes does not advance past partial bytes,
// so a later record would land behind them at an offset nothing points to.
func (s *SegmentFile) appendLocked(rec []byte) (int64, uint64, error) {
	if s.closed {
		return 0, 0, ErrClosed
	}
	if s.syncErr != nil {
		return 0, 0, s.syncErr
	}
	if len(rec) > MaxRecord {
		return 0, 0, ErrRecordBig
	}
	off := s.fileBytes
	id := s.nextID
	b := s.scratch[:0]
	b = append(b, kindAppend)
	b = binary.AppendUvarint(b, id)
	stored := rec
	flags := byte(0)
	if s.opts.Compress && len(rec) > 64 {
		if c, ok := compress.Deflate(rec); ok {
			stored = c
			flags = flagCompressed
		}
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(len(stored)))
	b = append(b, stored...)
	crc := crc32.Checksum(b, crcTable)
	b = binary.LittleEndian.AppendUint32(b, crc)
	s.scratch = b
	if _, err := s.f.Write(b); err != nil {
		s.syncErr = &PoisonedError{Cause: fmt.Errorf("stable: segment write: %w", err)}
		s.synced.Broadcast()
		return 0, 0, s.syncErr
	}
	s.nextID++
	s.fileBytes += int64(len(b))
	s.writeSeq++
	s.stats.Appends++
	s.stats.BytesWritten += int64(len(b))
	s.stats.BytesLogical += int64(len(rec))
	return off, s.writeSeq, nil
}

// Commit blocks until every record appended so far is durable, joining the
// in-flight group commit if one is running — BatchLog's contract, minus the
// id-based surface.
func (s *SegmentFile) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.syncErr != nil {
		return s.syncErr
	}
	return s.commitLocked(s.writeSeq)
}

// commitLocked is FileLog's group-commit leader protocol: first waiter
// becomes leader, captures the high-water write mark, fsyncs with s.mu
// released, and wakes everyone it covered. A failed fsync poisons the
// segment permanently.
func (s *SegmentFile) commitLocked(seq uint64) error {
	if s.opts.NoSync {
		return nil
	}
	for s.syncedSeq < seq {
		if s.syncErr != nil {
			return s.syncErr
		}
		if s.syncing {
			s.synced.Wait()
			continue
		}
		s.syncing = true
		s.mu.Unlock()
		runtime.Gosched()
		s.mu.Lock()
		target := s.writeSeq
		f := s.f
		s.mu.Unlock()
		start := time.Now()
		err := f.Sync()
		d := time.Since(start)
		s.mu.Lock()
		s.syncing = false
		if err != nil {
			s.syncErr = &PoisonedError{Cause: err}
		} else {
			if target > s.syncedSeq {
				s.syncedSeq = target
			}
			s.stats.Syncs++
			s.stats.SyncNanos += int64(d)
			if s.syncEWMA == 0 {
				s.syncEWMA = d
			} else {
				s.syncEWMA = (s.syncEWMA*7 + d) / 8
			}
		}
		s.synced.Broadcast()
	}
	return nil
}

// segReadPool recycles the full-record read buffers of ReadAtFunc — the
// cold-object fault-in path does one pread per miss and the buffer is dead
// the moment the payload is decoded, so recycling removes the dominant
// per-fault allocation.
var segReadPool = sync.Pool{New: func() any { return new([]byte) }}

// ReadAt reads back the record starting at off — the offset a previous
// AppendNoSync (or the open-time scan) reported — verifying its checksum,
// and returns the payload as a fresh slice the caller owns.
func (s *SegmentFile) ReadAt(off int64) ([]byte, error) {
	var out []byte
	err := s.ReadAtFunc(off, func(payload []byte) error {
		out = append([]byte(nil), payload...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAtFunc reads the record at off and hands its payload to fn without
// copying: the payload aliases a pooled read buffer and is only valid for
// the duration of the call. This is the cold-object fault-in path — a pread
// plus a CRC check, no locks held across the I/O, and (via the pool) no
// per-read allocation when the caller decodes in place.
func (s *SegmentFile) ReadAtFunc(off int64, fn func(payload []byte) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	f, size := s.f, s.fileBytes
	s.mu.Unlock()
	if off < 0 || off >= size {
		return fmt.Errorf("%w: segment read at %d past end %d", ErrCorrupt, off, size)
	}
	// Probe enough for the header (kind + two uvarints + flags ≤ 22 bytes),
	// size the record from it, then read the full extent.
	var probe [64]byte
	n, err := f.ReadAt(probe[:], off)
	if err != nil && err != io.EOF {
		return fmt.Errorf("stable: segment read: %w", err)
	}
	total, err := segRecordSize(probe[:n])
	if err != nil {
		return fmt.Errorf("%w: segment record at %d: unparsable header", ErrCorrupt, off)
	}
	bp := segReadPool.Get().(*[]byte)
	full := *bp
	if cap(full) < total {
		full = make([]byte, total)
	} else {
		full = full[:total]
	}
	defer func() {
		*bp = full
		segReadPool.Put(bp)
	}()
	if total <= n {
		copy(full, probe[:total])
	} else {
		if _, err := io.ReadFull(io.NewSectionReader(f, off, int64(total)), full); err != nil {
			return fmt.Errorf("%w: segment record at %d: short read", ErrCorrupt, off)
		}
	}
	rec, _, perr := parseRecordZC(full)
	if perr != nil {
		return fmt.Errorf("%w: segment record at %d: %v", ErrCorrupt, off, perr)
	}
	return fn(rec.payload)
}

// parseRecordZC is parseRecord minus the defensive payload copy: an
// uncompressed payload aliases p, so it is only valid while the caller owns
// p. The segment's recovery scan and ReadAtFunc use it because their
// consumers decode (and therefore copy) in place; compressed payloads are
// freshly inflated either way.
func parseRecordZC(p []byte) (parsedRecord, int, error) {
	if len(p) < 1 {
		return parsedRecord{}, 0, errTorn
	}
	if p[0] != kindAppend {
		// Segments only ever hold appends; delegate oddities (bad kind,
		// kindRemove framing) to the copying parser for uniform errors.
		return parseRecord(p)
	}
	off := 1
	id, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return parsedRecord{}, 0, errTorn
	}
	off += n
	if off >= len(p) {
		return parsedRecord{}, 0, errTorn
	}
	flags := p[off]
	off++
	storedLen, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return parsedRecord{}, 0, errTorn
	}
	off += n
	if storedLen > MaxRecord {
		return parsedRecord{}, 0, fmt.Errorf("%w: record of %d bytes", ErrCorrupt, storedLen)
	}
	if off+int(storedLen) > len(p) {
		return parsedRecord{}, 0, errTorn
	}
	stored := p[off : off+int(storedLen)]
	off += int(storedLen)
	if off+4 > len(p) {
		return parsedRecord{}, 0, errTorn
	}
	want := binary.LittleEndian.Uint32(p[off:])
	got := crc32.Checksum(p[:off], crcTable)
	off += 4
	if got != want {
		return parsedRecord{}, off, errBadCRC
	}
	payload := stored
	if flags&flagCompressed != 0 {
		dec, err := compress.Inflate(stored, MaxRecord)
		if err != nil {
			return parsedRecord{}, 0, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
		}
		payload = dec
	}
	return parsedRecord{kind: kindAppend, id: id, payload: payload}, off, nil
}

// segRecordSize decodes a record header from a prefix and returns the
// record's total on-disk size; errTorn means the prefix was too short.
func segRecordSize(p []byte) (int, error) {
	if len(p) < 1 {
		return 0, errTorn
	}
	if p[0] != kindAppend {
		return 0, fmt.Errorf("%w: bad kind %#x", ErrCorrupt, p[0])
	}
	off := 1
	_, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return 0, errTorn
	}
	off += n
	if off >= len(p) {
		return 0, errTorn
	}
	off++ // flags
	storedLen, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return 0, errTorn
	}
	off += n
	if storedLen > MaxRecord {
		return 0, fmt.Errorf("%w: record of %d bytes", ErrCorrupt, storedLen)
	}
	return off + int(storedLen) + 4, nil
}

// Rename atomically renames the backing file; the open handle (and every
// offset handed out so far) stays valid. Compaction writes a fresh segment
// beside the live one, then renames it over the old path and adopts it.
func (s *SegmentFile) Rename(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := os.Rename(s.path, path); err != nil {
		return fmt.Errorf("stable: segment rename: %w", err)
	}
	s.path = path
	return nil
}

// Size returns the segment's current length in bytes.
func (s *SegmentFile) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fileBytes
}

// TornTail reports the torn trailing record truncated at open, or nil.
func (s *SegmentFile) TornTail() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.torn == nil {
		return nil
	}
	return s.torn
}

// Poisoned reports the sticky error set by the first failed fsync or
// write, or nil.
func (s *SegmentFile) Poisoned() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncErr
}

// Cost returns the rolling measured group-commit fsync latency.
func (s *SegmentFile) Cost() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncEWMA
}

// Stats returns operation counters.
func (s *SegmentFile) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close waits out any in-flight fsync, performs a final safety sync over a
// staged suffix, and closes the file.
func (s *SegmentFile) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for s.syncing {
		s.synced.Wait()
	}
	var err error
	if s.syncedSeq < s.writeSeq && !s.opts.NoSync && s.syncErr == nil {
		start := time.Now()
		err = s.f.Sync()
		if err == nil {
			s.syncedSeq = s.writeSeq
			s.stats.Syncs++
			s.stats.SyncNanos += int64(time.Since(start))
		} else {
			s.syncErr = &PoisonedError{Cause: err}
		}
	}
	s.synced.Broadcast()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}
