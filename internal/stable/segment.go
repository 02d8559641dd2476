package stable

import (
	"fmt"
	"io"
	"sync"
)

// SegmentFile is a crash-safe append-only record file addressed by byte
// offset — the persistence primitive behind the disk-backed object store.
//
// It is the shared appender core (record framing, streaming recovery,
// pipelined group commit, poison; see appender) plus offset addressing:
// records are addressed by the byte offset AppendNoSync returns, and read
// back individually with ReadAt (a pread) — nothing is kept resident.
// FileLog, by contrast, holds every live payload in memory, which is
// exactly the ceiling the disk store exists to remove. A segment holds only
// append records; a remove record fails the open as corruption.
//
// Torn-tail semantics are identical to FileLog: a partial record at EOF is
// truncated away and reported via TornTail as a *TornTailError; interior
// corruption fails the open. A failed group-commit fsync or record write
// poisons the segment permanently (ErrPoisoned).
type SegmentFile struct {
	appender
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
	s := new(SegmentFile)
	err := s.open(path, opts, false, start, func(off int64, r record) error {
		if r.kind != kindAppend {
			return fmt.Errorf("%w: segment offset %d: unexpected kind %#x", ErrCorrupt, off, r.kind)
		}
		if scan == nil {
			return nil
		}
		return scan(off, r.payload)
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// CreateSegmentFile creates an empty segment at path, truncating any
// existing file.
func CreateSegmentFile(path string, opts Options) (*SegmentFile, error) {
	s := new(SegmentFile)
	if err := s.open(path, opts, true, 0, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// AppendNoSync writes one record and returns its starting byte offset
// without waiting for durability; the offset must not be published to
// readers until a Commit covering it returns nil. On a poisoned segment it
// fails immediately.
func (s *SegmentFile) AppendNoSync(rec []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, off, _, err := s.appendLocked(rec)
	return off, err
}

// Append writes one record durably and returns its starting byte offset.
func (s *SegmentFile) Append(rec []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, off, seq, err := s.appendLocked(rec)
	if err != nil {
		return 0, err
	}
	if err := s.commitLocked(seq); err != nil {
		return 0, err
	}
	return off, nil
}

// Replace rewrites the segment in place — the compaction path. write fills
// tmp, a fresh segment beside the live one, through tmp's own
// AppendNoSync; then tmp is fsynced, renamed over the live path, the
// directory fsynced, and the segment adopts tmp's file. Offsets handed out
// before the replace are invalid after it; the ones write got from tmp are
// valid. Stats stay cumulative, and count tmp's appends and both fsyncs.
//
// The caller must not append to the segment while write runs — the
// replacement would drop such records — but may read it. On any error the
// live file stays in use unchanged. A failed directory fsync also poisons
// the segment: which file the path names after a crash is then unknown.
func (s *SegmentFile) Replace(write func(tmp *SegmentFile) error) error {
	tmp := new(SegmentFile)
	s.mu.Lock()
	err := s.openReplacementLocked(&tmp.appender)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	err = write(tmp)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replaceLocked(&tmp.appender, err)
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
	f, size := s.f, s.size
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
	r, _, total, err := recordHeader(probe[:n])
	if err != nil || r.kind != kindAppend {
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
	r, _, err = parseRecord(full)
	if err != nil {
		return fmt.Errorf("%w: segment record at %d: %v", ErrCorrupt, off, err)
	}
	return fn(r.payload)
}

// Size returns the segment's current length in bytes.
func (s *SegmentFile) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}
