package stable

import (
	"bytes"
	"fmt"
	"slices"
)

// FileLog is a crash-safe append-only file log: the shared appender core
// (record framing, recovery, group commit, poison; see appender) plus a
// resident map of every live payload and a compaction policy.
//
// Record format (all integers are uvarints unless noted):
//
//	kind[1] id [flags[1] storedLen data[storedLen]] crc32[4]
//
// kind is 'A' (append) or 'R' (remove); only 'A' records carry a payload.
// The CRC (Castagnoli) covers every byte of the record before it. A torn
// record at the tail — the signature of a crash mid-append — is detected
// and truncated away at open (TornTail reports the typed ErrTornTail with
// its offset; every earlier record survives). Corruption anywhere earlier
// is reported as ErrCorrupt and fails the open, since silently skipping
// interior records would reorder the replayed request stream.
type FileLog struct {
	appender
	live      map[uint64][]byte // decompressed payloads
	liveBytes int64
}

const (
	compactFloor  = 64 << 10 // don't bother compacting tiny logs
	compactFactor = 4        // compact once the file holds 4× the live data
)

var _ BatchLog = (*FileLog)(nil)

// OpenFileLog opens or creates the log at path, replaying its contents.
func OpenFileLog(path string, opts Options) (*FileLog, error) {
	l := &FileLog{live: make(map[uint64][]byte)}
	err := l.open(path, opts, false, 0, func(_ int64, r record) error {
		switch r.kind {
		case kindAppend:
			l.live[r.id] = bytes.Clone(r.payload)
			l.liveBytes += int64(len(r.payload))
		case kindRemove:
			if old, ok := l.live[r.id]; ok {
				l.liveBytes -= int64(len(old))
				delete(l.live, r.id)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// Append implements Log.
func (l *FileLog) Append(rec []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id, seq, err := l.appendLiveLocked(rec)
	if err != nil {
		return 0, err
	}
	if err := l.commitLocked(seq); err != nil {
		return 0, err
	}
	return id, nil
}

// AppendNoSync implements BatchLog: the record is written and sequenced
// exactly like Append, but the call returns without waiting for the flush.
// The staged record becomes durable at the next Commit (or any later
// durable Append/Remove, whose group-commit leader covers it); until then a
// crash loses it as a torn tail. Close's final safety sync also covers a
// staged suffix.
func (l *FileLog) AppendNoSync(rec []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id, _, err := l.appendLiveLocked(rec)
	return id, err
}

// appendLiveLocked appends rec and keeps a copy of it in the live map.
func (l *FileLog) appendLiveLocked(rec []byte) (uint64, uint64, error) {
	id, _, seq, err := l.appendLocked(rec)
	if err != nil {
		return 0, 0, err
	}
	l.live[id] = bytes.Clone(rec)
	l.liveBytes += int64(len(rec))
	return id, seq, nil
}

// Remove implements Log: every remove record of the batch is written, then
// one group commit makes them durable together.
func (l *FileLog) Remove(ids ...uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	var missing error
	wrote := false
	for _, id := range ids {
		if _, ok := l.live[id]; !ok {
			missing = ErrNotFound
			continue
		}
		if err := l.writeLocked(kindRemove, id, nil); err != nil {
			return err
		}
		wrote = true
	}
	if !wrote {
		return missing
	}
	if err := l.commitLocked(l.writeSeq); err != nil {
		return err
	}
	for _, id := range ids {
		old, ok := l.live[id]
		if !ok {
			continue
		}
		l.liveBytes -= int64(len(old))
		delete(l.live, id)
		l.stats.Removes++
	}
	if l.size >= compactFloor && l.size >= compactFactor*(l.liveBytes+1) {
		if err := l.compactLocked(); err != nil {
			return err
		}
	}
	return missing
}

// compactLocked rewrites the log as its live records in id order, through
// the appender's durable replace. When the last id issued is no longer
// live, a trailing remove record for it keeps the high-water mark: recovery
// folds every record's id into the next one, so ids stay strictly
// increasing across the compaction and a reopen.
func (l *FileLog) compactLocked() error {
	var tmp appender
	if err := l.openReplacementLocked(&tmp); err != nil {
		return fmt.Errorf("stable: compact: %w", err)
	}
	ids := l.liveIDsLocked()
	var err error
	for _, id := range ids {
		if err = tmp.writeLocked(kindAppend, id, l.live[id]); err != nil {
			break
		}
	}
	if last := l.next - 1; err == nil && last > 0 && (len(ids) == 0 || ids[len(ids)-1] < last) {
		err = tmp.writeLocked(kindRemove, last, nil)
	}
	if err := l.replaceLocked(&tmp, err); err != nil {
		return fmt.Errorf("stable: compact: %w", err)
	}
	l.stats.Compactions++
	return nil
}

func (l *FileLog) liveIDsLocked() []uint64 {
	ids := make([]uint64, 0, len(l.live))
	for id := range l.live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Replay implements Log.
func (l *FileLog) Replay(fn func(id uint64, rec []byte) error) error {
	l.mu.Lock()
	ids := l.liveIDsLocked()
	recs := make([][]byte, len(ids))
	for i, id := range ids {
		recs[i] = l.live[id]
	}
	l.mu.Unlock()
	for i, id := range ids {
		if err := fn(id, recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Len implements Log.
func (l *FileLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.live)
}
