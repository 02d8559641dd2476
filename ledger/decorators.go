package main

import (
	"os"
	"sync/atomic"
	"time"

	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/store/disk"
	"rover/internal/urn"
)

// timing accumulates the calls into one layer function and the wall time
// they took. It is safe for concurrent use and allocation-free, so a traced
// run pays two clock reads per call and nothing else.
type timing struct {
	calls atomic.Int64
	nanos atomic.Int64
}

func (t *timing) since(start time.Time) {
	t.calls.Add(1)
	t.nanos.Add(int64(time.Since(start)))
}

func (t *timing) snap() (calls, nanos int64) { return t.calls.Load(), t.nanos.Load() }

// timedLog wraps a stable.Log and times its appends. wrapLog returns a
// timedBatchLog when the inner log is a stable.BatchLog, because the QRPC
// engines type-assert that interface and would otherwise take a different
// code path than the untraced program.
type timedLog struct {
	stable.Log
	appends timing

	// extraSyncPath, when set, makes every durable append or commit pay one
	// more fsync of the log file: the injected regression the benchmark's
	// self-test must catch.
	extraSyncPath string
	extraSyncs    atomic.Int64
}

type timedBatchLog struct {
	*timedLog
	bl stable.BatchLog
}

func wrapLog(inner stable.Log, extraSyncPath string) (stable.Log, *timedLog) {
	tl := &timedLog{Log: inner, extraSyncPath: extraSyncPath}
	if bl, ok := inner.(stable.BatchLog); ok {
		return &timedBatchLog{timedLog: tl, bl: bl}, tl
	}
	return tl, tl
}

func (l *timedLog) Append(rec []byte) (uint64, error) {
	start := time.Now()
	id, err := l.Log.Append(rec)
	l.appends.since(start)
	if err == nil {
		l.extraSync()
	}
	return id, err
}

func (l *timedLog) Stats() stable.Stats {
	s := l.Log.Stats()
	s.Syncs += l.extraSyncs.Load()
	return s
}

func (l *timedLog) extraSync() {
	if l.extraSyncPath == "" {
		return
	}
	f, err := os.Open(l.extraSyncPath)
	if err != nil {
		return
	}
	if f.Sync() == nil {
		l.extraSyncs.Add(1)
	}
	f.Close()
}

func (l *timedBatchLog) AppendNoSync(rec []byte) (uint64, error) {
	start := time.Now()
	id, err := l.bl.AppendNoSync(rec)
	l.appends.since(start)
	return id, err
}

func (l *timedBatchLog) Commit() error {
	err := l.bl.Commit()
	if err == nil {
		l.extraSync()
	}
	return err
}

// timedStore wraps the disk store backend and times reads and commits.
// Embedding *disk.Store forwards every other method, including the optional
// store.OpsReader and store.CacheTuner interfaces the program type-asserts.
type timedStore struct {
	*disk.Store
	gets    timing
	commits timing
}

var (
	_ store.Backend    = (*timedStore)(nil)
	_ store.OpsReader  = (*timedStore)(nil)
	_ store.CacheTuner = (*timedStore)(nil)
)

func (s *timedStore) Get(u urn.URN) (*rdo.Object, error) {
	start := time.Now()
	obj, err := s.Store.Get(u)
	s.gets.since(start)
	return obj, err
}

func (s *timedStore) Create(obj *rdo.Object) error {
	start := time.Now()
	err := s.Store.Create(obj)
	s.commits.since(start)
	return err
}

func (s *timedStore) Commit(obj *rdo.Object, expect uint64) (uint64, error) {
	start := time.Now()
	v, err := s.Store.Commit(obj, expect)
	s.commits.since(start)
	return v, err
}

func (s *timedStore) CommitOps(obj *rdo.Object, expect uint64, invs []rdo.Invocation) (uint64, error) {
	start := time.Now()
	v, err := s.Store.CommitOps(obj, expect, invs)
	s.commits.since(start)
	return v, err
}

func (s *timedStore) CommitOpsBy(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error) {
	start := time.Now()
	v, err := s.Store.CommitOpsBy(obj, expect, invs, src)
	s.commits.since(start)
	return v, err
}
