package qrpc

import (
	"errors"
	"fmt"
	"regexp"
	"sync"
	"testing"

	"rover/internal/stable"
	"rover/internal/wire"
)

// eventTrace records the engine's durability-relevant steps in order, one
// letter each: H handler ran, B barrier returned, A exec record appended,
// C journal commit returned, R reply frame sent.
type eventTrace struct {
	mu sync.Mutex
	ev []byte
}

func (e *eventTrace) add(c byte) {
	e.mu.Lock()
	e.ev = append(e.ev, c)
	e.mu.Unlock()
}

func (e *eventTrace) String() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return string(e.ev)
}

// traceLog is a plain stable.Log (no staging): every Append is durable on
// return, so the engine takes the per-task path.
type traceLog struct {
	stable.Log
	tr *eventTrace
}

func (l *traceLog) Append(rec []byte) (uint64, error) {
	id, err := l.Log.Append(rec)
	l.tr.add('A')
	return id, err
}

// traceBatchLog is a stable.BatchLog that records staged appends and
// commits. When dirtyAt > 0, the dirtyAt-th AppendNoSync writes its record
// but reports an error — the crash-before-ack write.
type traceBatchLog struct {
	*stable.MemLog
	tr      *eventTrace
	mu      sync.Mutex
	n       int
	dirtyAt int
}

func (l *traceBatchLog) AppendNoSync(rec []byte) (uint64, error) {
	id, err := l.MemLog.AppendNoSync(rec)
	l.tr.add('A')
	l.mu.Lock()
	l.n++
	dirty := l.n == l.dirtyAt
	l.mu.Unlock()
	if err == nil && dirty {
		return 0, fmt.Errorf("dirty append (record %d persisted)", id)
	}
	return id, err
}

func (l *traceBatchLog) Commit() error {
	err := l.MemLog.Commit()
	l.tr.add('C')
	return err
}

// traceSender records an R for every frame that carries a reply.
type traceSender struct {
	tr      *eventTrace
	mu      sync.Mutex
	replies []*Reply
}

func (s *traceSender) SendFrame(f wire.Frame) bool {
	frames := []wire.Frame{f}
	if f.Type == wire.FrameBatch {
		frames, _ = wire.UnbatchFrames(f.Payload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sent := false
	for _, sf := range frames {
		if sf.Type != wire.FrameReply {
			continue
		}
		rep := &Reply{}
		if err := wire.Unmarshal(sf.Payload, rep); err == nil {
			s.replies = append(s.replies, rep)
			sent = true
		}
	}
	if sent {
		s.tr.add('R')
	}
	return true
}

func (s *traceSender) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.replies)
}

// requestBatch packs requests seqs lo..hi into one FrameBatch, as a client
// draining its offline queue sends them.
func requestBatch(lo, hi uint64) wire.Frame {
	var subs []wire.Frame
	for seq := lo; seq <= hi; seq++ {
		subs = append(subs, requestFrame(seq, "op", []byte{byte(seq)}))
	}
	return wire.BatchFrames(subs)
}

// newTracedServer builds a journaled server whose handler, barrier and
// sender all write to tr. barrierErr, when non-nil, is what the barrier
// returns.
func newTracedServer(journal stable.Log, workers int, tr *eventTrace, barrierErr *error, execs map[uint64]int) (*Server, *traceSender) {
	srv := NewServer(ServerConfig{ServerID: "srv", Journal: journal, Workers: workers})
	var mu sync.Mutex
	srv.Register("op", func(_ string, req Request) ([]byte, error) {
		mu.Lock()
		execs[req.Seq]++
		mu.Unlock()
		tr.add('H')
		return req.Args, nil
	})
	srv.SetDurable(func() error {
		tr.add('B')
		if barrierErr != nil {
			return *barrierErr
		}
		return nil
	})
	snd := &traceSender{tr: tr}
	srv.OnConnect(snd, 0)
	// LowSeq 0: no prune record, so the journal holds only exec records.
	srv.OnFrame(snd, helloFrame("c1", 0), 0)
	return srv, snd
}

// TestDurabilityOrderBatched pins the batched path's order, per chunk:
// every handler, then the barrier, then every exec record, then ONE journal
// commit, and only then the chunk's reply frame.
func TestDurabilityOrderBatched(t *testing.T) {
	tr := &eventTrace{}
	execs := map[uint64]int{}
	jl := &traceBatchLog{MemLog: stable.NewMemLog(stable.Options{}), tr: tr}
	srv, snd := newTracedServer(jl, 1, tr, nil, execs)
	defer srv.Close()
	const n = 12
	srv.OnFrame(snd, requestBatch(1, n), 0)
	srv.Quiesce()
	if snd.count() != n {
		t.Fatalf("got %d replies, want %d", snd.count(), n)
	}
	got := tr.String()
	if !regexp.MustCompile(`^(H+BA+CR)+$`).MatchString(got) {
		t.Fatalf("batched event order %q, want per chunk handlers→barrier→appends→commit→reply", got)
	}
	// Each chunk's handler, append and reply counts agree.
	for _, chunk := range regexp.MustCompile(`H+BA+CR`).FindAllString(got, -1) {
		h := regexp.MustCompile(`H+`).FindString(chunk)
		a := regexp.MustCompile(`A+`).FindString(chunk)
		if len(h) != len(a) {
			t.Errorf("chunk %q: %d handlers but %d exec records", chunk, len(h), len(a))
		}
	}
}

// TestDurabilityOrderPerTask pins the per-task path's order: handler, then
// barrier, then the durable exec append, then the reply.
func TestDurabilityOrderPerTask(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			tr := &eventTrace{}
			execs := map[uint64]int{}
			jl := &traceLog{Log: stable.NewMemLog(stable.Options{}), tr: tr}
			srv, snd := newTracedServer(jl, workers, tr, nil, execs)
			defer srv.Close()
			const n = 6
			for seq := uint64(1); seq <= n; seq++ {
				srv.OnFrame(snd, requestFrame(seq, "op", nil), 0)
			}
			srv.Quiesce()
			if snd.count() != n {
				t.Fatalf("got %d replies, want %d", snd.count(), n)
			}
			// A reply may cover several tasks, but every task's H B A
			// precedes the R that carries it.
			if got := tr.String(); !regexp.MustCompile(`^((HBA)+R)+$`).MatchString(got) {
				t.Fatalf("per-task event order %q, want handler→barrier→append→reply", got)
			}
		})
	}
}

// TestBarrierErrorRefuses: a failed barrier refuses the request or chunk
// like a journal refusal — nothing released, no exec record written, the
// dispatch marks cleared so a redelivery executes once the store is well.
func TestBarrierErrorRefuses(t *testing.T) {
	logs := map[string]func(tr *eventTrace) stable.Log{
		"batched": func(tr *eventTrace) stable.Log {
			return &traceBatchLog{MemLog: stable.NewMemLog(stable.Options{}), tr: tr}
		},
		"per-task": func(tr *eventTrace) stable.Log {
			return &traceLog{Log: stable.NewMemLog(stable.Options{}), tr: tr}
		},
	}
	for name, mk := range logs {
		t.Run(name, func(t *testing.T) {
			tr := &eventTrace{}
			execs := map[uint64]int{}
			jl := mk(tr)
			barrierErr := errors.New("store sync failed")
			srv, snd := newTracedServer(jl, 1, tr, &barrierErr, execs)
			defer srv.Close()
			const n = 5
			srv.OnFrame(snd, requestBatch(1, n), 0)
			srv.Quiesce()
			if snd.count() != 0 {
				t.Fatalf("%d replies released past a failed barrier", snd.count())
			}
			if jl.Len() != 0 {
				t.Fatalf("%d exec records written past a failed barrier", jl.Len())
			}
			if got := srv.Stats().JournalRefused; got != n {
				t.Errorf("JournalRefused = %d, want %d", got, n)
			}
			srv.mu.Lock()
			pending := len(srv.sessions["c1"].executing)
			srv.mu.Unlock()
			if pending != 0 {
				t.Fatalf("%d dispatch marks left set", pending)
			}
			if srv.JournalError() != nil {
				t.Fatalf("barrier failure poisoned the journal: %v", srv.JournalError())
			}
			// The store recovers (a new incarnation in practice): the
			// redelivered requests run and are answered.
			barrierErr = nil
			srv.OnFrame(snd, requestBatch(1, n), 0)
			srv.Quiesce()
			if snd.count() != n || jl.Len() != n {
				t.Fatalf("after recovery: %d replies, %d exec records, want %d", snd.count(), jl.Len(), n)
			}
		})
	}
}

// TestChunkDirtyExecAppendRecovers is the unit twin of the crash-server
// chaos trap. A chunk's handlers all run before its exec records are
// appended; when the k-th append dirty-fails (record written, error
// returned), the engine must still attempt every later record. After a
// rebuild, every handler that ran is answered from the journal and no
// handler runs twice.
func TestChunkDirtyExecAppendRecovers(t *testing.T) {
	const n = 6
	for k := 1; k <= n; k++ {
		t.Run(fmt.Sprint("dirty=", k), func(t *testing.T) {
			tr := &eventTrace{}
			execs := map[uint64]int{}
			jl := &traceBatchLog{MemLog: stable.NewMemLog(stable.Options{}), tr: tr, dirtyAt: k}
			srv, snd := newTracedServer(jl, 1, tr, nil, execs)
			// Drive the chunk executor directly so the run is exactly
			// seqs 1..n, as a worker claims it.
			srv.mu.Lock()
			sess := srv.sessions["c1"]
			var tasks []poolTask
			for seq := uint64(1); seq <= n; seq++ {
				sess.executing[seq] = true
				tasks = append(tasks, poolTask{from: snd, clientID: "c1", sess: sess,
					handler: srv.handlers["op"], req: Request{Seq: seq, Service: "op", Args: []byte{byte(seq)}}})
			}
			srv.mu.Unlock()
			if staged, ok := srv.executeChunkBatched(tasks); !ok || len(staged) != 0 {
				t.Fatalf("dirty chunk: ok=%v released %d", ok, len(staged))
			}
			if srv.JournalError() == nil {
				t.Fatal("dirty append did not poison the incarnation")
			}
			srv.Close()
			if jl.Len() != n {
				t.Fatalf("journal holds %d exec records, want all %d", jl.Len(), n)
			}

			jl.dirtyAt = 0
			srv2, snd2 := newTracedServer(jl, 1, tr, nil, execs)
			defer srv2.Close()
			if err := srv2.JournalError(); err != nil {
				t.Fatalf("recovery: %v", err)
			}
			srv2.OnFrame(snd2, requestBatch(1, n), 0)
			srv2.Quiesce()
			if snd2.count() != n {
				t.Fatalf("rebuild answered %d of %d", snd2.count(), n)
			}
			for seq := uint64(1); seq <= n; seq++ {
				if execs[seq] != 1 {
					t.Errorf("seq %d ran %d times", seq, execs[seq])
				}
			}
			if got := srv2.Stats().ReplaysServed; got != n {
				t.Errorf("ReplaysServed = %d, want %d (answered from the journal)", got, n)
			}
		})
	}
}
