package qrpc

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"rover/internal/stable"
	"rover/internal/wire"
)

// countLog wraps a journal log. It counts every append and records an A in
// the trace for each exec record and a C for each commit; fail makes every
// append fail as a poisoned log does.
type countLog struct {
	stable.BatchLog
	tr      *eventTrace
	mu      sync.Mutex
	appends int
	fail    bool
}

func (l *countLog) note(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fail {
		return &stable.PoisonedError{Cause: errors.New("disk gone")}
	}
	l.appends++
	if len(rec) > 0 && rec[0] == jrecExec {
		l.tr.add('A')
	}
	return nil
}

func (l *countLog) Append(rec []byte) (uint64, error) {
	if err := l.note(rec); err != nil {
		return 0, err
	}
	return l.BatchLog.Append(rec)
}

func (l *countLog) AppendNoSync(rec []byte) (uint64, error) {
	if err := l.note(rec); err != nil {
		return 0, err
	}
	return l.BatchLog.AppendNoSync(rec)
}

func (l *countLog) Commit() error {
	l.tr.add('C')
	return l.BatchLog.Commit()
}

// roEngine is a journaled server with a write service ("set": bump a
// counter, return it) and a read service ("get": return the counter). The
// trace gets H per handler, B per barrier call, A per exec record, C per
// journal commit and R per reply frame toward client c1.
type roEngine struct {
	srv  *Server
	jl   *countLog
	tr   *eventTrace
	snd  *traceSender
	hold chan struct{} // pooled: the worker waits here inside a holder read

	mu    sync.Mutex
	value int
	gets  int

	holdSnd *traceSender
	holdSeq uint64
}

func newROEngine(t *testing.T, workers int, file bool) *roEngine {
	t.Helper()
	e := &roEngine{tr: &eventTrace{}, hold: make(chan struct{})}
	var base stable.BatchLog = stable.NewMemLog(stable.Options{})
	if file {
		fl, err := stable.OpenFileLog(filepath.Join(t.TempDir(), "journal"), stable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fl.Close() })
		base = fl
	}
	e.jl = &countLog{BatchLog: base, tr: e.tr}
	e.srv = NewServer(ServerConfig{ServerID: "srv", Journal: e.jl, Workers: workers})
	t.Cleanup(func() { e.srv.Close() })
	e.srv.Register("set", func(string, Request) ([]byte, error) {
		e.tr.add('H')
		e.mu.Lock()
		defer e.mu.Unlock()
		e.value++
		return []byte(strconv.Itoa(e.value)), nil
	})
	e.srv.RegisterRead("get", func(string, Request) ([]byte, error) {
		e.tr.add('H')
		e.mu.Lock()
		defer e.mu.Unlock()
		e.gets++
		return []byte(strconv.Itoa(e.value)), nil
	})
	e.srv.RegisterRead("hold", func(string, Request) ([]byte, error) {
		<-e.hold
		return nil, nil
	})
	e.srv.SetDurable(func() error {
		e.tr.add('B')
		return nil
	})
	e.snd = &traceSender{tr: e.tr}
	e.holdSnd = &traceSender{tr: &eventTrace{}}
	for _, c := range []struct {
		snd *traceSender
		id  string
	}{{e.snd, "c1"}, {e.holdSnd, "holder"}} {
		e.srv.OnConnect(c.snd, 0)
		e.srv.OnFrame(c.snd, helloFrame(c.id, 0), 0) // LowSeq 0: no prune record
	}
	return e
}

// run delivers requests as one batch frame from c1 and waits until they are
// answered. On a pooled engine the only worker is first parked inside a
// holder session's read, so the whole batch is queued before the worker
// claims it and executes as one chunk.
func (e *roEngine) run(frames ...wire.Frame) {
	pooled := e.srv.pool != nil
	if pooled {
		e.holdSeq++
		e.srv.OnFrame(e.holdSnd, requestFrame(e.holdSeq, "hold", nil), 0)
	}
	e.srv.OnFrame(e.snd, wire.BatchFrames(frames), 0)
	if pooled {
		e.hold <- struct{}{}
	}
	e.srv.Quiesce()
}

// reset clears the trace and the reply list before a measured step.
func (e *roEngine) reset() {
	e.tr.mu.Lock()
	e.tr.ev = nil
	e.tr.mu.Unlock()
	e.snd.mu.Lock()
	e.snd.replies = nil
	e.snd.mu.Unlock()
}

func (e *roEngine) syncs() int64 { return e.jl.Stats().Syncs }

func set(seq uint64) wire.Frame { return requestFrame(seq, "set", nil) }
func get(seq uint64) wire.Frame { return requestFrame(seq, "get", nil) }

// TestReadOnlyRequestsSkipJournal pins what RegisterRead buys on both
// execution paths and both journal logs: a read costs no exec record, no
// log sync, no barrier and no commit, yet is answered; a chunk of reads
// leaves a staged ack hint staged; a mixed chunk pays one barrier and one
// commit for its writes and releases every reply after it, in seq order;
// and a poisoned journal refuses reads like any other request.
func TestReadOnlyRequestsSkipJournal(t *testing.T) {
	engines := []struct {
		name    string
		workers int
		// mixed is the trace of a set/get/set batch: one chunk on the
		// pooled path, three per-task executes inline.
		mixed string
	}{
		{"inline", 0, "HBAHHBAR"},
		{"pooled", 1, "HHHBAACR"},
	}
	for _, eng := range engines {
		for _, file := range []bool{false, true} {
			name := fmt.Sprintf("%s/memlog", eng.name)
			if file {
				name = fmt.Sprintf("%s/filelog", eng.name)
			}
			holds := int64(0)
			if eng.workers > 0 {
				holds = 1 // the holder read each run parks the worker in
			}
			t.Run(name+"/read", func(t *testing.T) {
				e := newROEngine(t, eng.workers, file)
				syncs := e.syncs()
				e.run(get(1))
				if got := e.tr.String(); got != "HR" {
					t.Fatalf("trace %q, want HR: handler and reply only", got)
				}
				if e.jl.appends != 0 || e.syncs() != syncs || e.jl.Len() != 0 {
					t.Fatalf("read cost %d appends, %d syncs, %d live records", e.jl.appends, e.syncs()-syncs, e.jl.Len())
				}
				if len(e.snd.replies) != 1 || e.snd.replies[0].Seq != 1 || string(e.snd.replies[0].Result) != "0" {
					t.Fatalf("replies %+v, want seq 1 = 0", e.snd.replies)
				}
				st := e.srv.Stats()
				if st.ReadsExecuted != 1+holds || st.Executed != 1+holds || st.JournalRecords != 0 {
					t.Fatalf("stats reads=%d executed=%d records=%d", st.ReadsExecuted, st.Executed, st.JournalRecords)
				}
				for _, s := range e.srv.Sessions() {
					if s.ClientID == "c1" && (s.CachedReplies != 0 || s.MaxExecuted != 1) {
						t.Fatalf("session %+v: read reply cached or maxExec not advanced", s)
					}
				}
			})
			t.Run(name+"/reads-only-chunk", func(t *testing.T) {
				e := newROEngine(t, eng.workers, file)
				e.run(set(1))
				e.srv.OnFrame(e.snd, ackFrame(1), 0) // a staged ack hint
				syncs, appends := e.syncs(), e.jl.appends
				e.reset()
				e.run(get(2), get(3), get(4))
				if got := e.tr.String(); got != "HHHR" {
					t.Fatalf("trace %q, want HHHR: no barrier, record or commit", got)
				}
				if e.syncs() != syncs || e.jl.appends != appends {
					t.Fatalf("reads cost %d syncs and %d appends; the staged ack was committed",
						e.syncs()-syncs, e.jl.appends-appends)
				}
				if len(e.snd.replies) != 3 {
					t.Fatalf("%d replies, want 3", len(e.snd.replies))
				}
				// The next write's commit covers the staged ack: one sync.
				e.run(set(5))
				if got := e.syncs() - syncs; got != 1 {
					t.Fatalf("write after reads cost %d syncs, want 1", got)
				}
			})
			t.Run(name+"/write-read-write", func(t *testing.T) {
				e := newROEngine(t, eng.workers, file)
				e.run(set(1), get(2), set(3))
				if got := e.tr.String(); got != eng.mixed {
					t.Fatalf("trace %q, want %q", got, eng.mixed)
				}
				var seqs, results []string
				for _, rep := range e.snd.replies {
					seqs = append(seqs, strconv.FormatUint(rep.Seq, 10))
					results = append(results, string(rep.Result))
				}
				if fmt.Sprint(seqs) != "[1 2 3]" || fmt.Sprint(results) != "[1 1 2]" {
					t.Fatalf("replies seqs %v results %v, want [1 2 3] and [1 1 2]", seqs, results)
				}
				if e.jl.Len() != 2 {
					t.Fatalf("journal holds %d records, want the 2 exec records", e.jl.Len())
				}
				for _, s := range e.srv.Sessions() {
					if s.ClientID == "c1" && (s.CachedReplies != 2 || s.MaxExecuted != 3) {
						t.Fatalf("session %+v, want 2 cached replies and maxExec 3", s)
					}
				}
			})
			t.Run(name+"/poisoned", func(t *testing.T) {
				e := newROEngine(t, eng.workers, file)
				e.jl.fail = true
				// No holder: it is a read, and would be refused too.
				e.srv.OnFrame(e.snd, set(1), 0)
				e.srv.Quiesce()
				if e.srv.JournalError() == nil {
					t.Fatal("failed exec append did not poison the journal")
				}
				e.srv.OnFrame(e.snd, wire.BatchFrames([]wire.Frame{get(2), get(3)}), 0)
				e.srv.Quiesce()
				if e.gets != 0 || len(e.snd.replies) != 0 {
					t.Fatalf("poisoned server ran %d reads and released %d replies", e.gets, len(e.snd.replies))
				}
				if st := e.srv.Stats(); st.JournalRefused != 3 || st.ReadsExecuted != 0 {
					t.Fatalf("JournalRefused = %d, ReadsExecuted = %d, want 3 and 0", st.JournalRefused, st.ReadsExecuted)
				}
			})
		}
	}
}

// TestReadOnlyRedeliveryAfterCrash crashes a journaled server after a
// read's reply went out but before the client acknowledged it. The next
// incarnation has no record of the read, so the redelivered read runs
// again, against the recovered state; the interleaved writes still run
// exactly once, answered from the journal. The seqs the reads leave
// unjournaled do not confuse maxExec, the acked set or the LowSeq floor.
func TestReadOnlyRedeliveryAfterCrash(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			journal := stable.NewMemLog(stable.Options{})
			var mu sync.Mutex
			value := 0 // the durable object state: it survives the crash
			execs := map[uint64]int{}
			boot := func() (*Server, *harnessSender) {
				srv := NewServer(ServerConfig{ServerID: "srv", Journal: journal, Workers: workers})
				t.Cleanup(func() { srv.Close() })
				if err := srv.JournalError(); err != nil {
					t.Fatalf("recovery: %v", err)
				}
				srv.Register("set", func(_ string, req Request) ([]byte, error) {
					mu.Lock()
					defer mu.Unlock()
					execs[req.Seq]++
					value++
					return []byte(strconv.Itoa(value)), nil
				})
				srv.RegisterRead("get", func(_ string, req Request) ([]byte, error) {
					mu.Lock()
					defer mu.Unlock()
					execs[req.Seq]++
					return []byte(strconv.Itoa(value)), nil
				})
				up := true
				snd := &harnessSender{up: &up}
				srv.OnConnect(snd, 0)
				return srv, snd
			}
			deliver := func(srv *Server, snd *harnessSender, frames ...wire.Frame) map[uint64]string {
				t.Helper()
				for _, f := range frames {
					srv.OnFrame(snd, f, 0)
					srv.Quiesce() // one request at a time: deterministic order
				}
				got := map[uint64]string{}
				for _, rep := range drainReplies(t, snd) {
					got[rep.Seq] = string(rep.Result)
				}
				return got
			}
			welcome := func(srv *Server, snd *harnessSender, lowSeq uint64) *Welcome {
				t.Helper()
				srv.OnFrame(snd, helloFrame("c1", lowSeq), 0)
				for _, f := range snd.queue {
					if f.Type == wire.FrameWelcome {
						w := &Welcome{}
						if err := wire.Unmarshal(f.Payload, w); err != nil {
							t.Fatal(err)
						}
						snd.queue = nil
						return w
					}
				}
				t.Fatal("no Welcome")
				return nil
			}

			// Incarnation 1: set 1, get 2, set 3, get 4. Only seq 1 is
			// acked; the replies of 2, 3 and 4 go out but are never acked.
			srv1, snd1 := boot()
			welcome(srv1, snd1, 1)
			got := deliver(srv1, snd1, set(1), get(2), set(3), get(4), ackFrame(1))
			if fmt.Sprint(got) != "map[1:1 2:1 3:2 4:2]" {
				t.Fatalf("first replies %v", got)
			}
			if rec := srv1.Stats().JournalRecords; rec != 4 {
				t.Fatalf("journal records = %d, want 2 exec + 1 prune + 1 ack", rec)
			}

			// Crash. Meanwhile the object moved on (another home's write,
			// restored from a newer backup): recovered state is at least as
			// new as what the first read saw.
			mu.Lock()
			value = 5
			mu.Unlock()
			srv2, snd2 := boot()
			if w := welcome(srv2, snd2, 2); w.HighSeq != 3 {
				t.Fatalf("Welcome.HighSeq after restart = %d, want 3 (the highest journaled seq)", w.HighSeq)
			}
			sess := srv2.Sessions()
			if len(sess) != 1 || sess[0].MaxExecuted != 3 || sess[0].LowSeq != 2 || sess[0].CachedReplies != 1 {
				t.Fatalf("recovered session %+v, want maxExec 3, LowSeq 2, seq 3's reply cached", sess)
			}
			got = deliver(srv2, snd2, get(2), set(3), get(4), set(5))
			if fmt.Sprint(got) != "map[2:5 3:2 4:5 5:6]" {
				t.Fatalf("redelivered replies %v, want reads re-run at 5, seq 3 replayed, seq 5 = 6", got)
			}
			if execs[1] != 1 || execs[3] != 1 || execs[5] != 1 {
				t.Fatalf("a write ran twice: %v", execs)
			}
			if execs[2] != 2 || execs[4] != 2 {
				t.Fatalf("reads ran %d and %d times, want 2 each (re-run after the crash)", execs[2], execs[4])
			}
			if st := srv2.Stats(); st.ReplaysServed != 1 || st.ReadsExecuted != 2 {
				t.Fatalf("ReplaysServed = %d, ReadsExecuted = %d, want 1 and 2", st.ReplaysServed, st.ReadsExecuted)
			}
			// Ack the reads and the writes. Acks of seqs that have no exec
			// record are journaled like any other.
			deliver(srv2, snd2, ackFrame(2, 3, 4, 5))

			// Incarnation 3: every acked seq stays acked across the gaps, a
			// stale redelivery of a read is dropped, and a Hello floor past
			// them prunes everything.
			srv3, snd3 := boot()
			if w := welcome(srv3, snd3, 2); w.HighSeq != 5 {
				t.Fatalf("Welcome.HighSeq = %d, want 5", w.HighSeq)
			}
			if s := srv3.Sessions()[0]; s.CachedReplies != 0 || s.AckedPending != 4 {
				t.Fatalf("recovered session %+v, want nothing cached and 4 acked seqs", s)
			}
			if got := deliver(srv3, snd3, get(2), get(4)); len(got) != 0 {
				t.Fatalf("acked reads answered again: %v", got)
			}
			if execs[2] != 2 || execs[4] != 2 {
				t.Fatalf("acked reads re-ran: %v", execs)
			}
			welcome(srv3, snd3, 6)
			if s := srv3.Sessions()[0]; s.AckedPending != 0 || s.LowSeq != 6 || s.MaxExecuted != 5 {
				t.Fatalf("after floor 6: %+v", s)
			}
			if got := deliver(srv3, snd3, get(6)); got[6] != "6" {
				t.Fatalf("new read after the floor: %v", got)
			}
		})
	}
}
