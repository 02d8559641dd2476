package server

import (
	"sync"
	"testing"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/stable"
	"rover/internal/store/disk"
	"rover/internal/urn"
	"rover/internal/wire"
)

// publishProbe checks, as each read reply leaves, that every object version
// it reports is no newer than what the store publishes at that instant:
// published versions are durable, so a reply within them shows nothing a
// crash could lose. services maps a request seq to its service.
type publishProbe struct {
	t        *testing.T
	ds       *disk.Store
	u        urn.URN
	services map[uint64]string

	mu  sync.Mutex
	got map[uint64]uint64 // seq -> version the reply reports
}

func (p *publishProbe) SendFrame(f wire.Frame) bool {
	frames := []wire.Frame{f}
	if f.Type == wire.FrameBatch {
		frames, _ = wire.UnbatchFrames(f.Payload)
	}
	for _, sf := range frames {
		if sf.Type != wire.FrameReply {
			continue
		}
		var rep qrpc.Reply
		if err := wire.Unmarshal(sf.Payload, &rep); err != nil {
			p.t.Error(err)
			continue
		}
		if rep.Status != qrpc.StatusOK {
			p.t.Errorf("seq %d (%s) failed: %s", rep.Seq, p.services[rep.Seq], rep.ErrMsg)
			continue
		}
		ver, ok := p.version(p.services[rep.Seq], rep.Result)
		if !ok {
			continue // not a read
		}
		published := uint64(0)
		for _, e := range p.ds.ListAll() {
			if e.URN == p.u {
				published = e.Version
			}
		}
		if ver > published {
			p.t.Errorf("%s reply (seq %d) shows v%d while the store publishes v%d", p.services[rep.Seq], rep.Seq, ver, published)
		}
		p.mu.Lock()
		p.got[rep.Seq] = ver
		p.mu.Unlock()
	}
	return true
}

// version extracts the object version a read reply reports.
func (p *publishProbe) version(svc string, res []byte) (uint64, bool) {
	switch svc {
	case proto.SvcImport:
		var rep proto.ImportReply
		if err := wire.Unmarshal(res, &rep); err != nil {
			p.t.Error(err)
			return 0, false
		}
		obj, err := rdo.Decode(rep.Object)
		if err != nil {
			p.t.Error(err)
			return 0, false
		}
		return obj.Version, true
	case proto.SvcStat:
		var rep proto.StatReply
		if err := wire.Unmarshal(res, &rep); err != nil {
			p.t.Error(err)
			return 0, false
		}
		return rep.Version, true
	case proto.SvcList:
		var rep proto.ListReply
		if err := wire.Unmarshal(res, &rep); err != nil || len(rep.Entries) != 1 {
			p.t.Errorf("list reply %+v: %v", rep, err)
			return 0, false
		}
		return rep.Entries[0].Version, true
	}
	return 0, false
}

// readRig is a journaled engine over a disk store, with one probed client
// session. A pooled engine also gets a "test.hold" read that parks its only
// worker, so a batch of requests queues up and executes as one chunk.
type readRig struct {
	srv     *Server
	engine  *qrpc.Server
	ds      *disk.Store
	probe   *publishProbe
	pooled  bool
	hold    chan struct{}
	holdSeq uint64
	obj     *rdo.Object
}

type nopSender struct{}

func (nopSender) SendFrame(wire.Frame) bool { return true }

func helloAs(clientID string) wire.Frame {
	return wire.Frame{Type: wire.FrameHello, Payload: wire.Marshal(&qrpc.Hello{ClientID: clientID})}
}

func newReadRig(t *testing.T, workers int) *readRig {
	t.Helper()
	ds := openDisk(t)
	engine := qrpc.NewServer(qrpc.ServerConfig{ServerID: "unit", Workers: workers,
		Journal: stable.NewMemLog(stable.Options{})})
	t.Cleanup(func() { engine.Close() })
	s, err := New(Config{Engine: engine, Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	r := &readRig{srv: s, engine: engine, ds: ds, pooled: workers > 0, hold: make(chan struct{}), obj: counter("c")}
	if err := ds.Create(r.obj); err != nil {
		t.Fatal(err)
	}
	engine.RegisterRead("test.hold", func(string, qrpc.Request) ([]byte, error) {
		<-r.hold
		return nil, nil
	})
	r.probe = &publishProbe{t: t, ds: ds, u: r.obj.URN, services: map[uint64]string{}, got: map[uint64]uint64{}}
	engine.OnConnect(r.probe, 0)
	engine.OnFrame(r.probe, helloAs("reader"), 0)
	engine.OnConnect(nopSender{}, 0)
	engine.OnFrame(nopSender{}, helloAs("holder"), 0)
	return r
}

// send delivers reqs from the reader session as seqs from, from+1, ... in
// one batch frame, and waits until they are answered.
func (r *readRig) send(from uint64, reqs ...qrpc.Request) {
	if r.pooled {
		r.holdSeq++
		hold := qrpc.Request{Seq: r.holdSeq, Service: "test.hold"}
		r.engine.OnFrame(nopSender{}, wire.Frame{Type: wire.FrameRequest, Payload: wire.Marshal(&hold)}, 0)
	}
	var frames []wire.Frame
	for i := range reqs {
		req := reqs[i]
		req.Seq = from + uint64(i)
		r.probe.services[req.Seq] = req.Service
		frames = append(frames, wire.Frame{Type: wire.FrameRequest, Payload: wire.Marshal(&req)})
	}
	r.engine.OnFrame(r.probe, wire.BatchFrames(frames), 0)
	if r.pooled {
		r.hold <- struct{}{}
	}
	r.engine.Quiesce()
}

func (r *readRig) reads() []qrpc.Request {
	return []qrpc.Request{
		{Service: proto.SvcImport, Args: wire.Marshal(&proto.ImportArgs{URN: r.obj.URN})},
		{Service: proto.SvcStat, Args: wire.Marshal(&proto.StatArgs{URN: r.obj.URN})},
		{Service: proto.SvcList, Args: wire.Marshal(&proto.ListArgs{Prefix: r.obj.URN})},
	}
}

// TestReadOnlySeesPublishedState: over a staging disk store, a read-only
// request never returns a version that is not yet durable, though it skips
// the journal and the durability barrier. Either another session has
// staged an export of the same object whose barrier has not run, or a
// write and reads of that object share one chunk; in both, every read
// reply reports the published version or the one its touch forced to Sync.
func TestReadOnlySeesPublishedState(t *testing.T) {
	for _, workers := range []int{0, 1} {
		name := map[int]string{0: "inline", 1: "pooled"}[workers]
		t.Run(name+"/staged-by-another-session", func(t *testing.T) {
			r := newReadRig(t, workers)
			// The exporter's handler has run; its barrier has not.
			rep := exportAdd(t, r.srv, r.obj.URN, 1, "5")
			if ents := r.ds.ListAll(); rep.NewVersion != 2 || ents[0].Version != 1 {
				t.Fatalf("export not staged: %+v, store publishes %+v", rep, ents)
			}
			syncs := r.ds.SegmentStats().Syncs
			r.send(1, r.reads()...)
			if got := r.probe.got; len(got) != 3 || got[1] != 2 || got[2] != 2 {
				t.Fatalf("read replies %v, want import and stat at the forced v2", got)
			}
			if r.ds.SegmentStats().Syncs == syncs {
				t.Fatal("import of a staged object did not force a store sync")
			}
			if st := r.engine.Stats(); st.JournalRecords != 0 {
				t.Fatalf("reads wrote %d journal records", st.JournalRecords)
			}
		})
		t.Run(name+"/write-and-reads-in-one-chunk", func(t *testing.T) {
			r := newReadRig(t, workers)
			export := qrpc.Request{Service: proto.SvcExport, Args: wire.Marshal(&proto.ExportArgs{
				URN: r.obj.URN, BaseVer: 1, Invs: []rdo.Invocation{{Object: r.obj.URN, Method: "add", Args: []string{"1"}}}})}
			r.send(1, append([]qrpc.Request{export}, r.reads()...)...)
			if got := r.probe.got; len(got) != 3 || got[2] != 2 || got[3] != 2 {
				t.Fatalf("read replies %v, want import and stat at v2 (after the export)", got)
			}
			if st := r.engine.Stats(); st.ReadsExecuted != 3+int64(r.holdSeq) || st.JournalRecords != 1 {
				t.Fatalf("reads=%d records=%d, want 3 reads and the export's exec record", st.ReadsExecuted, st.JournalRecords)
			}
		})
	}
}
