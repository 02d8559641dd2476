package server

import (
	"bytes"
	"testing"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
	"rover/internal/store"
	"rover/internal/store/disk"
	"rover/internal/urn"
	"rover/internal/wire"
)

// racingStore lands another client's commit on the same object right after
// every CommitOpsBy — the window a reply built by re-reading the store
// would fall into.
type racingStore struct{ store.Backend }

func (r racingStore) CommitOpsBy(obj *rdo.Object, expect uint64, invs []rdo.Invocation, src string) (uint64, error) {
	v, err := r.Backend.CommitOpsBy(obj, expect, invs, src)
	if err != nil {
		return v, err
	}
	next, err := r.Backend.Get(obj.URN)
	if err != nil {
		return v, err
	}
	next.Set("count", "999")
	_, err = r.Backend.Commit(next, v)
	return v, err
}

func exportAdd(t *testing.T, s *Server, u urn.URN, base uint64, n string) *proto.ExportReply {
	t.Helper()
	args := &proto.ExportArgs{URN: u, BaseVer: base, Invs: []rdo.Invocation{{Object: u, Method: "add", Args: []string{n}}}}
	res, err := s.handleExport("exporter", qrpc.Request{Service: proto.SvcExport, Args: wire.Marshal(args)})
	if err != nil {
		t.Fatal(err)
	}
	var rep proto.ExportReply
	if err := wire.Unmarshal(res, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

func openDisk(t *testing.T) *disk.Store {
	t.Helper()
	ds, err := disk.Open(disk.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// TestExportReplyObjectAtNewVersion: an export reply carries the object it
// committed, at exactly NewVersion, byte-identical to the store's copy at
// that version — even when another commit lands before the reply is built.
func TestExportReplyObjectAtNewVersion(t *testing.T) {
	backends := map[string]func(t *testing.T) store.Backend{
		"memory": func(*testing.T) store.Backend { return store.New() },
		"disk":   func(t *testing.T) store.Backend { return openDisk(t) },
		"racing": func(*testing.T) store.Backend { return racingStore{store.New()} },
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			st := mk(t)
			s, err := New(Config{Engine: qrpc.NewServer(qrpc.ServerConfig{}), Store: st})
			if err != nil {
				t.Fatal(err)
			}
			obj := counter("c")
			if err := st.Create(obj); err != nil {
				t.Fatal(err)
			}
			rep := exportAdd(t, s, obj.URN, 1, "5")
			if rep.Outcome != proto.OutcomeCommitted || rep.NewVersion != 2 {
				t.Fatalf("export: %+v", rep)
			}
			got, err := rdo.Decode(rep.Object)
			if err != nil {
				t.Fatal(err)
			}
			if got.Version != rep.NewVersion {
				t.Fatalf("reply object at v%d, NewVersion %d", got.Version, rep.NewVersion)
			}
			if v, _ := got.Get("count"); v != "5" {
				t.Fatalf("reply object count %q, want the committed 5", v)
			}
			if name == "racing" {
				return // the store has moved on; its copy at v2 is gone
			}
			cur, err := s.Store().Get(obj.URN)
			if err != nil {
				t.Fatal(err)
			}
			if cur.Version != rep.NewVersion || !bytes.Equal(cur.Encode(), rep.Object) {
				t.Fatalf("reply object differs from the store's v%d copy", rep.NewVersion)
			}
		})
	}
}

// callbackProbe checks, as each invalidation callback leaves, that the
// version it announces is already durable and published in the store.
type callbackProbe struct {
	t     *testing.T
	ds    *disk.Store
	syncs int64 // segment syncs before the export
	got   []proto.InvalidateEvent
}

func (p *callbackProbe) SendFrame(f wire.Frame) bool {
	if f.Type != wire.FrameCallback {
		return true
	}
	var cb qrpc.Callback
	var ev proto.InvalidateEvent
	if err := wire.Unmarshal(f.Payload, &cb); err != nil {
		p.t.Fatal(err)
	}
	if err := wire.Unmarshal(cb.Payload, &ev); err != nil {
		p.t.Fatal(err)
	}
	if p.ds.SegmentStats().Syncs <= p.syncs {
		p.t.Errorf("callback for v%d sent before any store sync", ev.NewVersion)
	}
	if ents := p.ds.ListAll(); len(ents) != 1 || ents[0].Version != ev.NewVersion {
		p.t.Errorf("callback for v%d sent while the store publishes %+v", ev.NewVersion, ents)
	}
	p.got = append(p.got, ev)
	return true
}

// TestCallbackAfterDurable: over a staging store, an export with
// subscribers syncs before its invalidation callback leaves, so no
// subscriber is told about a version a crash could lose. Without
// subscribers the export stays staged for the engine's barrier.
func TestCallbackAfterDurable(t *testing.T) {
	ds := openDisk(t)
	engine := qrpc.NewServer(qrpc.ServerConfig{ServerID: "unit"})
	s, err := New(Config{Engine: engine, Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	obj := counter("c")
	if err := ds.Create(obj); err != nil {
		t.Fatal(err)
	}

	// No subscriber: the commit is staged, not yet durable.
	before := ds.SegmentStats().Syncs
	rep := exportAdd(t, s, obj.URN, 1, "1")
	if ds.SegmentStats().Syncs != before {
		t.Fatal("an export without subscribers synced inside the handler")
	}
	if ents := ds.ListAll(); ents[0].Version != 1 {
		t.Fatalf("staged commit published before the barrier: %+v", ents)
	}
	if err := ds.Sync(); err != nil {
		t.Fatal(err)
	}

	probe := &callbackProbe{t: t, ds: ds}
	engine.OnConnect(probe, 0)
	engine.OnFrame(probe, wire.Frame{Type: wire.FrameHello, Payload: wire.Marshal(&qrpc.Hello{ClientID: "sub"})}, 0)
	sub := &proto.SubscribeArgs{Prefix: obj.URN}
	if _, err := s.handleSubscribe("sub", qrpc.Request{Args: wire.Marshal(sub)}); err != nil {
		t.Fatal(err)
	}
	probe.syncs = ds.SegmentStats().Syncs
	rep = exportAdd(t, s, obj.URN, rep.NewVersion, "1")
	if len(probe.got) != 1 || probe.got[0].NewVersion != rep.NewVersion {
		t.Fatalf("callbacks %+v, want one for v%d", probe.got, rep.NewVersion)
	}
}
