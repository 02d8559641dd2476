// Replication-layer tests. They run as an external test package so the
// pair harness can use the rover facade (which itself wires repl into the
// server); everything executes deterministically under a virtual-time
// scheduler over simulated links.
package repl_test

import (
	"bytes"
	"fmt"
	"testing"

	"rover"
	"rover/internal/netsim"
	"rover/internal/rdo"
	"rover/internal/repl"
	"rover/internal/transport"
	"rover/internal/urn"
	"rover/internal/vtime"
	"rover/internal/wire"
)

func TestClientID(t *testing.T) {
	cases := []struct {
		server, instance, want string
	}{
		{"A", "", "A!repl"},
		{"A", "i2", "A#i2!repl"},
		{"pair-b", "7", "pair-b#7!repl"},
	}
	for _, c := range cases {
		if got := repl.ClientID(c.server, c.instance); got != c.want {
			t.Errorf("ClientID(%q, %q) = %q, want %q", c.server, c.instance, got, c.want)
		}
		if !repl.IsReplClient(repl.ClientID(c.server, c.instance)) {
			t.Errorf("IsReplClient(%q) = false", c.want)
		}
	}
	if repl.IsReplClient("mobile-1") {
		t.Error("IsReplClient matched a plain client")
	}
	if !repl.IsReplService(repl.SvcApply) || !repl.IsReplService(repl.SvcDigest) {
		t.Error("IsReplService missed a protocol service")
	}
	if repl.IsReplService("rover.invoke") {
		t.Error("IsReplService matched a non-repl service")
	}
}

func TestRecordWireRoundTrip(t *testing.T) {
	u := urn.MustParse("urn:rover:pair/slots")
	records := []repl.Record{
		{Kind: repl.KindOps, URN: u, PrevVersion: 3, Version: 5,
			Invs: []rdo.Invocation{
				{Object: u, Method: "book", Args: []string{"s1", "who"}, BaseVer: 3},
				{Object: u, Method: "book", Args: nil, BaseVer: 4},
			},
			Src: "mobile-1", Check: 0xdeadbeef},
		{Kind: repl.KindState, URN: u, Object: []byte("opaque-encoding")},
		{Kind: repl.KindDelete, URN: u, PrevVersion: 9},
		{Kind: repl.KindExec, ClientID: "mobile-1", Reply: []byte("wire-reply")},
	}
	for i, rec := range records {
		var b wire.Buffer
		rec.MarshalWire(&b)
		var got repl.Record
		if err := got.UnmarshalWire(wire.NewReader(b.Bytes())); err != nil {
			t.Fatalf("record %d: unmarshal: %v", i, err)
		}
		if got.Kind != rec.Kind || got.URN != rec.URN ||
			got.PrevVersion != rec.PrevVersion || got.Version != rec.Version ||
			got.Src != rec.Src || got.Check != rec.Check ||
			!bytes.Equal(got.Object, rec.Object) ||
			got.ClientID != rec.ClientID || !bytes.Equal(got.Reply, rec.Reply) {
			t.Errorf("record %d round trip mismatch:\n got %+v\nwant %+v", i, got, rec)
		}
		if len(got.Invs) != len(rec.Invs) {
			t.Fatalf("record %d: %d invs, want %d", i, len(got.Invs), len(rec.Invs))
		}
		for j := range rec.Invs {
			if got.Invs[j].Method != rec.Invs[j].Method || got.Invs[j].BaseVer != rec.Invs[j].BaseVer {
				t.Errorf("record %d inv %d mismatch: %+v", i, j, got.Invs[j])
			}
		}
	}
	// Unknown kinds must error, not be silently skipped.
	var b wire.Buffer
	b.PutByte('?')
	var bad repl.Record
	if err := bad.UnmarshalWire(wire.NewReader(b.Bytes())); err == nil {
		t.Error("unknown record kind unmarshalled without error")
	}
}

func TestApplyReplyAndDigestRoundTrip(t *testing.T) {
	ar := repl.ApplyReply{Status: repl.ApplyBehind, HaveVersion: 41}
	var b wire.Buffer
	ar.MarshalWire(&b)
	var gar repl.ApplyReply
	if err := gar.UnmarshalWire(wire.NewReader(b.Bytes())); err != nil || gar != ar {
		t.Errorf("ApplyReply round trip: %+v, %v", gar, err)
	}
	dig := repl.DigestReply{ServerID: "pair-a", Entries: []repl.DigestEntry{
		{URN: urn.MustParse("urn:rover:pair/x"), Version: 2, Check: 7},
		{URN: urn.MustParse("urn:rover:pair/y"), Version: 9, Check: 12},
	}}
	var db wire.Buffer
	dig.MarshalWire(&db)
	var gd repl.DigestReply
	if err := gd.UnmarshalWire(wire.NewReader(db.Bytes())); err != nil {
		t.Fatalf("DigestReply unmarshal: %v", err)
	}
	if gd.ServerID != dig.ServerID || len(gd.Entries) != 2 || gd.Entries[1] != dig.Entries[1] {
		t.Errorf("DigestReply round trip mismatch: %+v", gd)
	}
}

// pair is a deterministic two-server replication harness: both servers run
// inline under one virtual-time scheduler, each Replicator's stream rides
// a simulated link to the peer's engine.
type pair struct {
	sched   *vtime.Scheduler
	clock   vtime.SchedulerClock
	srvs    [2]*rover.Server
	reps    [2]*repl.Replicator
	links   [2]*transport.Sim // links[i]: reps[i] stream -> srvs[1-i]
	simSeed int64
	inc     int

	// Disk-backed variant (newDiskPair): per-server store directories so a
	// rebooted server recovers its population, and the origin's compaction
	// cadence (0 = package default).
	dirs         [2]string
	compactEvery int
}

func newPair(t *testing.T) *pair {
	t.Helper()
	p := &pair{sched: vtime.NewScheduler(), simSeed: 1000}
	p.clock = vtime.SchedulerClock{S: p.sched}
	for i := 0; i < 2; i++ {
		p.boot(t, i)
	}
	p.wire()
	t.Cleanup(func() {
		for i := 0; i < 2; i++ {
			if p.srvs[i] != nil {
				p.srvs[i].Close()
			}
		}
	})
	return p
}

// newDiskPair is newPair with both servers on disk-backed stores: reboots
// keep their population, which is what the far-behind catch-up tests need.
func newDiskPair(t *testing.T, compactEvery int) *pair {
	t.Helper()
	p := &pair{sched: vtime.NewScheduler(), simSeed: 1000, compactEvery: compactEvery}
	p.clock = vtime.SchedulerClock{S: p.sched}
	base := t.TempDir()
	for i := 0; i < 2; i++ {
		p.dirs[i] = fmt.Sprintf("%s/srv%d", base, i)
	}
	for i := 0; i < 2; i++ {
		p.boot(t, i)
	}
	p.wire()
	t.Cleanup(func() {
		for i := 0; i < 2; i++ {
			if p.srvs[i] != nil {
				p.srvs[i].Close()
			}
		}
	})
	return p
}

func (p *pair) boot(t *testing.T, i int) {
	t.Helper()
	srv, err := rover.NewServer(rover.ServerOptions{
		ServerID: fmt.Sprintf("pair-%c", 'a'+i), Workers: -1,
		StoreDir: p.dirs[i], StoreCompactEvery: p.compactEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.inc++
	rep, err := srv.EnableReplication(rover.ReplicationOptions{
		Clock: p.clock, Instance: fmt.Sprintf("i%d", p.inc),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.srvs[i], p.reps[i] = srv, rep
}

func (p *pair) wire() {
	for i := 0; i < 2; i++ {
		p.simSeed++
		p.links[i] = transport.NewSim(p.sched, netsim.WaveLAN2, p.simSeed, p.reps[i].Client(), p.srvs[1-i].Engine())
		p.srvs[i].AttachPeerTransport(p.links[i])
	}
}

func (p *pair) drain(t *testing.T) {
	t.Helper()
	if _, drained := p.sched.Run(1_000_000); !drained {
		t.Fatalf("scheduler did not drain (pending=%d)", p.sched.Pending())
	}
}

func (p *pair) requireConverged(t *testing.T) {
	t.Helper()
	if lagA, lagB := p.reps[0].Lag(), p.reps[1].Lag(); lagA != 0 || lagB != 0 {
		t.Fatalf("replication lag at quiesce: %d/%d", lagA, lagB)
	}
	sa, sb := p.srvs[0].Store().Snapshot(), p.srvs[1].Store().Snapshot()
	if !bytes.Equal(sa, sb) {
		t.Fatalf("stores diverged: %d vs %d bytes", len(sa), len(sb))
	}
}

func counterObject(u rover.URN) *rover.Object {
	obj := rover.NewObject(u, "counter")
	obj.Code = `
		proc bump {k} {
			if {[state exists $k]} { error "dup" }
			state set $k yes
		}
	`
	return obj
}

func TestPairStreamsCommits(t *testing.T) {
	p := newPair(t)
	u := rover.MustParseURN("urn:rover:pair/counter")
	if err := p.srvs[0].Seed(counterObject(u)); err != nil {
		t.Fatal(err)
	}
	p.drain(t)
	p.requireConverged(t)

	cli, sim := pairClient(t, p, 0)
	_ = sim
	for i := 0; i < 5; i++ {
		if _, err := cli.Invoke(u, "bump", fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p.drain(t)
	p.requireConverged(t)
	obj, err := p.srvs[1].Store().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok := obj.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("replica missing k%d", i)
		}
	}
	if st := p.reps[0].Stats(); st.RecordsStreamed == 0 {
		t.Error("no records streamed from the origin")
	}
	if st := p.reps[1].Stats(); st.Applied == 0 {
		t.Error("peer applied no records")
	}
}

func TestPairCatchUpAfterOutage(t *testing.T) {
	p := newPair(t)
	u := rover.MustParseURN("urn:rover:pair/counter")
	if err := p.srvs[0].Seed(counterObject(u)); err != nil {
		t.Fatal(err)
	}
	p.drain(t)
	p.requireConverged(t)

	cli, _ := pairClient(t, p, 0)
	// Cut the A->B stream; commits pile up as lag.
	p.links[0].Duplex().SetUp(false)
	for i := 0; i < 4; i++ {
		if _, err := cli.Invoke(u, "bump", fmt.Sprintf("down%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p.drain(t)
	if p.reps[0].Lag() == 0 {
		t.Fatal("expected nonzero lag while the stream link is down")
	}
	// Reconnect: QRPC redelivers the queued records in order.
	p.links[0].Duplex().SetUp(true)
	p.drain(t)
	p.requireConverged(t)
	obj, _ := p.srvs[1].Store().Get(u)
	for i := 0; i < 4; i++ {
		if _, ok := obj.Get(fmt.Sprintf("down%d", i)); !ok {
			t.Errorf("replica missing down%d", i)
		}
	}
}

func TestPairRebuiltPeerCatchesUp(t *testing.T) {
	p := newPair(t)
	u := rover.MustParseURN("urn:rover:pair/counter")
	if err := p.srvs[0].Seed(counterObject(u)); err != nil {
		t.Fatal(err)
	}
	cli, _ := pairClient(t, p, 0)
	for i := 0; i < 3; i++ {
		if _, err := cli.Invoke(u, "bump", fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p.drain(t)
	p.requireConverged(t)

	// Total-loss crash of B: empty store, fresh replication incarnation.
	p.links[0].Duplex().SetUp(false)
	p.links[1].Duplex().SetUp(false)
	p.srvs[1].Close()
	p.boot(t, 1)
	p.wire() // reconnection fires A's digest sweep
	p.drain(t)
	p.requireConverged(t)
	obj, err := p.srvs[1].Store().Get(u)
	if err != nil {
		t.Fatalf("rebuilt replica missing the object: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := obj.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("rebuilt replica missing k%d", i)
		}
	}
	// The empty rebuilt peer must NOT have erased the survivor.
	if p.srvs[0].Store().Len() == 0 {
		t.Fatal("survivor store was emptied by the rebuilt peer")
	}
	if st := p.reps[0].Stats(); st.FullSyncs == 0 && st.CatchUps == 0 {
		t.Error("no catch-up or full sync pushed to the rebuilt peer")
	}
}

func TestPairStreamsExecRecords(t *testing.T) {
	p := newPair(t)
	u := rover.MustParseURN("urn:rover:pair/counter")
	if err := p.srvs[0].Seed(counterObject(u)); err != nil {
		t.Fatal(err)
	}
	cli, _ := pairClient(t, p, 0)
	if _, err := cli.Invoke(u, "bump", "once"); err != nil {
		t.Fatal(err)
	}
	p.drain(t)
	p.requireConverged(t)
	if got := p.reps[1].Stats().ExecInstalled; got == 0 {
		t.Error("peer installed no exec replies")
	}
	if got := p.srvs[1].Engine().Stats().ReplicatedReplies; got == 0 {
		t.Error("peer engine counted no replicated replies")
	}
}

// farBehindPair drives a disk-backed pair into the far-behind shape: B goes
// down holding the object at a low version, A commits `commits` more ops
// (far past the in-memory history window), then BOTH servers reboot — so no
// queued stream records survive anywhere and the gap can only be closed by
// the digest sweep. Returns the URN and B's pre-outage version.
func farBehindPair(t *testing.T, p *pair, commits int) rover.URN {
	t.Helper()
	u := rover.MustParseURN("urn:rover:pair/counter")
	if err := p.srvs[0].Seed(counterObject(u)); err != nil {
		t.Fatal(err)
	}
	p.drain(t)
	p.requireConverged(t)

	cli, _ := pairClient(t, p, 0)
	p.links[0].Duplex().SetUp(false)
	p.links[1].Duplex().SetUp(false)
	p.srvs[1].Close()
	// Drain between invokes: each export commits as its own version step, so
	// the version gap genuinely spans `commits` versions (a single batched
	// export would collapse them into one step).
	for i := 0; i < commits; i++ {
		if _, err := cli.Invoke(u, "bump", fmt.Sprintf("far%d", i)); err != nil {
			t.Fatal(err)
		}
		p.drain(t)
	}
	// Reboot A as well: its outbound stream queue dies with it, so the gap
	// genuinely exceeds anything redelivery could close.
	p.srvs[0].Close()
	p.boot(t, 0)
	p.boot(t, 1)
	p.wire() // reconnection fires the digest sweep
	p.drain(t)
	return u
}

// TestPairFarBehindSegmentCatchUp: a replica behind by far more than the
// in-memory history window converges by segment-streamed deltas — bounded
// chunks read straight from the origin's segment — with no full-state
// transfer.
func TestPairFarBehindSegmentCatchUp(t *testing.T) {
	p := newDiskPair(t, 0)
	const commits = 100 // >> store.DefaultHistoryLimit (32)
	u := farBehindPair(t, p, commits)
	p.requireConverged(t)
	obj, err := p.srvs[1].Store().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < commits; i += 7 {
		if _, ok := obj.Get(fmt.Sprintf("far%d", i)); !ok {
			t.Errorf("replica missing far%d after segment catch-up", i)
		}
	}
	st := p.reps[0].Stats()
	if st.SegmentCatchUps == 0 {
		t.Fatal("far-behind replica converged without a segment catch-up")
	}
	if st.FullSyncs != 0 {
		t.Fatalf("far-behind catch-up fell back to %d full syncs", st.FullSyncs)
	}
	if st.CatchUpBytes == 0 {
		t.Fatal("segment catch-up accounted no bytes")
	}
	// The delta must genuinely undercut shipping the object: compare against
	// the full current state's encoding.
	full := int64(len(p.srvs[0].Store().Snapshot()))
	if st.CatchUpBytes >= full*4 {
		t.Fatalf("catch-up bytes %d vs full state %d: delta path is not paying", st.CatchUpBytes, full)
	}
}

// TestPairFarBehindCompactedFallsBackToFullSync: when compaction has
// collapsed the origin's segment chain, the delta cannot be served — the
// digest sweep must repair via full-state transfer instead, and the pair
// still converges.
func TestPairFarBehindCompactedFallsBackToFullSync(t *testing.T) {
	p := newDiskPair(t, 8) // aggressive compaction breaks the chain
	const commits = 100
	u := farBehindPair(t, p, commits)
	p.requireConverged(t)
	obj, err := p.srvs[1].Store().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obj.Get(fmt.Sprintf("far%d", commits-1)); !ok {
		t.Errorf("replica missing the newest commit after full-sync repair")
	}
	st := p.reps[0].Stats()
	if st.FullSyncs == 0 {
		t.Fatal("compacted origin repaired the gap without a full sync")
	}
	if st.FullSyncBytes == 0 {
		t.Fatal("full sync accounted no bytes")
	}
}

// pairClient attaches a mobile client to pair server i over a simulated
// link and completes the import handshake.
func pairClient(t *testing.T, p *pair, i int) (*rover.Client, *transport.Sim) {
	t.Helper()
	cli, err := rover.NewClient(rover.ClientOptions{ClientID: "pair-test-mobile", Clock: p.clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	p.simSeed++
	sim := transport.NewSim(p.sched, netsim.WaveLAN2, p.simSeed, cli.Engine(), p.srvs[i].Engine())
	cli.AttachTransport(sim)
	imp := cli.Import(rover.MustParseURN("urn:rover:pair/counter"), rover.ImportOptions{})
	p.drain(t)
	if _, err, ok := imp.Result(); !ok || err != nil {
		t.Fatalf("import did not complete: %v", err)
	}
	return cli, sim
}

// TestPairRedeliveredImportRunsAgainAtReplica: imports are read-only, so
// their replies are not streamed to the peer and the peer installs nothing
// for them. A client whose import reply is lost in the primary's crash
// fails over, and the survivor answers the redelivered import by running
// it again, against the replicated state.
func TestPairRedeliveredImportRunsAgainAtReplica(t *testing.T) {
	p := newPair(t)
	u := rover.MustParseURN("urn:rover:pair/counter")
	if err := p.srvs[0].Seed(counterObject(u)); err != nil {
		t.Fatal(err)
	}
	writer, _ := pairClient(t, p, 0)
	for i := 0; i < 3; i++ {
		if _, err := writer.Invoke(u, "bump", fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	p.drain(t)
	p.requireConverged(t)
	streamed, installed := p.reps[0].Stats().ExecsStreamed, p.reps[1].Stats().ExecInstalled
	if streamed == 0 || installed != streamed {
		t.Fatalf("writes: %d exec records streamed, %d installed", streamed, installed)
	}

	reader, err := rover.NewClient(rover.ClientOptions{ClientID: "pair-test-reader", Clock: p.clock})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reader.Close() })
	p.simSeed++
	link := transport.NewSim(p.sched, netsim.WaveLAN2, p.simSeed, reader.Engine(), p.srvs[0].Engine())
	reader.AttachTransport(link)
	imp := reader.Import(u, rover.ImportOptions{})
	// Run until the primary has executed the import, then lose its reply
	// with the primary.
	reads := p.srvs[0].Engine().Stats().ReadsExecuted
	for p.srvs[0].Engine().Stats().ReadsExecuted == reads {
		if !p.sched.Step() {
			t.Fatal("the import never reached the primary")
		}
	}
	link.Duplex().SetUp(false)
	p.links[0].Duplex().SetUp(false)
	p.links[1].Duplex().SetUp(false)
	p.drain(t)
	if _, _, ok := imp.Result(); ok {
		t.Fatal("import completed although its reply was lost")
	}
	if got := p.reps[0].Stats().ExecsStreamed; got != streamed {
		t.Fatalf("the import's reply was streamed: %d exec records, want %d", got, streamed)
	}

	p.simSeed++
	reader.AttachTransport(transport.NewSim(p.sched, netsim.WaveLAN2, p.simSeed, reader.Engine(), p.srvs[1].Engine()))
	p.drain(t)
	obj, err, ok := imp.Result()
	if !ok || err != nil {
		t.Fatalf("redelivered import did not complete at the survivor: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := obj.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("imported object missing k%d", i)
		}
	}
	want, err := p.srvs[1].Store().Get(u)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Version != want.Version || !bytes.Equal(obj.Encode(), want.Encode()) {
		t.Fatalf("imported v%d differs from the survivor's v%d", obj.Version, want.Version)
	}
	es := p.srvs[1].Engine().Stats()
	if es.ReadsExecuted == 0 || es.ReplaysServed != 0 {
		t.Fatalf("survivor: reads=%d replays=%d, want the import run again, not replayed", es.ReadsExecuted, es.ReplaysServed)
	}
	if got := p.reps[1].Stats().ExecInstalled; got != installed {
		t.Fatalf("survivor installed %d exec replies, want %d (none for the import)", got, installed)
	}
}
