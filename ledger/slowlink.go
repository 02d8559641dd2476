package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"rover"
	"rover/internal/netsim"
	"rover/internal/transport"
	"rover/internal/vtime"
)

// slowlink_sync: a mobile client on a CSLIP 14.4 kbit/s link (compression
// advertised, the paper's modeled 15 ms log flush) and a desk client on
// Ethernet share one durable server under virtual time. Each cycle the
// mobile link drops; the desk client updates some of the documents the
// mobile client has cached, and the mobile client queues mixed-priority
// counter updates. On reconnect the mobile client revalidates its cache
// (deltas for the changed documents, not-modified for the rest) and drains
// its queue. Only this workload exercises the wire, compression, delta
// import and priority layers.
const (
	slowDocs       = 64
	slowChanged    = 16 // documents the desk client updates per cycle
	slowCounters   = 96
	slowExports    = 48 // counters the mobile client updates per cycle
	slowCycles     = 8
	slowFlushCost  = 15 * time.Millisecond
	slowEventLimit = 50_000_000
)

var slowPriorities = []rover.Priority{rover.PriorityLow, rover.PriorityNormal, rover.PriorityHigh}

func docURN(i int) rover.URN { return rover.MustParseURN(fmt.Sprintf("urn:rover:home/doc/%d", i)) }

func mobileCounter(i int) rover.URN {
	return rover.MustParseURN(fmt.Sprintf("urn:rover:home/mobile/n%d", i))
}

var words = []string{"rover", "queued", "relocatable", "dynamic", "object", "mobile", "link", "cache", "export", "import", "tentative", "commit"}

// slowScenario is the seeded input of one slowlink_sync run: the initial
// documents and, per cycle, the desk edits and the mobile updates.
type slowScenario struct {
	docs   []string
	cycles []slowCycle
}

type slowCycle struct {
	edits   []slowEdit
	updates []slowUpdate
}

type slowEdit struct {
	doc  int
	word string
}

type slowUpdate struct {
	counter int
	add     int
	pri     rover.Priority
}

func newSlowScenario(seed int64) *slowScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &slowScenario{}
	for i := 0; i < slowDocs; i++ {
		var b bytes.Buffer
		for b.Len() < 480 {
			b.WriteString(words[rng.Intn(len(words))])
			b.WriteByte(' ')
		}
		sc.docs = append(sc.docs, b.String())
	}
	for c := 0; c < slowCycles; c++ {
		var cy slowCycle
		for _, d := range rng.Perm(slowDocs)[:slowChanged] {
			cy.edits = append(cy.edits, slowEdit{d, words[rng.Intn(len(words))]})
		}
		for _, k := range rng.Perm(slowCounters)[:slowExports] {
			cy.updates = append(cy.updates, slowUpdate{k, 1 + rng.Intn(9), slowPriorities[rng.Intn(len(slowPriorities))]})
		}
		sc.cycles = append(sc.cycles, cy)
	}
	return sc
}

// slowRun is one execution of a scenario.
type slowRun struct {
	attempted, failed, ops int64
	lat                    []sample        // virtual
	syncs                  []time.Duration // virtual
	offline                []sample        // wall
	wire                   int64
	setup, reopen, wall    time.Duration
	heapMB                 float64
	d, total               counters
	snapshot               []byte
}

// virtual is the part of a run that virtual time makes deterministic.
func (r *slowRun) virtual() string {
	return fmt.Sprint(r.lat, r.syncs, r.wire, r.ops, r.failed)
}

func runSlowlinkSync(o runOpts) (*phase, error) {
	sc := newSlowScenario(o.seed)
	// Reference: the same operations against an all-in-memory server.
	ref, err := playSlow(sc, o, filepath.Join(o.dir, "ref"), true)
	if err != nil {
		return nil, fmt.Errorf("in-memory replay: %w", err)
	}
	p := &phase{}
	var first *slowRun
	var wall time.Duration
	deadline := time.Now().Add(o.dur)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		dir := filepath.Join(o.dir, strconv.Itoa(rep))
		r, err := playSlow(sc, o, dir, false)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = r
			if !bytes.Equal(r.snapshot, ref.snapshot) {
				return nil, checkf("durable server snapshot differs from the in-memory replay")
			}
			p.total = r.total
		} else if r.virtual() != first.virtual() {
			return nil, checkf("repetition %d diverged in virtual time from the first", rep)
		}
		p.d.add(r.d)
		p.wire += r.wire
		p.attempted += r.attempted
		p.failed += r.failed
		p.ops += r.ops
		p.offline = append(p.offline, r.offline...)
		p.setups = append(p.setups, r.setup)
		p.reopens = append(p.reopens, r.reopen)
		wall += r.wall
	}
	// Every repetition has the same virtual timings; report them once.
	p.lat, p.syncs = first.lat, first.syncs
	p.summarize()
	p.opsPerS = float64(p.ops) / wall.Seconds()
	// The first repetition's heap: later ones also hold the timing samples
	// of the repetitions before them.
	p.heapMB = first.heapMB
	p.failed += p.d.srv.SessionsRefused + p.d.srv.BudgetRefused
	return p, nil
}

func playSlow(sc *slowScenario, o runOpts, dir string, inMemory bool) (*slowRun, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &slowRun{}
	start := time.Now()
	sched := vtime.NewScheduler()
	clock := vtime.SchedulerClock{S: sched}
	// Workers -1: the whole stack runs inside single-threaded scheduler
	// events, as every virtual-time harness of the repository does.
	srv, err := openServer(serverConfig{dir: dir, workers: -1, traced: o.traced && !inMemory, inMemory: inMemory})
	if err != nil {
		return nil, err
	}
	defer srv.close()
	r.reopen = srv.reopen
	for i, text := range sc.docs {
		obj := rover.NewObject(docURN(i), "doc")
		obj.Code = docCode
		obj.Set("text", text)
		if err := srv.store.Create(obj); err != nil {
			return nil, err
		}
	}
	for i := 0; i < slowCounters; i++ {
		if err := srv.store.Create(newCounter(mobileCounter(i))); err != nil {
			return nil, err
		}
	}
	traced := o.traced && !inMemory
	mobile, err := openClient(clientConfig{id: "mobile", flushCost: slowFlushCost, compress: true, clock: clock, traced: traced})
	if err != nil {
		return nil, err
	}
	defer mobile.close()
	desk, err := openClient(clientConfig{id: "desk", flushCost: slowFlushCost, clock: clock, traced: traced})
	if err != nil {
		return nil, err
	}
	defer desk.close()
	mlink := transport.NewSim(sched, netsim.CSLIP14k4, o.seed, mobile.engine, srv.engine)
	mobile.connect(mlink)
	dlink := transport.NewSim(sched, netsim.Ethernet10, o.seed+1, desk.engine, srv.engine)
	desk.connect(dlink)
	var trc *tracer
	if traced {
		trc = &tracer{}
	}
	run := func() error {
		if _, drained := sched.Run(slowEventLimit); !drained {
			return fmt.Errorf("simulation event budget exhausted")
		}
		return nil
	}

	// Fill: the mobile client caches every document and its counters, the
	// desk client the documents.
	var fill []*rover.Future[*rover.Object]
	for i := 0; i < slowDocs; i++ {
		fill = append(fill, mobile.api.Import(docURN(i), rover.ImportOptions{}), desk.api.Import(docURN(i), rover.ImportOptions{}))
	}
	for i := 0; i < slowCounters; i++ {
		fill = append(fill, mobile.api.Import(mobileCounter(i), rover.ImportOptions{}))
	}
	if err := run(); err != nil {
		return nil, err
	}
	for _, f := range fill {
		if _, err, ok := f.Result(); !ok || err != nil {
			return nil, fmt.Errorf("cache fill: ready=%v err=%v", ok, err)
		}
	}
	r.setup = time.Since(start)

	links := []*netsim.Duplex{mlink.Duplex()}
	snap := func() counters { return snapshot(srv, []*clientNode{mobile, desk}, links, trc) }
	texts := append([]string(nil), sc.docs...)
	counts := make([]int64, slowCounters)
	before := snap()
	wallStart := time.Now()
	for _, cy := range sc.cycles {
		mlink.Duplex().SetUp(false)
		var edits []*rover.Future[rover.ExportResult]
		for _, ed := range cy.edits {
			u := docURN(ed.doc)
			if _, err := desk.api.Invoke(u, "note", ed.word); err != nil {
				return nil, fmt.Errorf("desk edit: %w", err)
			}
			f, err := desk.api.Export(u, rover.PriorityNormal)
			if err != nil {
				return nil, fmt.Errorf("desk export: %w", err)
			}
			edits = append(edits, f)
			texts[ed.doc] += " " + ed.word
		}
		if err := run(); err != nil {
			return nil, err
		}
		for _, f := range edits {
			if res, err, ok := f.Result(); !ok || err != nil || res.Outcome != rover.OutcomeCommitted {
				return nil, fmt.Errorf("desk edit did not commit: %v %v", res, err)
			}
		}

		// Offline: the mobile client queues its updates. The collection
		// first settles the garbage the in-process server left behind; a
		// mobile host does not share a heap with its server, and the
		// server's debt would otherwise decide this phase's tail.
		runtime.GC()
		type pending struct {
			exp  *rover.Future[rover.ExportResult]
			imp  *rover.Future[*rover.Object]
			doc  int
			done vtime.Time
		}
		var ps []*pending
		for _, up := range cy.updates {
			u := mobileCounter(up.counter)
			r.attempted++
			t0 := time.Now()
			_, err := mobile.api.Invoke(u, "add", strconv.Itoa(up.add))
			t1 := time.Now()
			trc.end(spanInvoke, t0)
			if err != nil {
				r.failed++
				continue
			}
			f, err := mobile.api.Export(u, up.pri)
			t2 := time.Now()
			trc.end(spanExportCall, t1)
			if err != nil {
				r.failed++
				continue
			}
			// One window across repetitions: a single repetition has too
			// few calls for a steady 99th percentile.
			r.offline = append(r.offline, sample{0, t2.Sub(t0)})
			counts[up.counter] += int64(up.add)
			ps = append(ps, &pending{exp: f})
		}

		// Reconnect, revalidate the cache, drain.
		reconnect := sched.Now()
		mlink.Duplex().SetUp(true)
		for i := 0; i < slowDocs; i++ {
			r.attempted++
			ps = append(ps, &pending{imp: mobile.api.Import(docURN(i), rover.ImportOptions{Revalidate: true}), doc: i})
		}
		for _, q := range ps {
			q := q
			if q.exp != nil {
				q.exp.OnReady(func(rover.ExportResult, error) { q.done = sched.Now() })
			} else {
				q.imp.OnReady(func(*rover.Object, error) { q.done = sched.Now() })
			}
		}
		if err := run(); err != nil {
			return nil, err
		}
		var last vtime.Time
		for _, q := range ps {
			var ok bool
			if q.exp != nil {
				res, err, ready := q.exp.Result()
				ok = ready && err == nil && res.Outcome == rover.OutcomeCommitted
				trc.record(spanCommitWait, q.done.Sub(reconnect))
			} else {
				obj, err, ready := q.imp.Result()
				ok = ready && err == nil
				trc.record(spanImport, q.done.Sub(reconnect))
				if ok {
					if text, _ := obj.Get("text"); text != texts[q.doc] {
						return nil, checkf("revalidated %s does not hold the desk client's edits", docURN(q.doc))
					}
				}
			}
			if !ok {
				r.failed++
				continue
			}
			r.ops++
			r.lat = append(r.lat, sample{0, q.done.Sub(reconnect)})
			if q.done > last {
				last = q.done
			}
		}
		r.syncs = append(r.syncs, last.Sub(reconnect))
	}
	r.wall = time.Since(wallStart)
	r.d = snap()
	r.d.sub(before)
	r.total = snap()
	r.wire = r.d.net.BytesAB + r.d.net.BytesBA
	r.heapMB = liveHeapMB()
	for i, want := range counts {
		obj, err := srv.store.Get(mobileCounter(i))
		if err != nil {
			return nil, checkf("read %s: %v", mobileCounter(i), err)
		}
		if got := countOf(obj); got != want {
			return nil, checkf("%s: server count %d, mobile client added %d", mobileCounter(i), got, want)
		}
	}
	r.snapshot = srv.store.Snapshot()
	return r, nil
}
