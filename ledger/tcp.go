package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rover"
	"rover/internal/transport"
	"rover/internal/vtime"
)

const (
	sessions   = 2
	setupReps  = 5
	opTimeout  = 60 * time.Second
	serverHost = "127.0.0.1:0"
)

// tcpEnv is one durable server with two TCP client sessions, all in this
// process. Setup is repeated setupReps times over the same on-disk state
// (server reopen, client log reopen, reconnect, cache fill) and the last
// incarnation is measured.
type tcpEnv struct {
	o        runOpts
	srvCfg   serverConfig
	cliCache int
	owned    [][]rover.URN // counters each session writes
	fill     [][]rover.URN // what each session imports during set-up

	clock vtime.Clock
	srv   *serverNode
	ln    *transport.TCPServer
	clis  []*clientNode
	trc   *tracer

	setups, syncs, reopens []time.Duration
}

func newTCPEnv(o runOpts, cacheBytes int64, cliCache int, owned [][]rover.URN) *tcpEnv {
	e := &tcpEnv{
		o:        o,
		srvCfg:   serverConfig{dir: o.dir, cacheBytes: cacheBytes, traced: o.traced, extraSync: o.extraSync},
		cliCache: cliCache,
		owned:    owned,
		fill:     owned,
		clock:    vtime.NewRealClock(),
	}
	if o.traced {
		e.trc = &tracer{}
	}
	return e
}

func (e *tcpEnv) addr() string { return e.ln.Addr() }

func (e *tcpEnv) port() int {
	_, p, _ := net.SplitHostPort(e.ln.Addr())
	n, _ := strconv.Atoi(p)
	return n
}

// up opens the server and the sessions and fills each session's cache.
func (e *tcpEnv) up() error {
	start := time.Now()
	srv, err := openServer(e.srvCfg)
	if err != nil {
		return err
	}
	e.srv = srv
	e.reopens = append(e.reopens, srv.reopen)
	if e.ln, err = transport.ListenTCP(serverHost, srv.engine, nil); err != nil {
		return err
	}
	e.clis = nil
	for i := 0; i < sessions; i++ {
		cli, err := openClient(clientConfig{
			id:         fmt.Sprintf("c%d", i),
			logPath:    filepath.Join(e.o.dir, fmt.Sprintf("c%d.log", i)),
			cacheBytes: e.cliCache,
			clock:      e.clock,
			traced:     e.o.traced,
		})
		if err != nil {
			return err
		}
		e.clis = append(e.clis, cli)
	}
	syncStart := time.Now()
	var futs []*rover.Future[*rover.Object]
	for i, cli := range e.clis {
		cli.dialTCP(e.addr(), e.clock)
		for _, u := range e.fill[i] {
			t0 := time.Now()
			f := cli.api.Import(u, rover.ImportOptions{})
			if e.trc != nil {
				f.OnReady(func(*rover.Object, error) { e.trc.end(spanImport, t0) })
			}
			futs = append(futs, f)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	for _, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			return fmt.Errorf("cache fill: %w", err)
		}
	}
	e.syncs = append(e.syncs, time.Since(syncStart))
	e.setups = append(e.setups, time.Since(start))
	return nil
}

func (e *tcpEnv) down() error {
	var err error
	for _, c := range e.clis {
		if cerr := c.close(); err == nil {
			err = cerr
		}
	}
	e.clis = nil
	if e.ln != nil {
		e.ln.Close()
		e.ln = nil
	}
	if e.srv != nil {
		if serr := e.srv.close(); err == nil {
			err = serr
		}
		e.srv = nil
	}
	return err
}

// bringUp runs the repeated setup and leaves the last incarnation up.
func (e *tcpEnv) bringUp() error {
	for rep := 0; rep < setupReps; rep++ {
		if err := e.up(); err != nil {
			e.down()
			return err
		}
		if rep < setupReps-1 {
			if err := e.down(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *tcpEnv) snap() counters { return snapshot(e.srv, e.clis, nil, e.trc) }

// finish fills the phase's setup, heap and whole-run figures, and counts
// the server's refusals (busy Hellos, requests over a session's reply
// budget) as failures: the clients retry them, but each one is an
// operation the server turned away.
func (e *tcpEnv) finish(p *phase) {
	p.failed += p.d.srv.SessionsRefused + p.d.srv.BudgetRefused
	p.setups, p.reopens = e.setups, e.reopens
	if len(p.syncs) == 0 {
		p.syncs = e.syncs // no reconnects: the set-up fills are the syncs
	}
	p.summarize()
	p.heapMB = liveHeapMB()
	p.total = e.snap()
}

// checkCounters compares each owned counter's committed server value with
// the commits its session observed: no lost and no doubled work. An export
// whose outcome the session never learned (it timed out) may or may not
// have committed.
func (e *tcpEnv) checkCounters(ws []*worker) error {
	for i, own := range e.owned {
		for _, u := range own {
			obj, err := e.srv.store.Get(u)
			if err != nil {
				return checkf("read %s: %v", u, err)
			}
			got, want, unknown := countOf(obj), ws[i].commits[u], ws[i].unknown[u]
			if got < want || got > want+unknown {
				return checkf("%s: server count %d, session observed %d commits and %d unresolved exports", u, got, want, unknown)
			}
		}
	}
	return nil
}

// worker is one client's closed-loop outcome.
type worker struct {
	attempted, failed, ops int64
	lat, offline           []sample
	start                  time.Time // of the loop: samples fall in 1 s windows
	commits                map[rover.URN]int64
	unknown                map[rover.URN]int64 // exports whose outcome never arrived
	lastVer                map[rover.URN]uint64
	err                    error
}

// invokeExport runs one counter update through the facade and waits for
// its commit, recording latency and the non-blocking call time. Import
// first makes sure the counter is cached: in read_mixed the blob traffic
// can evict it, and an application re-imports before invoking.
func (s *worker) invokeExport(ctx context.Context, c api, trc *tracer, u rover.URN) {
	s.attempted++
	start := time.Now()
	if _, err := c.Import(u, rover.ImportOptions{}).Wait(ctx); err != nil {
		s.failed++
		return
	}
	t0 := time.Now()
	if _, err := c.Invoke(u, "add", "1"); err != nil {
		s.failed++
		return
	}
	t1 := time.Now()
	trc.end(spanInvoke, t0)
	f, err := c.Export(u, rover.PriorityNormal)
	t2 := time.Now()
	trc.end(spanExportCall, t1)
	if err != nil {
		s.failed++
		return
	}
	res, err := f.Wait(ctx)
	t3 := time.Now()
	trc.end(spanCommitWait, t2)
	if err != nil || res.Outcome != rover.OutcomeCommitted {
		s.failed++
		if !f.Ready() {
			s.unknown[u]++
		}
		return
	}
	s.ops++
	s.commits[u]++
	s.lastVer[u] = res.NewVersion
	win := s.window(t3)
	s.lat = append(s.lat, sample{win, t3.Sub(start)})
	s.offline = append(s.offline, sample{win, t2.Sub(t0)})
}

func (s *worker) window(t time.Time) int { return int(t.Sub(s.start) / time.Second) }

func newWorker() *worker {
	return &worker{commits: map[rover.URN]int64{}, unknown: map[rover.URN]int64{}, lastVer: map[rover.URN]uint64{}}
}

// measure runs step on every session in parallel until the deadline, each
// call under its own timeout, and turns the outcome into a checked phase.
func (e *tcpEnv) measure(step func(ctx context.Context, i int, s *worker, rng *rand.Rand)) (*phase, error) {
	ws := make([]*worker, sessions)
	before := e.snap()
	wire0 := tcpBytes(e.port())
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(e.o.dur)
	for i := range ws {
		ws[i] = newWorker()
		ws[i].start = start
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.o.seed*1000 + int64(i)))
			for time.Now().Before(deadline) && ws[i].err == nil {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				step(ctx, i, ws[i], rng)
				cancel()
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	p := &phase{wire: tcpBytes(e.port()) - wire0}
	p.d = e.snap()
	p.d.sub(before)
	for _, w := range ws {
		if w.err != nil {
			return nil, w.err
		}
		p.attempted += w.attempted
		p.failed += w.failed
		p.ops += w.ops
		p.lat = append(p.lat, w.lat...)
		p.offline = append(p.offline, w.offline...)
		w.lat, w.offline = nil, nil
	}
	p.opsPerS = float64(p.ops) / wall.Seconds()
	if err := e.checkCounters(ws); err != nil {
		return nil, err
	}
	e.finish(p)
	return p, nil
}

func ownedCounters(n int) ([][]rover.URN, []*rover.Object) {
	owned := make([][]rover.URN, sessions)
	var objs []*rover.Object
	for c := 0; c < sessions; c++ {
		for i := 0; i < n; i++ {
			u := counterURN(c, i)
			owned[c] = append(owned[c], u)
			objs = append(objs, newCounter(u))
		}
	}
	return owned, objs
}

// export_commit: closed loop, each session Invoke("add") -> Export -> wait
// for the commit, over 256 counters it owns. The working set fits the
// store's hot cache and each request is alone in its batch, so every
// per-request fsync is on the critical path.
func runExportCommit(o runOpts) (*phase, error) {
	owned, objs := ownedCounters(256)
	if err := bulkLoad(filepath.Join(o.dir, "store"), objs); err != nil {
		return nil, err
	}
	e := newTCPEnv(o, 0, 0, owned)
	if err := e.bringUp(); err != nil {
		return nil, err
	}
	defer e.down()
	return e.measure(func(ctx context.Context, i int, s *worker, rng *rand.Rand) {
		s.invokeExport(ctx, e.clis[i].api, e.trc, owned[i][rng.Intn(len(owned[i]))])
	})
}

// read_mixed: closed loop, 90% revalidating imports spread uniformly over
// a population about 20x the store's hot cache and 10x each client cache,
// 10% invoke+export on owned counters. Reads run beside writes on the same
// store and journal.
const (
	blobCount       = 40000
	readStoreCache  = 4 << 20
	readOwnedPerCli = 64
	readWarmBlobs   = 1000
)

func runReadMixed(o runOpts) (*phase, error) {
	owned, objs := ownedCounters(readOwnedPerCli)
	rng := rand.New(rand.NewSource(o.seed))
	blobs := make([]rover.URN, blobCount)
	sums := make(map[rover.URN]uint64, blobCount)
	for i := range blobs {
		u := blobURN(i)
		obj := rover.NewObject(u, "blob")
		data := blobData(rng)
		obj.Set("data", data)
		blobs[i] = u
		sums[u] = hashString(data)
		objs = append(objs, obj)
	}
	if err := bulkLoad(filepath.Join(o.dir, "store"), objs); err != nil {
		return nil, err
	}
	objs = nil
	cliCache := blobCount * (blobBytes + 200) / 10
	e := newTCPEnv(o, readStoreCache, cliCache, owned)
	// Set-up also warms each client cache with a seeded quarter of its
	// capacity, as a client that has been in use would hold.
	e.fill = make([][]rover.URN, sessions)
	for i := range e.fill {
		e.fill[i] = append([]rover.URN(nil), owned[i]...)
		for _, k := range rng.Perm(blobCount)[:readWarmBlobs] {
			e.fill[i] = append(e.fill[i], blobs[k])
		}
	}
	if err := e.bringUp(); err != nil {
		return nil, err
	}
	defer e.down()
	return e.measure(func(ctx context.Context, i int, s *worker, rng *rand.Rand) {
		c := e.clis[i].api
		if rng.Intn(10) == 0 {
			s.invokeExport(ctx, c, e.trc, owned[i][rng.Intn(len(owned[i]))])
			return
		}
		var u rover.URN
		ownedRead := rng.Intn(20) == 0
		if ownedRead {
			u = owned[i][rng.Intn(len(owned[i]))]
		} else {
			u = blobs[rng.Intn(len(blobs))]
		}
		s.attempted++
		t0 := time.Now()
		obj, err := c.Import(u, rover.ImportOptions{Revalidate: true}).Wait(ctx)
		t1 := time.Now()
		e.trc.end(spanImport, t0)
		if err != nil {
			s.failed++
			return
		}
		if ownedRead {
			if obj.Version < s.lastVer[u] {
				s.err = checkf("read-your-writes: %s imported v%d after committing v%d", u, obj.Version, s.lastVer[u])
				return
			}
		} else if data, _ := obj.Get("data"); hashString(data) != sums[u] {
			s.err = checkf("%s: imported data differs from what was loaded", u)
			return
		}
		s.ops++
		s.lat = append(s.lat, sample{s.window(t1), t1.Sub(t0)})
	})
}

// offline_drain: repeated disconnect/reconnect cycles. While disconnected
// each session invokes and exports every one of its 2,000 owned counters;
// the cycle ends when everything has committed after the reconnect. The
// burst gives frame coalescing, batched execution and group commit deep
// batches.
const (
	drainOwnedPerCli = 2000
	// The live heap grows with the exports a run has drained, so it is
	// read after a fixed number of cycles rather than at the deadline,
	// where it would follow the host's speed.
	drainHeapCycle = 3
)

func runOfflineDrain(o runOpts) (*phase, error) {
	owned, objs := ownedCounters(drainOwnedPerCli)
	if err := bulkLoad(filepath.Join(o.dir, "store"), objs); err != nil {
		return nil, err
	}
	e := newTCPEnv(o, 0, 0, owned)
	if err := e.bringUp(); err != nil {
		return nil, err
	}
	defer e.down()
	rng := rand.New(rand.NewSource(o.seed))
	ws := []*worker{newWorker(), newWorker()}
	p := &phase{}
	heapAt := -1.0
	before := e.snap()
	wireBase := tcpBytes(e.port())
	var rates []float64
	deadline := time.Now().Add(e.o.dur)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		p.wire += tcpBytes(e.port()) - wireBase
		wireBase = 0
		for _, c := range e.clis {
			c.tr.Close()
		}
		// Offline: both sessions queue their whole burst in parallel, after
		// a collection settles the in-process server's garbage (see
		// playSlow). That collection also reads the live heap.
		type queued struct {
			u    rover.URN
			f    *rover.Future[rover.ExportResult]
			done time.Time
			res  rover.ExportResult
			err  error
			set  atomic.Bool // done, res and err are written
		}
		qs := make([][]queued, sessions)
		orders := make([][]int, sessions)
		for i := range orders {
			orders[i] = rng.Perm(len(owned[i]))
		}
		if heap := liveHeapMB(); cycle == drainHeapCycle {
			heapAt = heap
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		for i := range e.clis {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := e.clis[i].api
				q := make([]queued, 0, len(owned[i]))
				var offline []sample
				failed := int64(0)
				for _, k := range orders[i] {
					u := owned[i][k]
					t0 := time.Now()
					_, err := c.Invoke(u, "add", "1")
					t1 := time.Now()
					e.trc.end(spanInvoke, t0)
					if err != nil {
						failed++
						continue
					}
					f, err := c.Export(u, rover.PriorityNormal)
					t2 := time.Now()
					e.trc.end(spanExportCall, t1)
					if err != nil {
						failed++
						continue
					}
					offline = append(offline, sample{cycle, t2.Sub(t0)})
					q = append(q, queued{u: u, f: f})
				}
				qs[i] = q
				mu.Lock()
				p.offline = append(p.offline, offline...)
				p.attempted += int64(len(orders[i]))
				p.failed += failed
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		// Reconnect and wait for the drain.
		var done sync.WaitGroup
		reconnect := time.Now()
		for i := range qs {
			for j := range qs[i] {
				q := &qs[i][j]
				done.Add(1)
				q.f.OnReady(func(res rover.ExportResult, err error) {
					q.done, q.res, q.err = time.Now(), res, err
					q.set.Store(true)
					done.Done()
				})
			}
		}
		for _, c := range e.clis {
			c.dialTCP(e.addr(), e.clock)
		}
		drained := waitTimeout(&done, opTimeout)
		var last time.Time
		n := 0
		for i := range qs {
			for j := range qs[i] {
				q := &qs[i][j]
				if !q.set.Load() {
					// Still queued when the run gives up on it.
					p.failed++
					ws[i].unknown[q.u]++
					continue
				}
				e.trc.record(spanCommitWait, q.done.Sub(reconnect))
				if q.err != nil || q.res.Outcome != rover.OutcomeCommitted {
					p.failed++
					continue
				}
				ws[i].commits[q.u]++
				n++
				p.lat = append(p.lat, sample{cycle, q.done.Sub(reconnect)})
				if q.done.After(last) {
					last = q.done
				}
			}
		}
		if n > 0 {
			drain := last.Sub(reconnect)
			p.syncs = append(p.syncs, drain)
			rates = append(rates, float64(n)/drain.Seconds())
		}
		p.ops += int64(n)
		if !drained {
			break
		}
	}
	p.wire += tcpBytes(e.port()) - wireBase
	p.d = e.snap()
	p.d.sub(before)
	p.opsPerS = median(rates)
	if err := e.checkCounters(ws); err != nil {
		return nil, err
	}
	e.finish(p)
	if heapAt >= 0 {
		p.heapMB = heapAt
	}
	return p, nil
}

func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}
