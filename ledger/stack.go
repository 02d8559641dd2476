package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rover"
	"rover/internal/access"
	"rover/internal/qrpc"
	"rover/internal/server"
	"rover/internal/session"
	"rover/internal/stable"
	"rover/internal/store"
	"rover/internal/store/disk"
	"rover/internal/transport"
	"rover/internal/vtime"
)

// The untraced run drives the rover facade exactly as an application does.
// The traced run rebuilds the same stack from the layers' public
// constructors, mirroring rover.NewServer and rover.NewClient, so it can put
// timing decorators around the client log, the journal and the store. Any
// change to those two constructors must be mirrored here, or the traced run
// measures a different program; the traced run reports its fsyncs and
// allocations per op next to the facade's so a divergence shows.

type serverConfig struct {
	dir        string // holds the session journal and the store directory
	cacheBytes int64  // disk store hot-object cache
	workers    int    // rover.ServerOptions.Workers
	traced     bool
	extraSync  bool // traced only: inject one extra journal fsync per commit
	inMemory   bool // no journal, in-memory store: the reference replay
}

type serverNode struct {
	engine  *qrpc.Server
	store   store.Backend
	journal func() []stable.Stats
	app     func() server.Stats
	close   func() error

	seg *segCounter // nil without a disk store

	// Traced only.
	reopen time.Duration // disk.Open
	tstore *timedStore
}

func (c serverConfig) journalPath() string { return filepath.Join(c.dir, "journal") }
func (c serverConfig) storeDir() string    { return filepath.Join(c.dir, "store") }

func openServer(c serverConfig) (*serverNode, error) {
	if c.traced {
		return openLayeredServer(c)
	}
	opts := rover.ServerOptions{
		ServerID:        "home",
		StoreDir:        c.storeDir(),
		StoreCacheBytes: c.cacheBytes,
		JournalPath:     c.journalPath(),
		Workers:         c.workers,
	}
	if c.inMemory {
		opts = rover.ServerOptions{ServerID: "home", Workers: c.workers}
	}
	srv, err := rover.NewServer(opts)
	if err != nil {
		return nil, err
	}
	n := &serverNode{
		engine:  srv.Engine(),
		store:   srv.Store(),
		journal: srv.JournalStats,
		app:     srv.ServerStats,
		close:   srv.Close,
	}
	return n.withSegmentCounter(), nil
}

// openLayeredServer is rover.NewServer for the options openServer sets.
func openLayeredServer(c serverConfig) (*serverNode, error) {
	workers := c.workers
	if workers == 0 {
		if procs := runtime.GOMAXPROCS(0); procs > 1 {
			workers = procs
		}
	}
	if workers < 0 {
		workers = 0
	}
	fl, err := stable.OpenFileLog(c.journalPath(), stable.Options{})
	if err != nil {
		return nil, fmt.Errorf("session journal: %w", err)
	}
	extra := ""
	if c.extraSync {
		extra = c.journalPath()
	}
	jl, _ := wrapLog(fl, extra)
	start := time.Now()
	ds, err := disk.Open(disk.Options{Dir: c.storeDir(), CacheBytes: c.cacheBytes})
	reopen := time.Since(start)
	if err != nil {
		fl.Close()
		return nil, fmt.Errorf("disk store: %w", err)
	}
	ts := &timedStore{Store: ds}
	engine := qrpc.NewServer(qrpc.ServerConfig{
		ServerID: "home",
		Workers:  workers,
		Journals: []stable.Log{jl},
	})
	if err := engine.JournalError(); err != nil {
		fl.Close()
		ds.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{Engine: engine, Store: ts})
	if err != nil {
		fl.Close()
		ds.Close()
		return nil, err
	}
	n := &serverNode{
		engine:  engine,
		store:   ts,
		journal: func() []stable.Stats { return []stable.Stats{jl.Stats()} },
		app:     srv.Stats,
		close: func() error {
			err := engine.Close()
			if jerr := jl.Close(); err == nil {
				err = jerr
			}
			if serr := ds.Close(); err == nil {
				err = serr
			}
			return err
		},
		reopen: reopen,
		tstore: ts,
	}
	return n.withSegmentCounter(), nil
}

// segmentStats reads the disk store's segment counters, accumulated across
// segment rewrites.
func (s *serverNode) segmentStats() stable.Stats {
	if s.seg == nil {
		return stable.Stats{}
	}
	return s.seg.total()
}

// withSegmentCounter starts a segCounter when the node's store is the disk
// store and chains its stop into close.
func (s *serverNode) withSegmentCounter() *serverNode {
	ss, ok := s.store.(interface{ SegmentStats() stable.Stats })
	if !ok {
		return s
	}
	s.seg = newSegCounter(ss.SegmentStats)
	closeNode := s.close
	s.close = func() error {
		s.seg.stop()
		return closeNode()
	}
	return s
}

// segCounter keeps the disk store's segment counters monotonic. A store
// compaction swaps in a new segment file whose counters start at zero, so a
// poller folds each restart into a running total. Counts between the last
// poll and a restart are lost: at most one poll interval's worth.
type segCounter struct {
	read func() stable.Stats
	quit chan struct{}
	done chan struct{}

	mu         sync.Mutex
	base, last stable.Stats
}

const segPollInterval = 10 * time.Millisecond

func newSegCounter(read func() stable.Stats) *segCounter {
	c := &segCounter{read: read, quit: make(chan struct{}), done: make(chan struct{}), last: read()}
	go func() {
		defer close(c.done)
		t := time.NewTicker(segPollInterval)
		defer t.Stop()
		for {
			select {
			case <-c.quit:
				return
			case <-t.C:
				c.mu.Lock()
				c.pollLocked()
				c.mu.Unlock()
			}
		}
	}()
	return c
}

func (c *segCounter) pollLocked() {
	s := c.read()
	if s.Appends < c.last.Appends || s.Syncs < c.last.Syncs {
		addStable(&c.base, c.last)
	}
	c.last = s
}

func (c *segCounter) total() stable.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pollLocked()
	t := c.base
	addStable(&t, c.last)
	return t
}

func (c *segCounter) stop() {
	close(c.quit)
	<-c.done
}

// api is the part of the client surface the workloads call. *rover.Client
// implements it, and so does the *access.AccessManager the traced stack
// builds.
type api interface {
	Invoke(u rover.URN, method string, args ...string) (string, error)
	Export(u rover.URN, p rover.Priority) (*rover.Future[rover.ExportResult], error)
	Import(u rover.URN, opts rover.ImportOptions) *rover.Future[*rover.Object]
}

type clientConfig struct {
	id         string
	logPath    string        // empty: in-memory log with flushCost
	flushCost  time.Duration // modeled flush on the in-memory log
	cacheBytes int
	compress   bool
	clock      vtime.Clock
	traced     bool
}

type clientNode struct {
	api    api
	engine *qrpc.Client
	am     *access.AccessManager
	attach func(transport.ClientTransport)
	tr     transport.ClientTransport
	close  func() error
	log    *timedLog // traced only
}

// connect installs tr as the client's transport.
func (c *clientNode) connect(tr transport.ClientTransport) {
	c.tr = tr
	c.attach(tr)
}

// dialTCP is what rover.Client.ConnectTCP does, keeping the handle so a
// workload can drop the connection.
func (c *clientNode) dialTCP(addr string, clock vtime.Clock) {
	c.connect(transport.DialTCP(addr, c.engine, clock, transport.TCPClientOptions{}))
}

func openClient(c clientConfig) (*clientNode, error) {
	if c.traced {
		return openLayeredClient(c)
	}
	cli, err := rover.NewClient(rover.ClientOptions{
		ClientID:         c.id,
		LogPath:          c.logPath,
		ModeledFlushCost: c.flushCost,
		CacheBytes:       c.cacheBytes,
		Compress:         c.compress,
		NoAutoExport:     true,
		Clock:            c.clock,
	})
	if err != nil {
		return nil, err
	}
	return &clientNode{api: cli, engine: cli.Engine(), am: cli.Access(), attach: cli.AttachTransport, close: cli.Close}, nil
}

// openLayeredClient is rover.NewClient for the options openClient sets.
func openLayeredClient(c clientConfig) (*clientNode, error) {
	var inner stable.Log
	if c.logPath != "" {
		fl, err := stable.OpenFileLog(c.logPath, stable.Options{})
		if err != nil {
			return nil, err
		}
		inner = fl
	} else {
		inner = stable.NewMemLog(stable.Options{FlushCost: c.flushCost})
	}
	log, tl := wrapLog(inner, "")
	n := &clientNode{log: tl}
	var am *access.AccessManager
	failover := func() {
		if r, ok := n.tr.(interface{ Rotate() }); ok {
			r.Rotate()
		}
	}
	engine, err := qrpc.NewClient(qrpc.ClientConfig{
		ClientID: c.id,
		Log:      log,
		OnCallback: func(topic string, payload []byte) {
			if am != nil {
				am.HandleCallback(topic, payload)
			}
		},
		OnStatus: func(qrpc.StatusInfo) {},
		OnBusy:   failover,
	})
	if err != nil {
		inner.Close()
		return nil, err
	}
	engine.SetCompression(c.compress)
	clock := c.clock
	if clock == nil {
		clock = vtime.NewRealClock()
	}
	am, err = access.New(access.Config{
		Engine: engine,
		Kick: func() {
			if n.tr != nil {
				n.tr.Kick()
			}
		},
		Clock:        clock,
		CacheBytes:   c.cacheBytes,
		Guarantees:   session.All,
		OnOverload:   failover,
		OnConflict:   func(rover.URN, string) {},
		OnInvalidate: func(rover.URN, uint64) {},
	})
	if err != nil {
		engine.Close()
		inner.Close()
		return nil, err
	}
	n.api, n.engine, n.am = am, engine, am
	n.attach = func(transport.ClientTransport) {}
	n.close = func() error {
		var err error
		if n.tr != nil {
			err = n.tr.Close()
		}
		engine.Close()
		if lerr := log.Close(); err == nil {
			err = lerr
		}
		return err
	}
	return n, nil
}
