package qrpc

import (
	"sync"

	"rover/internal/wire"
)

// workerPool executes request handlers on a bounded set of workers while
// preserving QRPC's ordering contract: requests from one session execute
// serially in arrival order (per-key FIFO), and sessions execute in
// parallel with each other. A worker that drains a run of tasks for one
// session coalesces their replies into a single FrameBatch toward the
// transport, so server-side batching falls out of the same mechanism.
//
// The design is a classic per-key serial executor: each session key owns a
// FIFO task queue; a key with queued work is on the ready list exactly once
// ("active"), claimed by exactly one worker at a time. Workers claim a
// bounded chunk per visit so one chatty session cannot starve the rest.

// maxPoolChunk bounds how many tasks a worker takes from one key per visit
// (fairness across sessions; also the reply-batch size cap).
const maxPoolChunk = 64

// poolTask is one dispatched request. The dup-drop guard (sess.executing)
// was set under the server lock at dispatch time, so a redelivered copy of
// the same request cannot be submitted while this task is anywhere in the
// pool.
type poolTask struct {
	from     Sender
	clientID string
	sess     *session
	handler  Handler
	read     bool // registered with RegisterRead: no exec record, not cached
	req      Request
}

type keyQueue struct {
	key    string
	tasks  []poolTask
	active bool // on the ready list or claimed by a worker
}

type workerPool struct {
	srv  *Server
	size int

	mu      sync.Mutex
	cond    *sync.Cond // workers: ready-list non-empty or closed
	quiet   *sync.Cond // quiesce: pending == 0
	queues  map[string]*keyQueue
	ready   []*keyQueue
	pending int // submitted tasks not yet finished (executed or discarded)
	started bool
	closed  bool
	wg      sync.WaitGroup
}

func newWorkerPool(s *Server, size int) *workerPool {
	p := &workerPool{srv: s, size: size, queues: make(map[string]*keyQueue)}
	p.cond = sync.NewCond(&p.mu)
	p.quiet = sync.NewCond(&p.mu)
	return p
}

// submit enqueues a task on its session's FIFO queue, starting the workers
// on first use. Tasks submitted after close are discarded (the server is
// shutting down; clients redeliver).
func (p *workerPool) submit(t poolTask) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.discard(t)
		return
	}
	if !p.started {
		p.started = true
		p.wg.Add(p.size)
		for i := 0; i < p.size; i++ {
			go p.worker()
		}
	}
	kq := p.queues[t.clientID]
	if kq == nil {
		kq = &keyQueue{key: t.clientID}
		p.queues[t.clientID] = kq
	}
	kq.tasks = append(kq.tasks, t)
	p.pending++
	if !kq.active {
		kq.active = true
		p.ready = append(p.ready, kq)
		p.cond.Signal()
	}
	p.mu.Unlock()
}

func (p *workerPool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		for len(p.ready) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		kq := p.ready[0]
		p.ready = p.ready[1:]
		n := len(kq.tasks)
		if n > maxPoolChunk {
			n = maxPoolChunk
		}
		chunk := kq.tasks[:n:n]
		kq.tasks = kq.tasks[n:]
		// kq stays active while this worker owns the chunk: concurrent
		// submits append to kq.tasks but must not put the key back on the
		// ready list, or a second worker would break per-session ordering.
		p.mu.Unlock()

		p.runChunk(chunk)

		p.mu.Lock()
		p.pending -= n
		if len(kq.tasks) > 0 && !p.closed {
			p.ready = append(p.ready, kq)
			p.cond.Signal()
		} else {
			kq.active = false
			if len(kq.tasks) == 0 {
				delete(p.queues, kq.key)
			}
		}
		if p.pending <= 0 {
			p.quiet.Broadcast()
		}
	}
}

// runChunk executes one session's tasks serially, coalescing consecutive
// replies toward the same transport into one batch frame. When the
// session's journal shard supports staged appends, the whole run commits
// with one fsync (pipelined group commit) before any reply is released;
// otherwise each task pays its own group-commit join.
func (p *workerPool) runChunk(tasks []poolTask) {
	var out []wire.Frame
	var to Sender
	flush := func() {
		if to != nil {
			p.srv.sendCoalesced(to, out)
		}
		out = nil
	}
	if !p.isClosed() {
		if staged, ok := p.srv.executeChunkBatched(tasks); ok {
			// Everything in staged is durable and published; release the
			// replies, grouping consecutive same-transport runs.
			for i := range staged {
				st := &staged[i]
				if st.task.from != to {
					flush()
					to = st.task.from
				}
				out = append(out, wire.Frame{Type: wire.FrameReply, Payload: st.enc})
			}
			flush()
			return
		}
	}
	for i := range tasks {
		t := &tasks[i]
		if p.isClosed() {
			// Shutdown mid-chunk: drop the rest, clearing their dispatch
			// marks so a future server incarnation sharing this session
			// state would not treat redeliveries as in-flight forever.
			flush()
			for _, rest := range tasks[i:] {
				p.discard(rest)
			}
			return
		}
		if t.from != to {
			flush()
			to = t.from
		}
		rep, enc := p.srv.execute(*t)
		if rep == nil {
			// Journal refused the execute (poisoned): nothing to release.
			continue
		}
		out = append(out, wire.Frame{Type: wire.FrameReply, Payload: enc})
	}
	flush()
}

// discard un-dispatches a task that will never execute.
func (p *workerPool) discard(t poolTask) {
	p.srv.mu.Lock()
	delete(t.sess.executing, t.req.Seq)
	p.srv.mu.Unlock()
}

func (p *workerPool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// quiesce blocks until no submitted task remains unfinished.
func (p *workerPool) quiesce() {
	p.mu.Lock()
	for p.pending > 0 {
		p.quiet.Wait()
	}
	p.mu.Unlock()
}

// close stops the workers. Queued tasks that no worker has claimed are
// discarded; tasks already claimed finish or are discarded by their worker.
func (p *workerPool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var dropped []poolTask
	for _, kq := range p.queues {
		dropped = append(dropped, kq.tasks...)
		p.pending -= len(kq.tasks)
		kq.tasks = nil
	}
	p.ready = nil
	p.cond.Broadcast()
	if p.pending <= 0 {
		p.quiet.Broadcast()
	}
	started := p.started
	p.mu.Unlock()

	for _, t := range dropped {
		p.discard(t)
	}
	if started {
		p.wg.Wait()
	}
}
