package main

import (
	"bufio"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"rover/internal/access"
	"rover/internal/netsim"
	"rover/internal/qrpc"
	"rover/internal/server"
	"rover/internal/stable"
	"rover/internal/store"
)

// counters is one snapshot of every layer's public counters. A measured
// phase is the difference of two snapshots.
type counters struct {
	cli    qrpc.ClientStats
	acc    access.Stats
	srv    qrpc.ServerStats
	app    server.Stats
	jrn    stable.Stats
	seg    stable.Stats
	occ    store.Occupancy
	clog   stable.Stats
	net    netsim.Stats
	malloc uint64
	gcs    uint32
	cpu    time.Duration

	// Traced only: decorator timings.
	clogAppend, storeGet, storeCommit [2]int64 // calls, nanos
	spans                             [nSpans][2]int64
}

func (c *counters) sub(b counters) {
	c.cli.Sent -= b.cli.Sent
	c.cli.Resent -= b.cli.Resent
	c.cli.BatchesSent -= b.cli.BatchesSent
	c.cli.ZBatchesSent -= b.cli.ZBatchesSent
	c.acc.ImportsSent -= b.acc.ImportsSent
	c.acc.NotModified -= b.acc.NotModified
	c.acc.DeltaImports -= b.acc.DeltaImports
	c.acc.DeltaFallbacks -= b.acc.DeltaFallbacks
	c.acc.Shed -= b.acc.Shed
	c.srv.Requests -= b.srv.Requests
	c.srv.Executed -= b.srv.Executed
	c.srv.ReplaysServed -= b.srv.ReplaysServed
	c.srv.BatchesSent -= b.srv.BatchesSent
	c.srv.ZBatchesSent -= b.srv.ZBatchesSent
	c.srv.JournalRecords -= b.srv.JournalRecords
	c.srv.JournalCompactions -= b.srv.JournalCompactions
	c.srv.ReplyCacheHits -= b.srv.ReplyCacheHits
	c.srv.ReplyCacheMisses -= b.srv.ReplyCacheMisses
	c.srv.BudgetRefused -= b.srv.BudgetRefused
	c.srv.SessionsRefused -= b.srv.SessionsRefused
	c.app.DeltasServed -= b.app.DeltasServed
	c.app.DeltaFallbacks -= b.app.DeltaFallbacks
	subStable(&c.jrn, b.jrn)
	subStable(&c.seg, b.seg)
	subStable(&c.clog, b.clog)
	c.occ.CacheHits -= b.occ.CacheHits
	c.occ.ColdFaults -= b.occ.ColdFaults
	c.occ.Compactions -= b.occ.Compactions
	c.net.FramesAB -= b.net.FramesAB
	c.net.FramesBA -= b.net.FramesBA
	c.net.BytesAB -= b.net.BytesAB
	c.net.BytesBA -= b.net.BytesBA
	c.malloc -= b.malloc
	c.gcs -= b.gcs
	c.cpu -= b.cpu
	for i := range c.clogAppend {
		c.clogAppend[i] -= b.clogAppend[i]
		c.storeGet[i] -= b.storeGet[i]
		c.storeCommit[i] -= b.storeCommit[i]
	}
	for k := range c.spans {
		for i := range c.spans[k] {
			c.spans[k][i] -= b.spans[k][i]
		}
	}
}

// add adds b to c, as c - (0 - b).
func (c *counters) add(b counters) {
	var neg counters
	neg.sub(b)
	c.sub(neg)
}

func subStable(a *stable.Stats, b stable.Stats) {
	a.Appends -= b.Appends
	a.Syncs -= b.Syncs
	a.SyncNanos -= b.SyncNanos
	a.BytesWritten -= b.BytesWritten
	a.Compactions -= b.Compactions
}

func addStable(a *stable.Stats, b stable.Stats) {
	a.Appends += b.Appends
	a.Syncs += b.Syncs
	a.SyncNanos += b.SyncNanos
	a.BytesWritten += b.BytesWritten
	a.Compactions += b.Compactions
}

// snapshot reads every counter of one server and its clients.
func snapshot(srv *serverNode, clis []*clientNode, links []*netsim.Duplex, tr *tracer) counters {
	var c counters
	for _, cl := range clis {
		s := cl.engine.Stats()
		c.cli.Sent += s.Sent
		c.cli.Resent += s.Resent
		c.cli.BatchesSent += s.BatchesSent
		c.cli.ZBatchesSent += s.ZBatchesSent
		a := cl.am.Stats()
		c.acc.ImportsSent += a.ImportsSent
		c.acc.NotModified += a.NotModified
		c.acc.DeltaImports += a.DeltaImports
		c.acc.DeltaFallbacks += a.DeltaFallbacks
		c.acc.Shed += a.Shed
		if cl.log != nil {
			addStable(&c.clog, cl.log.Stats())
			calls, nanos := cl.log.appends.snap()
			c.clogAppend[0] += calls
			c.clogAppend[1] += nanos
		}
	}
	c.srv = srv.engine.Stats()
	c.app = srv.app()
	for _, s := range srv.journal() {
		addStable(&c.jrn, s)
	}
	c.seg = srv.segmentStats()
	c.occ = srv.store.Occupancy()
	if srv.tstore != nil {
		c.storeGet[0], c.storeGet[1] = srv.tstore.gets.snap()
		c.storeCommit[0], c.storeCommit[1] = srv.tstore.commits.snap()
	}
	for _, l := range links {
		s := l.Stats()
		c.net.FramesAB += s.FramesAB
		c.net.FramesBA += s.FramesBA
		c.net.BytesAB += s.BytesAB
		c.net.BytesBA += s.BytesBA
	}
	if tr != nil {
		for k := range tr.spans {
			c.spans[k][0], c.spans[k][1] = tr.spans[k].snap()
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.malloc = ms.Mallocs
	c.gcs = ms.NumGC
	c.cpu = cpuTime()
	return c
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tcpBytes sums the payload bytes carried by the client ends of this
// process's TCP connections to serverPort, in both directions, from the
// kernel's TCP_INFO. Sockets closed before the read are not counted, so a
// workload reads it before dropping a connection.
func tcpBytes(serverPort int) int64 {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || !strings.HasPrefix(target, "socket:") {
			continue
		}
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		local, err := syscall.Getsockname(fd)
		if err != nil {
			continue
		}
		if a, ok := local.(*syscall.SockaddrInet4); !ok || a.Port == serverPort {
			continue // not TCP over IPv4 loopback, or the server's end
		}
		peer, err := syscall.Getpeername(fd)
		if a, ok := peer.(*syscall.SockaddrInet4); err != nil || !ok || a.Port != serverPort {
			continue
		}
		var buf [256]byte
		n := uint32(len(buf))
		_, _, errno := syscall.Syscall6(syscall.SYS_GETSOCKOPT, uintptr(fd), syscall.IPPROTO_TCP, syscall.TCP_INFO,
			uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&n)), 0)
		if errno != 0 || n < 136 {
			continue
		}
		// struct tcp_info (Linux 4.1+): tcpi_bytes_acked at offset 120,
		// tcpi_bytes_received at 128. bytes_acked also counts the SYN.
		acked := int64(binary.LittleEndian.Uint64(buf[120:128]))
		if acked > 0 {
			acked--
		}
		total += acked + int64(binary.LittleEndian.Uint64(buf[128:136]))
	}
	return total
}

// Span names: the benchmark's own calls into the facade.
const (
	spanInvoke = iota
	spanExportCall
	spanCommitWait
	spanImport
	nSpans
)

// tracer records the spans the traced run puts around facade calls. A nil
// tracer records nothing.
type tracer struct{ spans [nSpans]timing }

func (t *tracer) end(span int, start time.Time) {
	if t != nil {
		t.spans[span].since(start)
	}
}

func (t *tracer) record(span int, d time.Duration) {
	if t != nil {
		t.spans[span].calls.Add(1)
		t.spans[span].nanos.Add(int64(d))
	}
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sample is one timing, tagged with the window it fell in: a second of a
// closed loop, a drain cycle, or a repetition.
type sample struct {
	win int
	d   time.Duration
}

// winQuantile is the median over windows of each window's q-quantile. A
// tail percentile of one long run swings with a few scheduling stalls; the
// median of per-window percentiles does not. The stub window a run's
// deadline cuts off is left out when fuller windows exist.
func winQuantile(ss []sample, q float64, unit time.Duration) float64 {
	byWin := map[int][]float64{}
	for _, s := range ss {
		byWin[s.win] = append(byWin[s.win], float64(s.d)/float64(unit))
	}
	largest := 0
	for _, xs := range byWin {
		largest = max(largest, len(xs))
	}
	var qs []float64
	for _, xs := range byWin {
		if len(xs) >= largest/10 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return median(qs)
}

func durs(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// machine describes where a result was measured.
func machine(dirs map[string]string) map[string]any {
	fs := map[string]string{}
	for role, d := range dirs {
		fs[role] = fsType(d)
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"fs":         fs,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}
