package live

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gocast/internal/core"
	"gocast/internal/metrics"
	"gocast/internal/wire"
)

// Transport counter names, visible in Stats snapshots. The redial counters
// are how soak tests (and operators) verify that a broken link was
// re-established by backoff rather than torn down.
const (
	CtrDials         = "tcp_dials"           // successful outbound connections
	CtrDialErrors    = "tcp_dial_errors"     // failed dial attempts
	CtrRedials       = "tcp_redials"         // successful dials that replaced a prior connection or retry
	CtrBackoffResets = "tcp_backoff_resets"  // backoff returned to its base after a successful redial
	CtrWriteErrors   = "tcp_write_errors"    // frame writes that failed (broken pipe, deadline)
	CtrFramesRequeue = "tcp_frames_requeued" // frames salvaged from a broken connection and resent
	CtrFramesDropped = "tcp_frames_dropped"  // reliable frames abandoned, all classes (shed, peer down, overflow)
	CtrQueueOverflow = "tcp_queue_overflows" // times the Critical ring hit its hard cap and the peer was dropped
	CtrEncodeErrors  = "tcp_encode_errors"   // frames that failed wire serialization
	CtrIdleReaped    = "tcp_idle_reaped"     // outbound connections reaped for inactivity
	CtrPeersFailed   = "tcp_peers_failed"    // peers reported down after redial attempts were exhausted

	// Per-class drop attribution and flow control (overload protection).
	CtrDroppedCritical   = "tcp_frames_dropped_critical"   // Critical frames lost (peer drop or hard-cap overflow)
	CtrDroppedRepair     = "tcp_frames_dropped_repair"     // Repair frames shed or lost
	CtrDroppedBackground = "tcp_frames_dropped_background" // Background frames shed or lost
	CtrPeerPauses        = "tcp_peer_pauses"               // peers marked slow (Background/Repair paused)
	CtrPeerResumes       = "tcp_peer_resumes"              // slow peers recovered
)

// ctrDroppedByClass maps a core.Class to its drop-attribution counter.
var ctrDroppedByClass = [core.NumClasses]string{
	core.ClassCritical:   CtrDroppedCritical,
	core.ClassRepair:     CtrDroppedRepair,
	core.ClassBackground: CtrDroppedBackground,
}

// TCPOptions tunes the transport's resilience behavior. The zero value is
// replaced field-by-field with the defaults documented below.
type TCPOptions struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// WriteTimeout is the deadline of each write (one batch of queued
	// frames); a peer that stalls longer than this has its connection
	// broken and redialed so the writer goroutine can never wedge forever
	// (default 10s).
	WriteTimeout time.Duration
	// RedialAttempts is how many consecutive failed dials are tolerated
	// before the peer is reported to the FailureHandler (default 3;
	// negative disables redial entirely — first failure reports).
	RedialAttempts int
	// RedialBackoff is the initial redial backoff; each failed attempt
	// doubles it, jittered to [0.5x, 1.5x) (default 100ms).
	RedialBackoff time.Duration
	// RedialBackoffMax caps the exponential backoff (default 3s).
	RedialBackoffMax time.Duration
	// IdleTimeout reaps outbound connections with no traffic for this
	// long; reaping is silent (no failure report) and the next Send
	// redials (default 5m; negative disables reaping).
	IdleTimeout time.Duration
	// Logf receives rare diagnostic lines, e.g. the once-per-peer encode
	// error report (default log.Printf).
	Logf func(format string, args ...any)

	// QueueCritical is the per-peer Critical-class ring's soft cap
	// (default 256). The ring may grow past it up to QueueCriticalHard
	// while the overload governor reacts; occupancy beyond the soft cap
	// reads as pressure > 1.0.
	QueueCritical int
	// QueueCriticalHard is the Critical ring's hard cap (default
	// 4*QueueCritical). Only when it is exceeded is the peer declared
	// overflowed and dropped — the pre-classing behavior, now reserved
	// for a truly wedged peer.
	QueueCriticalHard int
	// QueueRepair caps the per-peer Repair ring (default 128); overflow
	// sheds the frame, not the peer (gossip re-announces and anti-entropy
	// sync recover the content later).
	QueueRepair int
	// QueueBackground caps the per-peer Background ring (default 64);
	// overflow sheds the frame.
	QueueBackground int
	// SlowWriteThreshold marks a peer slow when its per-write latency
	// EWMA exceeds it; a slow peer has Background traffic paused
	// and Repair traffic halved until the EWMA falls below half the
	// threshold (default 200ms; negative disables flow control).
	SlowWriteThreshold time.Duration
	// ShedPolicy mirrors OverloadOptions.ShedPolicy: "priority" (default)
	// classes frames as above; "off" sends every class through the
	// Critical ring with the soft cap as its hard cap, reproducing the
	// single-queue pre-classing behavior.
	ShedPolicy string
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	switch {
	case o.RedialAttempts == 0:
		o.RedialAttempts = 3
	case o.RedialAttempts < 0:
		o.RedialAttempts = 0
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 100 * time.Millisecond
	}
	if o.RedialBackoffMax <= 0 {
		o.RedialBackoffMax = 3 * time.Second
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if o.QueueCritical <= 0 {
		o.QueueCritical = 256
	}
	if o.QueueCriticalHard <= 0 {
		o.QueueCriticalHard = 4 * o.QueueCritical
	}
	if o.QueueCriticalHard < o.QueueCritical {
		o.QueueCriticalHard = o.QueueCritical
	}
	if o.QueueRepair <= 0 {
		o.QueueRepair = 128
	}
	if o.QueueBackground <= 0 {
		o.QueueBackground = 64
	}
	if o.SlowWriteThreshold == 0 {
		o.SlowWriteThreshold = 200 * time.Millisecond
	}
	if o.ShedPolicy != "off" {
		o.ShedPolicy = "priority"
	}
	if o.ShedPolicy == "off" {
		// Single-queue compatibility: everything Critical, no elastic
		// headroom beyond the soft cap.
		o.QueueCriticalHard = o.QueueCritical
	}
	return o
}

// TCPTransport carries reliable traffic over TCP connections (one per
// peer, dialed on demand, as the paper's pre-established connections
// between overlay neighbors) and datagrams over UDP on the same port
// number.
//
// The transport is resilient: a broken or stalled connection is redialed
// with exponential backoff, and frames queued (or caught mid-write) when
// the pipe broke are resent on the new connection. Only after
// RedialAttempts consecutive failed dials is the peer reported to the
// FailureHandler — so the protocol layer hears about persistent failures,
// not transient network blips.
type TCPTransport struct {
	id   core.NodeID
	ln   net.Listener
	udp  *net.UDPConn
	addr string
	opts TCPOptions

	counters *metrics.AtomicCounter

	// lastPressure rate-limits pressure-handler kicks (unix nanos).
	lastPressure atomic.Int64

	mu         sync.Mutex
	conns      map[string]*peerConn
	inbound    map[net.Conn]bool
	handler    Handler
	failure    FailureHandler
	pressureH  func()
	closed     bool
	encLogged  map[string]bool // peers whose encode errors were already logged
	wg         sync.WaitGroup
	stopReaper chan struct{}

	// freeMu guards freeBufs, the bounded free list of small frame
	// buffers: writers return each frame they copied into a batch, and
	// Send and SendDatagram encode into one.
	freeMu   sync.Mutex
	freeBufs [][]byte
}

// Frame path bounds.
const (
	// maxWriteBatch bounds the bytes one write coalesces; a frame larger
	// than this is written alone, straight from its own buffer.
	maxWriteBatch = 64 << 10
	// maxPooledFrame is the largest frame buffer kept for reuse, and
	// freeListSize how many are kept per transport.
	maxPooledFrame = 4 << 10
	freeListSize   = 256
)

// frameBuf returns an empty frame buffer from the free list, or nil.
func (t *TCPTransport) frameBuf() []byte {
	t.freeMu.Lock()
	defer t.freeMu.Unlock()
	n := len(t.freeBufs)
	if n == 0 {
		return nil
	}
	b := t.freeBufs[n-1]
	t.freeBufs[n-1] = nil
	t.freeBufs = t.freeBufs[:n-1]
	return b[:0]
}

// recycle returns frame buffers whose bytes are no longer needed to the
// free list, keeping only small ones and only up to freeListSize.
func (t *TCPTransport) recycle(bufs ...[]byte) {
	t.freeMu.Lock()
	defer t.freeMu.Unlock()
	for _, b := range bufs {
		if len(t.freeBufs) == freeListSize {
			return
		}
		if cap(b) <= maxPooledFrame {
			t.freeBufs = append(t.freeBufs, b)
		}
	}
}

var _ Transport = (*TCPTransport)(nil)

// frameRing is a circular buffer of encoded frames that grows lazily up to
// a fixed capacity, tracking its queued byte total.
type frameRing struct {
	buf   [][]byte
	head  int
	n     int
	cap   int
	bytes int64
}

func (r *frameRing) push(b []byte) bool {
	if r.n >= r.cap {
		return false
	}
	if r.n == len(r.buf) {
		grown := len(r.buf) * 2
		if grown < 16 {
			grown = 16
		}
		if grown > r.cap {
			grown = r.cap
		}
		nb := make([][]byte, grown)
		for i := 0; i < r.n; i++ {
			nb[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = nb
		r.head = 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = b
	r.n++
	r.bytes += int64(len(b))
	return true
}

// peek returns the oldest queued frame without removing it; r must be
// non-empty.
func (r *frameRing) peek() []byte { return r.buf[r.head] }

func (r *frameRing) pop() ([]byte, bool) {
	if r.n == 0 {
		return nil, false
	}
	b := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	r.bytes -= int64(len(b))
	return b, true
}

// enqResult is the outcome of admitting a frame to a peer's queue.
type enqResult int8

const (
	enqOK       enqResult = iota
	enqShed               // frame dropped, peer survives
	enqOverflow           // Critical hard cap exceeded: peer must be dropped
	enqStopped            // peer already stopped
)

// peerConn is an outbound connection with a writer goroutine, so the
// node's event loop never blocks on the network. Frames are queued in one
// ring per admission class, drained Critical first; the rings survive
// redials, so frames enqueued while the connection is down are delivered
// once it is re-established.
type peerConn struct {
	addr     string
	to       core.NodeID
	done     chan struct{}
	once     sync.Once
	conn     net.Conn     // guarded by the transport mutex
	lastUsed atomic.Int64 // unix nanos of the writer's last batch toward this peer

	qmu   sync.Mutex
	rings [core.NumClasses]frameRing
	wake  chan struct{} // carries at most one token; writer drains per token

	// Flow control: a peer whose per-write latency EWMA exceeds
	// SlowWriteThreshold is "slow" — Background enqueues pause and Repair
	// halves — until the EWMA falls below half the threshold.
	slow   atomic.Bool
	ewmaNs atomic.Int64
}

func (pc *peerConn) stop() { pc.once.Do(func() { close(pc.done) }) }

// enqueue admits one encoded frame under class cls, returning the outcome
// and (on success) the Critical ring depth for the caller's watermark
// check. The Critical ring's cap is the hard cap; soft-cap policy lives in
// the caller.
func (pc *peerConn) enqueue(cls core.Class, buf []byte) (res enqResult, critDepth int) {
	select {
	case <-pc.done:
		return enqStopped, 0
	default:
	}
	pc.qmu.Lock()
	r := &pc.rings[cls]
	switch cls {
	case core.ClassBackground:
		if pc.slow.Load() || r.n >= r.cap {
			pc.qmu.Unlock()
			return enqShed, 0
		}
	case core.ClassRepair:
		if r.n >= r.cap || (pc.slow.Load() && r.n >= r.cap/2) {
			pc.qmu.Unlock()
			return enqShed, 0
		}
	}
	if !r.push(buf) {
		pc.qmu.Unlock()
		if cls == core.ClassCritical {
			return enqOverflow, 0
		}
		return enqShed, 0
	}
	critDepth = pc.rings[core.ClassCritical].n
	pc.qmu.Unlock()
	select {
	case pc.wake <- struct{}{}:
	default:
	}
	return enqOK, critDepth
}

// frameBatch is one peer writer's outgoing batch: queued frames copied
// into buf, or one frame over maxWriteBatch held in large and written
// without a copy. A batch whose write failed stays whole and is written
// first on the next connection.
type frameBatch struct {
	buf    []byte
	large  []byte
	frames int
	spent  [][]byte // frame buffers copied into buf, not yet recycled
}

func (b *frameBatch) bytes() []byte {
	if b.large != nil {
		return b.large
	}
	return b.buf
}

func (b *frameBatch) reset() {
	b.buf, b.large, b.frames = b.buf[:0], nil, 0
}

// fillBatch moves queued frames into the empty batch b, Critical first,
// until the next frame would take it past maxWriteBatch, and stamps
// lastUsed with now. It reports whether b holds a frame. Stamping under
// qmu means the reaper sees either the frames still queued or the fresh
// stamp, never an idle peer with a batch about to go out.
func (pc *peerConn) fillBatch(b *frameBatch, now time.Time) bool {
	pc.qmu.Lock()
	defer pc.qmu.Unlock()
fill:
	for c := range pc.rings {
		r := &pc.rings[c]
		for r.n > 0 {
			f := r.peek()
			if b.frames > 0 && len(b.buf)+len(f) > maxWriteBatch {
				break fill
			}
			r.pop()
			b.frames++
			if len(f) > maxWriteBatch {
				b.large = f
				break fill
			}
			b.buf = append(b.buf, f...)
			b.spent = append(b.spent, f)
		}
	}
	if b.frames == 0 {
		return false
	}
	pc.lastUsed.Store(now.UnixNano())
	return true
}

// queuedPerClass snapshots the per-class queue depths (drop accounting,
// idle reaping).
func (pc *peerConn) queuedPerClass() (out [core.NumClasses]int64, total int64) {
	pc.qmu.Lock()
	defer pc.qmu.Unlock()
	for c := range pc.rings {
		out[c] = int64(pc.rings[c].n)
		total += out[c]
	}
	return out, total
}

// pressure reports this peer's ring occupancy relative to the soft caps.
func (pc *peerConn) pressure(critSoft, repairCap, bgCap int) (crit, worst float64, bytes int64) {
	pc.qmu.Lock()
	defer pc.qmu.Unlock()
	crit = float64(pc.rings[core.ClassCritical].n) / float64(critSoft)
	worst = crit
	if f := float64(pc.rings[core.ClassRepair].n) / float64(repairCap); f > worst {
		worst = f
	}
	if f := float64(pc.rings[core.ClassBackground].n) / float64(bgCap); f > worst {
		worst = f
	}
	for c := range pc.rings {
		bytes += pc.rings[c].bytes
	}
	return crit, worst, bytes
}

// errPeerStopped signals the writer loop that its peer was dropped or the
// transport closed.
var errPeerStopped = errors.New("live: peer stopped")

// NewTCPTransport listens on listenAddr (e.g. "127.0.0.1:0") for both TCP
// and UDP with default resilience options. id is stamped on outgoing
// frames.
func NewTCPTransport(id core.NodeID, listenAddr string) (*TCPTransport, error) {
	return NewTCPTransportWithOptions(id, listenAddr, TCPOptions{})
}

// NewTCPTransportWithOptions listens on listenAddr with explicit
// reconnect/deadline tuning.
func NewTCPTransportWithOptions(id core.NodeID, listenAddr string, opts TCPOptions) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("live: listen tcp: %w", err)
	}
	udpAddr, err := net.ResolveUDPAddr("udp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, err
	}
	udp, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("live: listen udp: %w", err)
	}
	t := &TCPTransport{
		id:         id,
		ln:         ln,
		udp:        udp,
		addr:       ln.Addr().String(),
		opts:       opts.withDefaults(),
		counters:   metrics.NewAtomicCounter(),
		conns:      make(map[string]*peerConn),
		inbound:    make(map[net.Conn]bool),
		encLogged:  make(map[string]bool),
		stopReaper: make(chan struct{}),
	}
	t.wg.Add(2)
	go t.acceptLoop()
	go t.udpLoop()
	if t.opts.IdleTimeout > 0 {
		t.wg.Add(1)
		go t.reapLoop()
	}
	return t, nil
}

// Addr returns the listening address.
func (t *TCPTransport) Addr() string { return t.addr }

// Stats returns a snapshot of the transport's counters (see the Ctr*
// constants for the names).
func (t *TCPTransport) Stats() map[string]int64 { return t.counters.Snapshot() }

// SetHandlers registers the inbound callbacks.
func (t *TCPTransport) SetHandlers(h Handler, f FailureHandler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
	t.failure = f
}

func (t *TCPTransport) handlers() (Handler, FailureHandler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.handler, t.failure
}

// encodeError counts a wire serialization failure and logs it once per
// peer (they indicate a bug or an oversized payload, not a network issue).
func (t *TCPTransport) encodeError(addr string, err error) {
	t.counters.Inc(CtrEncodeErrors, 1)
	t.mu.Lock()
	logged := t.encLogged[addr]
	if !logged {
		t.encLogged[addr] = true
	}
	t.mu.Unlock()
	if !logged {
		t.opts.Logf("live: node %d: dropping unencodable frame for %s: %v", t.id, addr, err)
	}
}

// Send queues a reliable frame toward addr, dialing if needed. The frame
// is admitted under its message class: a full Background or Repair ring
// (or a slow peer) sheds the frame — the gossip/sync machinery recovers
// the content later — while Critical frames ride the elastic ring and
// only a hard-cap overflow (a truly wedged peer) drops the peer.
func (t *TCPTransport) Send(addr string, to core.NodeID, m core.Message) {
	cls := core.ClassOf(m)
	if t.opts.ShedPolicy == "off" {
		cls = core.ClassCritical
	}
	buf, err := wire.Append(t.frameBuf(), t.id, m)
	if err != nil {
		t.encodeError(addr, err)
		return
	}
	pc := t.peer(addr, to)
	if pc == nil {
		return
	}
	res, critDepth := pc.enqueue(cls, buf)
	if res != enqOK {
		t.recycle(buf)
	}
	switch res {
	case enqOK:
		// Crossing half the Critical soft cap kicks the overload governor
		// so Shedding can engage before the ring saturates. Past the soft
		// cap the ring is racing toward its hard cap — a flood can cover
		// that distance inside the rate-limit window, so escalation
		// notifies unconditionally.
		if cls == core.ClassCritical && critDepth*2 >= t.opts.QueueCritical {
			t.notifyPressure(critDepth >= t.opts.QueueCritical)
		}
	case enqShed:
		t.counters.Inc(CtrFramesDropped, 1)
		t.counters.Inc(ctrDroppedByClass[cls], 1)
	case enqOverflow:
		// Critical hard cap exceeded; treat like a broken pipe so the
		// protocol reacts instead of the caller blocking. The queued
		// frames are lost with the peer.
		t.counters.Inc(CtrQueueOverflow, 1)
		t.counters.Inc(CtrFramesDropped, 1)
		t.counters.Inc(ctrDroppedByClass[cls], 1)
		t.countQueuedDrops(pc)
		t.dropPeer(pc, true)
	}
}

// countQueuedDrops attributes every frame still queued on pc to the drop
// counters (called when the peer is being abandoned).
func (t *TCPTransport) countQueuedDrops(pc *peerConn) {
	perClass, total := pc.queuedPerClass()
	if total == 0 {
		return
	}
	t.counters.Inc(CtrFramesDropped, total)
	for c, n := range perClass {
		if n > 0 {
			t.counters.Inc(ctrDroppedByClass[c], n)
		}
	}
}

// notifyPressure invokes the registered pressure handler, rate-limited so
// a hot Send path cannot spam the governor; force bypasses the rate limit
// for escalations that must reach the governor before the next window.
func (t *TCPTransport) notifyPressure(force bool) {
	now := time.Now().UnixNano()
	last := t.lastPressure.Load()
	if !force && (now-last < int64(10*time.Millisecond) || !t.lastPressure.CompareAndSwap(last, now)) {
		return
	}
	t.mu.Lock()
	h := t.pressureH
	t.mu.Unlock()
	if h != nil {
		h()
	}
}

// SetPressureHandler registers a callback kicked (rate-limited) whenever a
// peer's Critical ring crosses half its soft cap. The live node uses it to
// run an immediate overload evaluation.
func (t *TCPTransport) SetPressureHandler(fn func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pressureH = fn
}

// QueuePressure reports the worst per-peer ring occupancy and the total
// queued bytes across peers, for the overload governor.
func (t *TCPTransport) QueuePressure() QueuePressure {
	t.mu.Lock()
	pcs := make([]*peerConn, 0, len(t.conns))
	for _, pc := range t.conns {
		pcs = append(pcs, pc)
	}
	t.mu.Unlock()
	var out QueuePressure
	for _, pc := range pcs {
		crit, worst, bytes := pc.pressure(t.opts.QueueCritical, t.opts.QueueRepair, t.opts.QueueBackground)
		if crit > out.Critical {
			out.Critical = crit
		}
		if worst > out.Worst {
			out.Worst = worst
		}
		out.QueuedBytes += bytes
	}
	return out
}

// SendDatagram sends one UDP packet; network errors and oversized frames
// are dropped silently, as UDP semantics dictate, but serialization
// failures are counted.
func (t *TCPTransport) SendDatagram(addr string, to core.NodeID, m core.Message) {
	buf, err := wire.Append(t.frameBuf(), t.id, m)
	if err != nil {
		t.encodeError(addr, err)
		return
	}
	defer t.recycle(buf)
	if len(buf) > 60000 {
		return
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return
	}
	_, _ = t.udp.WriteToUDP(buf, ua)
}

// peer returns (creating if necessary) the outbound connection state.
func (t *TCPTransport) peer(addr string, to core.NodeID) *peerConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if pc, ok := t.conns[addr]; ok {
		return pc
	}
	pc := &peerConn{
		addr: addr,
		to:   to,
		done: make(chan struct{}),
		wake: make(chan struct{}, 1),
	}
	pc.rings[core.ClassCritical].cap = t.opts.QueueCriticalHard
	pc.rings[core.ClassRepair].cap = t.opts.QueueRepair
	pc.rings[core.ClassBackground].cap = t.opts.QueueBackground
	pc.lastUsed.Store(time.Now().UnixNano())
	t.conns[addr] = pc
	t.wg.Add(1)
	go t.writeLoop(pc)
	return pc
}

// writeLoop owns one peer's connection lifecycle: dial (with backoff
// across failures), drain the frame queue onto the connection, and on a
// broken pipe salvage the failed batch and redial. It exits when the peer
// is stopped or redial attempts are exhausted.
func (t *TCPTransport) writeLoop(pc *peerConn) {
	defer t.wg.Done()
	backoff := t.opts.RedialBackoff
	failures := 0
	hadConn := false
	var batch frameBatch // holds a failed batch across redials, resent first
	for {
		conn, err := t.dialPeer(pc)
		if err != nil {
			if errors.Is(err, errPeerStopped) {
				return
			}
			t.counters.Inc(CtrDialErrors, 1)
			failures++
			if failures > t.opts.RedialAttempts {
				t.counters.Inc(CtrPeersFailed, 1)
				t.countQueuedDrops(pc)
				if batch.frames > 0 {
					// The salvaged batch is lost with the peer; its frames'
					// classes were erased when they left the rings, so they
					// count in the total only.
					t.counters.Inc(CtrFramesDropped, int64(batch.frames))
				}
				t.dropPeer(pc, true)
				return
			}
			if !t.pause(pc, withJitter(backoff)) {
				return
			}
			backoff *= 2
			if backoff > t.opts.RedialBackoffMax {
				backoff = t.opts.RedialBackoffMax
			}
			continue
		}
		t.counters.Inc(CtrDials, 1)
		if hadConn || failures > 0 {
			t.counters.Inc(CtrRedials, 1)
		}
		if failures > 0 {
			t.counters.Inc(CtrBackoffResets, 1)
		}
		failures = 0
		backoff = t.opts.RedialBackoff
		hadConn = true
		if !t.writeFrames(pc, conn, &batch) {
			return
		}
		// Connection broke; loop redials. Frames still queued (and the
		// salvaged batch) survive for the next connection. The
		// short pause keeps a flapping peer from inducing a dial hot-loop.
		if !t.pause(pc, withJitter(backoff)) {
			return
		}
	}
}

// dialPeer dials with the configured timeout, registers the connection,
// and starts its read loop. Inbound frames can arrive on outbound
// connections too.
func (t *TCPTransport) dialPeer(pc *peerConn) (net.Conn, error) {
	select {
	case <-pc.done:
		return nil, errPeerStopped
	default:
	}
	d := net.Dialer{Timeout: t.opts.DialTimeout}
	conn, err := d.Dial("tcp", pc.addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, errPeerStopped
	}
	select {
	case <-pc.done:
		t.mu.Unlock()
		conn.Close()
		return nil, errPeerStopped
	default:
	}
	pc.conn = conn
	t.mu.Unlock()
	t.wg.Add(1)
	go t.readLoop(conn)
	return conn, nil
}

// writeFrames pumps queued frames onto conn until the peer stops (returns
// false) or a write fails (returns true to redial; the failed batch stays
// in b for resend). Each wake drains whatever is queued into one batch —
// it never waits for more — and sends it with one deadline and one write,
// whose latency is one sample of the peer's flow-control EWMA.
func (t *TCPTransport) writeFrames(pc *peerConn, conn net.Conn, b *frameBatch) bool {
	for {
		now := time.Now()
		if b.frames == 0 {
			if !pc.fillBatch(b, now) {
				select {
				case <-pc.done:
					conn.Close()
					return false
				case <-pc.wake:
				}
				continue
			}
			t.recycle(b.spent...)
			clear(b.spent)
			b.spent = b.spent[:0]
		}
		conn.SetWriteDeadline(now.Add(t.opts.WriteTimeout))
		if _, err := conn.Write(b.bytes()); err != nil {
			// A partial write is fine to retry: the broken connection is
			// discarded wholesale, so the remote never sees a frame
			// spliced across connections, and a frame that did get
			// through before the break is a duplicate that core's seen
			// set absorbs.
			t.counters.Inc(CtrWriteErrors, 1)
			t.counters.Inc(CtrFramesRequeue, int64(b.frames))
			conn.Close()
			t.mu.Lock()
			if pc.conn == conn {
				pc.conn = nil
			}
			t.mu.Unlock()
			return true
		}
		b.reset()
		t.noteWriteLatency(pc, time.Since(now))
	}
}

// noteWriteLatency feeds one write's duration into the peer's EWMA
// and flips its slow flag with hysteresis: pause above the threshold,
// resume below half of it.
func (t *TCPTransport) noteWriteLatency(pc *peerConn, d time.Duration) {
	thresh := t.opts.SlowWriteThreshold
	if thresh <= 0 {
		return
	}
	old := pc.ewmaNs.Load()
	ewma := old + (int64(d)-old)/8
	pc.ewmaNs.Store(ewma)
	switch {
	case !pc.slow.Load() && ewma > int64(thresh):
		pc.slow.Store(true)
		t.counters.Inc(CtrPeerPauses, 1)
		t.notifyPressure(false)
	case pc.slow.Load() && ewma < int64(thresh)/2:
		pc.slow.Store(false)
		t.counters.Inc(CtrPeerResumes, 1)
	}
}

// pause sleeps d or until the peer stops; it reports whether to continue.
func (t *TCPTransport) pause(pc *peerConn, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-pc.done:
		return false
	case <-timer.C:
		return true
	}
}

// withJitter spreads d uniformly over [0.5d, 1.5d) so redial storms from
// many peers decorrelate.
func withJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// dropPeer removes the connection and reports the failure once.
func (t *TCPTransport) dropPeer(pc *peerConn, notify bool) {
	t.mu.Lock()
	cur, ok := t.conns[pc.addr]
	if ok && cur == pc {
		delete(t.conns, pc.addr)
	}
	closed := t.closed
	fail := t.failure
	conn := pc.conn
	t.mu.Unlock()
	pc.stop()
	if conn != nil {
		conn.Close()
	}
	if ok && cur == pc && notify && !closed && fail != nil {
		fail(pc.to)
	}
}

// DropConnections abruptly closes every open TCP connection (outbound and
// inbound) without touching peer state — simulating a transient network
// reset for chaos tests. Queued and in-flight frames are resent after the
// automatic backoff redial; no failure is reported. It returns how many
// connections were cut.
func (t *TCPTransport) DropConnections() int {
	t.mu.Lock()
	var conns []net.Conn
	for _, pc := range t.conns {
		if pc.conn != nil {
			conns = append(conns, pc.conn)
		}
	}
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return len(conns)
}

// reapLoop periodically stops outbound connections that have written
// nothing for IdleTimeout and have nothing queued. Reaping is silent: the
// peer is not reported down, and the next Send toward it simply redials.
func (t *TCPTransport) reapLoop() {
	defer t.wg.Done()
	period := t.opts.IdleTimeout / 4
	if period < time.Second {
		period = time.Second
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-t.stopReaper:
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-t.opts.IdleTimeout).UnixNano()
		t.mu.Lock()
		var idle []*peerConn
		for _, pc := range t.conns {
			if _, queued := pc.queuedPerClass(); pc.lastUsed.Load() < cutoff && queued == 0 {
				idle = append(idle, pc)
			}
		}
		t.mu.Unlock()
		for _, pc := range idle {
			t.counters.Inc(CtrIdleReaped, 1)
			t.dropPeer(pc, false)
		}
	}
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return
	}
	t.inbound[conn] = true
	t.mu.Unlock()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	// The transport owns the socket reads, as it owns the writes: each
	// read takes in every frame the peer's batch put on the wire, and the
	// wire reader decodes them in place from its reused buffer.
	var fr wire.Reader
	for {
		n, rerr := conn.Read(fr.Space())
		fr.Fill(n)
		h, _ := t.handlers()
		for {
			from, m, ok, err := fr.Next()
			if err != nil {
				return
			}
			if !ok {
				break
			}
			if h != nil {
				h(from, m)
			}
		}
		if rerr != nil {
			return
		}
	}
}

func (t *TCPTransport) udpLoop() {
	defer t.wg.Done()
	buf := make([]byte, 65536)
	for {
		n, _, err := t.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if n < 4 {
			continue
		}
		from, m, err := wire.Decode(buf[4:n])
		if err != nil {
			continue
		}
		h, _ := t.handlers()
		if h != nil {
			h(from, m)
		}
	}
}

// Close shuts the listeners and all connections down and waits for the
// transport's goroutines to exit.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	type closing struct {
		pc   *peerConn
		conn net.Conn
	}
	conns := make([]closing, 0, len(t.conns))
	for _, pc := range t.conns {
		conns = append(conns, closing{pc: pc, conn: pc.conn})
	}
	t.conns = make(map[string]*peerConn)
	ins := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		ins = append(ins, c)
	}
	t.mu.Unlock()

	close(t.stopReaper)
	t.ln.Close()
	t.udp.Close()
	for _, c := range ins {
		c.Close()
	}
	for _, c := range conns {
		c.pc.stop()
		if c.conn != nil {
			c.conn.Close()
		}
	}
	t.wg.Wait()
	return nil
}
