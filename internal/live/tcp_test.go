package live

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gocast/internal/core"
	"gocast/internal/store"
	"gocast/internal/wire"
)

// fastTCPOptions returns resilience tuning suitable for tests: quick
// redials, no idle reaping.
func fastTCPOptions() TCPOptions {
	return TCPOptions{
		DialTimeout:   time.Second,
		RedialBackoff: 20 * time.Millisecond,
		IdleTimeout:   -1,
	}
}

func mustTCP(t *testing.T, id core.NodeID, opts TCPOptions) *TCPTransport {
	t.Helper()
	tr, err := NewTCPTransportWithOptions(id, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return tr
}

// TestTCPRedialRestoresLinkAfterCut cuts every open connection and checks
// the next send transparently re-establishes the link: delivery succeeds,
// the redial counters move, and no failure is reported to the protocol.
func TestTCPRedialRestoresLinkAfterCut(t *testing.T) {
	a := mustTCP(t, 1, fastTCPOptions())
	defer a.Close()
	b := mustTCP(t, 2, fastTCPOptions())
	defer b.Close()

	var got, failed atomic.Int64
	b.SetHandlers(func(core.NodeID, core.Message) { got.Add(1) }, nil)
	a.SetHandlers(func(core.NodeID, core.Message) {}, func(core.NodeID) { failed.Add(1) })

	a.Send(b.Addr(), 2, &core.TreeParent{On: true})
	waitCount(t, &got, 1, "initial send")

	if n := a.DropConnections(); n == 0 {
		t.Fatalf("no connections to cut")
	}
	a.Send(b.Addr(), 2, &core.TreeParent{On: true})
	waitCount(t, &got, 2, "send after the connection was cut")

	s := a.Stats()
	if s[CtrRedials] < 1 {
		t.Errorf("tcp_redials = %d, want >= 1", s[CtrRedials])
	}
	if s[CtrWriteErrors] < 1 {
		t.Errorf("tcp_write_errors = %d, want >= 1", s[CtrWriteErrors])
	}
	if s[CtrFramesRequeue] < 1 {
		t.Errorf("tcp_frames_requeued = %d, want >= 1", s[CtrFramesRequeue])
	}
	if failed.Load() != 0 {
		t.Errorf("transient connection cut reported as a peer failure")
	}
}

// TestTCPRedialExhaustionReportsPeerDown sends toward a dead address and
// checks the failure is reported only after the configured attempts.
func TestTCPRedialExhaustionReportsPeerDown(t *testing.T) {
	opts := fastTCPOptions()
	opts.RedialAttempts = 2
	a := mustTCP(t, 1, opts)
	defer a.Close()

	failures := make(chan core.NodeID, 1)
	a.SetHandlers(func(core.NodeID, core.Message) {}, func(p core.NodeID) { failures <- p })

	// A port that was just freed: connection refused, instantly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dead := ln.Addr().String()
	ln.Close()

	a.Send(dead, 9, &core.TreeParent{})
	select {
	case p := <-failures:
		if p != 9 {
			t.Fatalf("failure reported for peer %d, want 9", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("peer never reported down")
	}
	s := a.Stats()
	if s[CtrDialErrors] != 3 { // initial attempt + RedialAttempts retries
		t.Errorf("tcp_dial_errors = %d, want 3", s[CtrDialErrors])
	}
	if s[CtrPeersFailed] != 1 {
		t.Errorf("tcp_peers_failed = %d, want 1", s[CtrPeersFailed])
	}
	if s[CtrFramesDropped] < 1 {
		t.Errorf("tcp_frames_dropped = %d, want >= 1", s[CtrFramesDropped])
	}
}

// TestTCPWriteDeadlineUnwedgesStalledPeer writes at a sink that accepts
// but never reads; once the kernel buffers fill, only the write deadline
// can unblock the writer goroutine.
func TestTCPWriteDeadlineUnwedgesStalledPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var (
		mu    sync.Mutex
		conns []net.Conn
	)
	defer func() {
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c) // never read from it
			mu.Unlock()
		}
	}()

	opts := fastTCPOptions()
	opts.WriteTimeout = 200 * time.Millisecond
	a := mustTCP(t, 1, opts)
	defer a.Close()
	a.SetHandlers(func(core.NodeID, core.Message) {}, nil)

	payload := make([]byte, 512*1024)
	for i := 0; i < 16; i++ { // ~8 MB, far beyond loopback socket buffers
		a.Send(ln.Addr().String(), 9, &core.Multicast{ID: core.MessageID{Source: 1, Seq: uint32(i)}, Payload: payload})
	}
	deadline := time.Now().Add(10 * time.Second)
	for a.Stats()[CtrWriteErrors] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("write deadline never fired against a stalled peer")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTCPIdleConnectionsReaped checks inactivity reaping is silent and the
// next send transparently redials.
func TestTCPIdleConnectionsReaped(t *testing.T) {
	opts := fastTCPOptions()
	opts.IdleTimeout = 300 * time.Millisecond
	a := mustTCP(t, 1, opts)
	defer a.Close()
	b := mustTCP(t, 2, fastTCPOptions())
	defer b.Close()

	var got, failed atomic.Int64
	b.SetHandlers(func(core.NodeID, core.Message) { got.Add(1) }, nil)
	a.SetHandlers(func(core.NodeID, core.Message) {}, func(core.NodeID) { failed.Add(1) })

	a.Send(b.Addr(), 2, &core.TreeParent{})
	waitCount(t, &got, 1, "initial send")

	deadline := time.Now().Add(10 * time.Second)
	for a.Stats()[CtrIdleReaped] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle connection never reaped")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if failed.Load() != 0 {
		t.Errorf("idle reap reported a peer failure")
	}
	a.Send(b.Addr(), 2, &core.TreeParent{})
	waitCount(t, &got, 2, "send after idle reap")
}

// TestTCPEncodeErrorsCountedAndLoggedOnce checks satellite behavior: a
// frame that cannot serialize is counted every time but logged only once
// per peer.
func TestTCPEncodeErrorsCountedAndLoggedOnce(t *testing.T) {
	var logs atomic.Int64
	opts := fastTCPOptions()
	opts.Logf = func(string, ...any) { logs.Add(1) }
	a := mustTCP(t, 1, opts)
	defer a.Close()
	a.SetHandlers(func(core.NodeID, core.Message) {}, nil)

	bad := &core.JoinRequest{From: core.Entry{ID: 3, Addr: strings.Repeat("x", 70000)}}
	a.Send("127.0.0.1:1", 3, bad)
	a.Send("127.0.0.1:1", 3, bad)
	a.SendDatagram("127.0.0.1:1", 3, bad)
	if got := a.Stats()[CtrEncodeErrors]; got != 3 {
		t.Errorf("tcp_encode_errors = %d, want 3", got)
	}
	if got := logs.Load(); got != 1 {
		t.Errorf("encode error logged %d times, want once per peer", got)
	}
	// A different peer gets its own log line.
	a.Send("127.0.0.1:2", 4, bad)
	if got := logs.Load(); got != 2 {
		t.Errorf("second peer's encode error not logged (logs %d)", got)
	}
}

// deadTCPAddr returns a localhost address that refuses connections: a
// listener is opened to reserve the port, then closed.
func deadTCPAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestTCPQueueClassingUnderFlood pins the per-peer overflow semantics: a
// Background flood toward an unreachable peer sheds Background (and then
// Repair) frames while Critical frames keep being admitted into the
// elastic ring — the peer is never dropped — and every drop is attributed
// to its class. Only pushing Critical past its hard cap overflows and
// drops the peer.
func TestTCPQueueClassingUnderFlood(t *testing.T) {
	tr := mustTCP(t, 1, TCPOptions{
		DialTimeout:       200 * time.Millisecond,
		RedialAttempts:    1000,
		RedialBackoff:     time.Hour, // park the writer after the first refused dial
		RedialBackoffMax:  time.Hour,
		IdleTimeout:       -1,
		QueueCritical:     8,
		QueueCriticalHard: 32,
		QueueRepair:       4,
		QueueBackground:   4,
		Logf:              t.Logf,
	})
	defer tr.Close()
	dead := deadTCPAddr(t)

	for i := 0; i < 100; i++ {
		tr.Send(dead, 2, &core.SyncRequest{}) // Background
	}
	for i := 0; i < 50; i++ {
		tr.Send(dead, 2, &core.PullRequest{}) // Repair
	}
	for i := 0; i < 20; i++ {
		tr.Send(dead, 2, &core.Gossip{}) // Critical, past the soft cap of 8
	}

	st := tr.Stats()
	if st[CtrQueueOverflow] != 0 {
		t.Fatalf("queue_overflows = %d during class flood, want 0 (peer must survive)", st[CtrQueueOverflow])
	}
	if st[CtrDroppedCritical] != 0 {
		t.Errorf("dropped_critical = %d, want 0", st[CtrDroppedCritical])
	}
	if st[CtrDroppedBackground] != 96 {
		t.Errorf("dropped_background = %d, want 96", st[CtrDroppedBackground])
	}
	if st[CtrDroppedRepair] != 46 {
		t.Errorf("dropped_repair = %d, want 46", st[CtrDroppedRepair])
	}
	if st[CtrFramesDropped] != 96+46 {
		t.Errorf("frames_dropped = %d, want %d", st[CtrFramesDropped], 96+46)
	}

	tr.mu.Lock()
	pc := tr.conns[dead]
	tr.mu.Unlock()
	if pc == nil {
		t.Fatal("peer was dropped by the class flood")
	}
	per, _ := pc.queuedPerClass()
	if per[core.ClassCritical] != 20 || per[core.ClassRepair] != 4 || per[core.ClassBackground] != 4 {
		t.Fatalf("queued per class = %v, want [20 4 4]", per)
	}

	// The governor view reflects the elastic Critical ring: > 1.0 of the
	// soft cap but below the hard cap.
	qp := tr.QueuePressure()
	if qp.Critical <= 1 || qp.QueuedBytes == 0 {
		t.Fatalf("QueuePressure = %+v, want Critical > 1 with queued bytes", qp)
	}

	// Pushing Critical past the hard cap (32) is a real overflow: the
	// peer is dropped and every queued frame is attributed.
	for i := 0; i < 13; i++ {
		tr.Send(dead, 2, &core.Gossip{})
	}
	st = tr.Stats()
	if st[CtrQueueOverflow] != 1 {
		t.Fatalf("queue_overflows = %d after hard-cap breach, want 1", st[CtrQueueOverflow])
	}
	// 1 overflowed frame + 32 queued Critical frames.
	if st[CtrDroppedCritical] != 33 {
		t.Errorf("dropped_critical = %d, want 33", st[CtrDroppedCritical])
	}
	if st[CtrDroppedRepair] != 46+4 || st[CtrDroppedBackground] != 96+4 {
		t.Errorf("post-overflow drops repair=%d background=%d, want 50/100",
			st[CtrDroppedRepair], st[CtrDroppedBackground])
	}
}

// TestTCPSlowPeerPausesBackground pins the flow-control hysteresis: a
// peer whose write-latency EWMA crosses SlowWriteThreshold is paused —
// Background enqueues shed immediately, Repair sheds above half its ring —
// and resumes only once the EWMA falls below half the threshold.
func TestTCPSlowPeerPausesBackground(t *testing.T) {
	tr := mustTCP(t, 1, TCPOptions{
		DialTimeout:        200 * time.Millisecond,
		RedialAttempts:     1000,
		RedialBackoff:      time.Hour,
		RedialBackoffMax:   time.Hour,
		IdleTimeout:        -1,
		SlowWriteThreshold: 100 * time.Millisecond,
		QueueRepair:        8,
		Logf:               t.Logf,
	})
	defer tr.Close()
	dead := deadTCPAddr(t)

	tr.Send(dead, 2, &core.Gossip{}) // materialize the peer
	tr.mu.Lock()
	pc := tr.conns[dead]
	tr.mu.Unlock()

	// Drive the EWMA over the threshold: each 800ms sample adds 100ms.
	for i := 0; i < 16 && !pc.slow.Load(); i++ {
		tr.noteWriteLatency(pc, 800*time.Millisecond)
	}
	if !pc.slow.Load() {
		t.Fatal("peer not marked slow after sustained slow writes")
	}
	if got := tr.Stats()[CtrPeerPauses]; got != 1 {
		t.Fatalf("peer_pauses = %d, want 1", got)
	}

	// Background sheds outright while paused; Repair still admits below
	// half its ring.
	tr.Send(dead, 2, &core.SyncRequest{})
	if got := tr.Stats()[CtrDroppedBackground]; got != 1 {
		t.Fatalf("dropped_background = %d while slow, want 1", got)
	}
	for i := 0; i < 8; i++ {
		tr.Send(dead, 2, &core.PullRequest{})
	}
	if got := tr.Stats()[CtrDroppedRepair]; got != 4 {
		t.Fatalf("dropped_repair = %d while slow, want 4 (half ring admitted)", got)
	}

	// Fast writes recover the peer only after the EWMA decays below half
	// the threshold.
	for i := 0; i < 64 && pc.slow.Load(); i++ {
		tr.noteWriteLatency(pc, time.Millisecond)
	}
	if pc.slow.Load() {
		t.Fatal("peer did not resume after EWMA decayed")
	}
	if got := tr.Stats()[CtrPeerResumes]; got != 1 {
		t.Fatalf("peer_resumes = %d, want 1", got)
	}
	tr.Send(dead, 2, &core.SyncRequest{})
	if got := tr.Stats()[CtrDroppedBackground]; got != 1 {
		t.Fatalf("dropped_background = %d after resume, want still 1", got)
	}
}

// tcpTestMsg is a tree-pushed (Critical) or pulled (Repair) multicast
// tagged with seq, so a receiver can check order and completeness.
func tcpTestMsg(seq uint32, viaTree bool) *core.Multicast {
	return &core.Multicast{ID: core.MessageID{Source: 1, Seq: seq}, Payload: []byte("frame"), ViaTree: viaTree}
}

// TestTCPQueuedFramesArriveInClassOrder queues frames of every class
// toward a peer that is not listening yet. Once it comes up, the writer's
// first batches carry every queued frame, Critical first and each class in
// send order.
func TestTCPQueuedFramesArriveInClassOrder(t *testing.T) {
	a := mustTCP(t, 1, TCPOptions{
		DialTimeout:      time.Second,
		RedialAttempts:   1000,
		RedialBackoff:    10 * time.Millisecond,
		RedialBackoffMax: 20 * time.Millisecond,
		IdleTimeout:      -1,
	})
	defer a.Close()
	addr := deadTCPAddr(t)

	const perClass = 10
	for i := uint32(0); i < perClass; i++ {
		a.Send(addr, 2, &core.SyncRequest{Ranges: []store.SourceRange{{Source: int32(i)}}}) // Background
		a.Send(addr, 2, tcpTestMsg(i, false))                                               // Repair
		a.Send(addr, 2, tcpTestMsg(i, true))                                                // Critical
	}
	for deadline := time.Now().Add(5 * time.Second); a.Stats()[CtrDialErrors] == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no refused dial while the peer is down")
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("address %s was taken before the peer came up: %v", addr, err)
	}
	defer ln.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var fr wire.Reader
	for want := 0; want < 3*perClass; want++ {
		_, m, ok, err := fr.Next()
		for !ok && err == nil {
			n, rerr := conn.Read(fr.Space())
			fr.Fill(n)
			if _, m, ok, err = fr.Next(); !ok && err == nil {
				err = rerr
			}
		}
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		seq := uint32(want % perClass)
		var match bool
		switch want / perClass {
		case 0:
			mc, isMC := m.(*core.Multicast)
			match = isMC && mc.ViaTree && mc.ID.Seq == seq
		case 1:
			mc, isMC := m.(*core.Multicast)
			match = isMC && !mc.ViaTree && mc.ID.Seq == seq
		default:
			sr, isSR := m.(*core.SyncRequest)
			match = isSR && len(sr.Ranges) == 1 && sr.Ranges[0].Source == int32(seq)
		}
		if !match {
			t.Fatalf("frame %d is %#v, want Critical, then Repair, then Background, each in send order", want, m)
		}
	}
	if got := a.Stats()[CtrFramesDropped]; got != 0 {
		t.Errorf("tcp_frames_dropped = %d, want 0", got)
	}
}

// TestTCPFailedBatchSalvagedWhole puts several frames in one batch on a
// connection that was cut while the writer idled. The write fails, the
// whole batch is requeued — tcp_frames_requeued counts its frames, not
// the one write — and every frame arrives once, in order, on the redial.
func TestTCPFailedBatchSalvagedWhole(t *testing.T) {
	a := mustTCP(t, 1, fastTCPOptions())
	defer a.Close()
	b := mustTCP(t, 2, fastTCPOptions())
	defer b.Close()

	var mu sync.Mutex
	var seqs []uint32
	var got atomic.Int64
	b.SetHandlers(func(_ core.NodeID, m core.Message) {
		mu.Lock()
		seqs = append(seqs, m.(*core.Multicast).ID.Seq)
		mu.Unlock()
		got.Add(1)
	}, nil)
	a.Send(b.Addr(), 2, tcpTestMsg(0, true))
	waitCount(t, &got, 1, "initial frame")

	if n := a.DropConnections(); n == 0 {
		t.Fatal("no connections to cut")
	}
	// Queue the frames in one step, as a burst of Sends would between two
	// wakes of the writer, so they all land in the batch whose write fails.
	a.mu.Lock()
	pc := a.conns[b.Addr()]
	a.mu.Unlock()
	const k = 5
	pc.qmu.Lock()
	for i := uint32(1); i <= k; i++ {
		frame, err := wire.Append(nil, 1, tcpTestMsg(i, true))
		if err != nil {
			t.Fatal(err)
		}
		pc.rings[core.ClassCritical].push(frame)
	}
	pc.qmu.Unlock()
	pc.wake <- struct{}{}
	waitCount(t, &got, k+1, "salvaged batch")
	time.Sleep(20 * time.Millisecond) // let any duplicate land

	s := a.Stats()
	if s[CtrWriteErrors] != 1 || s[CtrFramesRequeue] != k {
		t.Errorf("tcp_write_errors = %d, tcp_frames_requeued = %d, want 1 and %d", s[CtrWriteErrors], s[CtrFramesRequeue], k)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, seq := range seqs {
		if seq != uint32(i) || len(seqs) != k+1 {
			t.Fatalf("received seqs %v, want 0..%d once each in order", seqs, k)
		}
	}
}

// TestTCPCutMidStreamDeliversEveryFrame cuts the sender's connections in
// the middle of a stream. Every frame arrives at least once, and the
// frames that arrived twice (written before the break, then resent with
// their batch) are no more than tcp_frames_requeued.
func TestTCPCutMidStreamDeliversEveryFrame(t *testing.T) {
	opts := fastTCPOptions()
	opts.QueueCritical = 4096 // the stream outruns a redial; keep the peer
	a := mustTCP(t, 1, opts)
	defer a.Close()
	b := mustTCP(t, 2, fastTCPOptions())
	defer b.Close()

	const n = 2000
	var mu sync.Mutex
	seen := make(map[uint32]int, n)
	var unique, total atomic.Int64
	b.SetHandlers(func(_ core.NodeID, m core.Message) {
		seq := m.(*core.Multicast).ID.Seq
		mu.Lock()
		seen[seq]++
		if seen[seq] == 1 {
			unique.Add(1)
		}
		mu.Unlock()
		total.Add(1)
	}, nil)
	for i := uint32(0); i < n; i++ {
		a.Send(b.Addr(), 2, tcpTestMsg(i, true))
		if i == n/2 {
			// Cut once the stream is flowing, with frames still in flight.
			waitCount(t, &unique, n/4, "first quarter of the stream")
			if a.DropConnections() == 0 {
				t.Fatal("no connections to cut mid-stream")
			}
		}
	}
	waitCount(t, &unique, n, "every frame after the cut")
	time.Sleep(20 * time.Millisecond)

	s := a.Stats()
	t.Logf("%d deliveries of %d frames, %d requeued", total.Load(), n, s[CtrFramesRequeue])
	if s[CtrFramesRequeue] < 1 || s[CtrRedials] < 1 {
		t.Errorf("tcp_frames_requeued = %d, tcp_redials = %d, want both >= 1", s[CtrFramesRequeue], s[CtrRedials])
	}
	if dups := total.Load() - n; dups > s[CtrFramesRequeue] {
		t.Errorf("%d duplicate deliveries, more than the %d requeued frames", dups, s[CtrFramesRequeue])
	}
	if s[CtrFramesDropped] != 0 {
		t.Errorf("tcp_frames_dropped = %d, want 0", s[CtrFramesDropped])
	}
}

// BenchmarkTCPFrameRoundTrip sends 64 B tree-pushed Multicast frames from
// one TCPTransport's Send to another's handler over loopback; one op is
// one frame, so ns/op and allocs/op are per frame (both transports'
// goroutines count). inflight bounds the frames sent but not yet handled:
// at 1 every frame is its own write and read, at 64 the writer batches.
func BenchmarkTCPFrameRoundTrip(b *testing.B) {
	for _, inflight := range []int{1, 64} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			opts := TCPOptions{IdleTimeout: -1, Logf: b.Logf}
			src, err := NewTCPTransportWithOptions(1, "127.0.0.1:0", opts)
			if err != nil {
				b.Fatal(err)
			}
			defer src.Close()
			dst, err := NewTCPTransportWithOptions(2, "127.0.0.1:0", opts)
			if err != nil {
				b.Fatal(err)
			}
			defer dst.Close()
			done := make(chan struct{}, inflight)
			dst.SetHandlers(func(core.NodeID, core.Message) { done <- struct{}{} }, nil)
			m := &core.Multicast{
				ID: core.MessageID{Source: 1, Seq: 1}, Age: time.Millisecond,
				Payload: make([]byte, 64), ViaTree: true,
			}
			src.Send(dst.Addr(), 2, m) // dial before timing
			<-done

			b.ReportAllocs()
			b.ResetTimer()
			pending := 0
			for i := 0; i < b.N; i++ {
				if pending == inflight {
					<-done
					pending--
				}
				src.Send(dst.Addr(), 2, m)
				pending++
			}
			for ; pending > 0; pending-- {
				<-done
			}
			b.StopTimer()
			if s := src.Stats(); s[CtrFramesDropped] != 0 || s[CtrWriteErrors] != 0 {
				b.Fatalf("frames dropped %d, write errors %d", s[CtrFramesDropped], s[CtrWriteErrors])
			}
		})
	}
}

// TestTCPLargeFramesBetweenBatches mixes frames over the batch bound
// (written alone, without a copy) and over the receive buffer (read into
// a grown buffer) with small batched frames: all arrive intact and in
// order.
func TestTCPLargeFramesBetweenBatches(t *testing.T) {
	a := mustTCP(t, 1, fastTCPOptions())
	defer a.Close()
	b := mustTCP(t, 2, fastTCPOptions())
	defer b.Close()

	var mu sync.Mutex
	var got []*core.Multicast
	var count atomic.Int64
	b.SetHandlers(func(_ core.NodeID, m core.Message) {
		mu.Lock()
		got = append(got, m.(*core.Multicast))
		mu.Unlock()
		count.Add(1)
	}, nil)
	sizes := []int{10, maxWriteBatch + 1, 20, 30, 3 * wire.ReadBufferSize, 5, maxWriteBatch - 100, maxWriteBatch - 100, 1}
	for i, size := range sizes {
		m := tcpTestMsg(uint32(i), true)
		m.Payload = make([]byte, size)
		for j := range m.Payload {
			m.Payload[j] = byte(i + j)
		}
		a.Send(b.Addr(), 2, m)
	}
	waitCount(t, &count, int64(len(sizes)), "mixed-size frames")
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if m.ID.Seq != uint32(i) || len(m.Payload) != sizes[i] {
			t.Fatalf("frame %d: seq %d with %d bytes, want seq %d with %d", i, m.ID.Seq, len(m.Payload), i, sizes[i])
		}
		for j, c := range m.Payload {
			if c != byte(i+j) {
				t.Fatalf("frame %d: payload byte %d corrupted", i, j)
			}
		}
	}
}
