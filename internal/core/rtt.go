package core

import "time"

// RTT measurement and triangulated latency estimation.
//
// Real RTTs are measured with Ping/Pong datagrams (one measurement per
// maintenance cycle during the replacement sweep, per Section 2.2.3).
// Cheap estimates use the triangular heuristic the paper cites [13]:
// every node measures its RTT to a small set of landmark nodes once;
// membership entries carry the resulting vector; the estimate for a pair
// is the midpoint of the triangle-inequality bounds their vectors imply.

// pingPurpose says why a ping was sent, so the pong resumes the right
// operation.
type pingPurpose uint8

const (
	pingProbeReplace pingPurpose = iota + 1
	pingProbeAddNearby
	pingProbeAddRandom
	pingMeasureLink
	pingLandmark
)

type pingCtx struct {
	nonce    uint32
	target   NodeID
	purpose  pingPurpose
	sentAt   time.Duration
	landmark int // index into landmarks for pingLandmark
	// answered marks a ping whose target has since answered a later ping:
	// a ping swallowed by a transient fault then proves nothing, so its
	// expiry must not evict the target (see expirePings). A rejoin or the
	// target's removal from the view clears the mark (forgetPongs).
	answered bool
}

// SetLandmarks installs the landmark set used for latency estimation.
func (n *Node) SetLandmarks(ls []Entry) {
	n.landmarks = append([]Entry(nil), ls...)
	n.landVec = make([]uint16, len(ls))
	n.selfLmOK = false
	for _, e := range ls {
		n.learnEntry(e)
	}
}

// Landmarks returns the installed landmark set.
func (n *Node) Landmarks() []Entry { return append([]Entry(nil), n.landmarks...) }

// measureLandmarks pings each landmark once to build this node's vector.
func (n *Node) measureLandmarks() {
	for i, lm := range n.landmarks {
		if lm.ID == n.id {
			n.landVec[i] = 1 // RTT to self: local loopback, ~1 ms
			n.selfLmOK = false
			continue
		}
		n.sendPing(lm.ID, pingCtx{target: lm.ID, purpose: pingLandmark, landmark: i})
	}
}

// landmarksReady reports whether enough of the landmark vector has been
// measured to produce estimates (at least half).
func (n *Node) landmarksReady() bool {
	if len(n.landVec) == 0 {
		return false
	}
	got := 0
	for _, v := range n.landVec {
		if v > 0 {
			got++
		}
	}
	return got*2 >= len(n.landVec)
}

// estimateRTT estimates the RTT to a node from landmark vectors using the
// triangular heuristic: for every landmark i, |a_i - b_i| is a lower bound
// and a_i + b_i an upper bound on the pair RTT; the estimate is the
// midpoint of the tightest bounds. Nodes without vectors sort last.
func (n *Node) estimateRTT(e Entry) time.Duration {
	const unknown = time.Hour
	if len(e.Landmarks) == 0 || len(n.landVec) == 0 {
		return unknown
	}
	lower, upper := int64(0), int64(1<<62)
	found := false
	m := len(n.landVec)
	if len(e.Landmarks) < m {
		m = len(e.Landmarks)
	}
	for i := 0; i < m; i++ {
		a, b := int64(n.landVec[i]), int64(e.Landmarks[i])
		if a == 0 || b == 0 {
			continue
		}
		found = true
		lo := a - b
		if lo < 0 {
			lo = -lo
		}
		if lo > lower {
			lower = lo
		}
		if hi := a + b; hi < upper {
			upper = hi
		}
	}
	if !found {
		return unknown
	}
	if upper < lower {
		upper = lower
	}
	return time.Duration((lower+upper)/2) * time.Millisecond
}

// sendPing issues a datagram ping and registers its context.
func (n *Node) sendPing(to NodeID, ctx pingCtx) {
	n.pingNonce++
	ctx.nonce = n.pingNonce
	ctx.sentAt = n.env.Now()
	n.pings = append(n.pings, ctx)
	n.stats.PingsSent++
	n.env.SendDatagram(to, &Ping{From: n.selfEntry(), Nonce: n.pingNonce})
}

// handlePing answers with the node's degrees; pings also spread contact
// information.
func (n *Node) handlePing(from NodeID, m *Ping) {
	if n.staleSender(m.From) {
		return // no pong for a dead past life
	}
	n.learnEntry(m.From)
	n.env.SendDatagram(from, &Pong{From: n.selfEntry(), Nonce: m.Nonce, Degrees: n.degrees()})
}

// handlePong records the measured RTT and resumes the operation that
// triggered the ping.
func (n *Node) handlePong(from NodeID, m *Pong) {
	if n.staleSender(m.From) {
		return
	}
	i := n.pingIndex(m.Nonce)
	if i < 0 || n.pings[i].target != from {
		return
	}
	ctx := n.pings[i]
	n.pings = append(n.pings[:i], n.pings[i+1:]...)
	now := n.env.Now()
	rtt := now - ctx.sentAt
	if rtt <= 0 {
		rtt = time.Millisecond
	}
	n.rtt[from] = rtt
	// from has now answered after every earlier ping to it was sent.
	for j := range n.pings {
		if p := &n.pings[j]; p.target == from && p.sentAt < now {
			p.answered = true
		}
	}
	n.learnEntry(m.From)
	if nb := n.findNeighbor(from); nb != nil {
		nb.deg = m.Degrees
		nb.degKnown = true
		if ctx.purpose == pingMeasureLink || nb.rtt == 0 {
			nb.rtt = rtt
			n.degCacheOK = false
		}
	}
	switch ctx.purpose {
	case pingLandmark:
		if ctx.landmark < len(n.landVec) {
			ms := rtt / time.Millisecond
			if ms < 1 {
				ms = 1
			}
			if ms > 0xffff {
				ms = 0xffff
			}
			n.landVec[ctx.landmark] = uint16(ms)
			n.selfLmOK = false
		}
	case pingProbeReplace:
		n.resumeReplace(m.From, rtt, m.Degrees)
	case pingProbeAddNearby:
		n.resumeAddNearby(m.From, rtt, m.Degrees)
	case pingProbeAddRandom:
		n.resumeAddRandom(m.From, rtt, m.Degrees)
	case pingMeasureLink:
		// RTT already recorded above.
	}
}

// pingIndex returns the position of the outstanding ping with the given
// nonce, or -1. Outstanding nonces ascend through the queue.
func (n *Node) pingIndex(nonce uint32) int {
	for i := range n.pings {
		if n.pings[i].nonce == nonce {
			return i
		}
	}
	return -1
}

// forgetPongs withdraws the evidence that peer answered after any of its
// outstanding pings were sent: the pongs vouched for a life (or a view
// entry) that is gone.
func (n *Node) forgetPongs(peer NodeID) {
	for i := range n.pings {
		if n.pings[i].target == peer {
			n.pings[i].answered = false
		}
	}
}

// expirePings drops ping contexts that never got a pong, and evicts the
// unresponsive target from the member view (it is likely dead). Pings
// are queued in send order, so the expired ones form a prefix and are
// handled oldest first.
func (n *Node) expirePings() {
	now := n.env.Now()
	k := 0
	for k < len(n.pings) && now-n.pings[k].sentAt > pingTimeout {
		k++
	}
	// Handling an expiry can send pings (appended, never expired here) and
	// clear marks on later expired ones, so index the live queue and drop
	// the prefix only afterwards.
	for i := 0; i < k; i++ {
		ctx := n.pings[i]
		if ctx.purpose == pingLandmark || ctx.purpose == pingMeasureLink {
			continue
		}
		// A ping swallowed by a transient fault (e.g. a partition that has
		// since healed) must not evict a member that answered a later ping.
		if ctx.answered {
			continue
		}
		if !n.isNeighbor(ctx.target) {
			// Quarantine locally so stale gossip cannot immediately
			// re-teach us the likely-dead entry (not spread: one lost
			// datagram is weak evidence).
			n.recordObit(ctx.target, n.knownInc(ctx.target), false)
		} else {
			n.forgetMember(ctx.target)
		}
	}
	if k > 0 {
		n.pings = append(n.pings[:0], n.pings[k:]...)
	}
}

const pingTimeout = 3 * time.Second
