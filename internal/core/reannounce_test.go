package core

import (
	"testing"
	"time"
)

// TestReannounceToLateNeighbor models the dissemination side of a healed
// partition: a message that was fully announced (and therefore retired)
// while a node was unreachable must still reach that node when a link is
// installed later. Retired messages are not re-opened for gossip — the
// new link triggers a watermark digest sync, which carries the payload.
func TestReannounceToLateNeighbor(t *testing.T) {
	f := newFixture(11)
	cfg := DefaultConfig()
	a := f.addNode(1, cfg)
	b := f.addNode(2, cfg)
	c := f.addNode(3, cfg)
	for _, n := range []*Node{a, b, c} {
		n.Start()
	}
	a.BecomeRoot()
	f.link(1, 2, Random)

	id := a.Multicast([]byte("before-heal"))
	f.run(3 * time.Second)
	if !b.Seen(id) {
		t.Fatalf("linked neighbor never received the multicast")
	}
	if c.Seen(id) {
		t.Fatalf("isolated node received the multicast with no link")
	}
	if st := a.seen[pid(id)]; st == nil || !st.announceDone {
		t.Fatalf("message not retired at the source; the test setup is wrong")
	}

	// The "heal": node 3 becomes a neighbor of the source well after the
	// message was retired.
	f.link(1, 3, Random)
	f.run(5 * time.Second)
	if !c.Seen(id) {
		t.Fatalf("late neighbor never received the retired message")
	}
	if c.Stats().SyncItemsRecv == 0 {
		t.Fatalf("heal did not go through digest sync")
	}
}

// TestReannounceScrubsStaleAnnouncedTo covers the re-linked-peer case: an
// announcement of a still-in-flight message sent over a link that broke
// may never have arrived, so when the same peer is linked again the
// message must be announced once more.
func TestReannounceScrubsStaleAnnouncedTo(t *testing.T) {
	f := newFixture(12)
	cfg := DefaultConfig()
	cfg.SyncInterval = -1 // pin the gossip path; sync would also reconcile
	a := f.addNode(1, cfg)
	b := f.addNode(2, cfg)
	a.Start()
	b.Start()
	a.BecomeRoot()

	// The message is still in flight (a has no neighbors, so it cannot
	// retire), but a believes it already told 2 over a link that broke:
	// peer 2 holds a retired slot whose announced/heard bits are still set.
	id := a.Multicast([]byte("x"))
	st := a.seen[pid(id)]
	slot := a.allocSlot(2)
	st.announcedMask = 1 << slot
	st.heardMask = 1 << slot
	a.retireSlot(2, slot)

	// Re-linking the peer must scrub both stale marks so the next gossip
	// announces the message once more and b can pull it.
	f.link(1, 2, Random)
	f.run(3 * time.Second)
	if st.announcedMask&(1<<slot) != 0 && !b.Seen(id) {
		t.Fatalf("stale announced mark not scrubbed on re-link")
	}
	if !b.Seen(id) {
		t.Fatalf("re-linked peer never recovered the lost announcement")
	}
	if a.Stats().Reannounced == 0 {
		t.Fatalf("Reannounced counter not incremented")
	}
}

// TestStalePingExpiryKeepsAnsweredMember checks that a ping swallowed by a
// transient fault does not evict a member that answered a later ping.
func TestStalePingExpiryKeepsAnsweredMember(t *testing.T) {
	f := newFixture(13)
	a := f.addNode(1, DefaultConfig())
	a.learnEntry(Entry{ID: 2})

	// Advance the simulated clock past the ping timeout (the engine's clock
	// only moves through events).
	a.env.After(pingTimeout+time.Second, func() {})
	f.run(pingTimeout + time.Second)

	// stalePing queues a ping to node 2 that was sent at time 0 and lost.
	stalePing := func() {
		a.pingNonce++
		a.pings = append(a.pings, pingCtx{nonce: a.pingNonce, target: 2, purpose: pingProbeReplace, sentAt: 0})
	}
	// answer has node 2 answer a fresh ping now.
	answer := func() {
		a.sendPing(2, pingCtx{target: 2, purpose: pingMeasureLink})
		a.handlePong(2, &Pong{From: Entry{ID: 2}, Nonce: a.pingNonce})
	}

	// A stale ping context that predates a successful pong must not evict.
	stalePing()
	answer()
	a.expirePings()
	if !a.members.has(2) {
		t.Fatalf("member evicted despite a pong newer than the stale ping")
	}
	if len(a.pings) != 0 {
		t.Fatalf("stale ping context not discarded")
	}

	// Control: with no fresh pong the same stale context does evict.
	stalePing()
	a.expirePings()
	if a.members.has(2) {
		t.Fatalf("member not evicted for an unanswered stale ping")
	}

	// Forgetting the member withdraws its pong: the stale ping evicts the
	// re-learned entry, as if the pong had never arrived.
	a.obits = make(map[NodeID]obitRecord)
	a.learnEntry(Entry{ID: 2})
	stalePing()
	answer()
	a.forgetMember(2)
	a.learnEntry(Entry{ID: 2})
	a.expirePings()
	if a.members.has(2) {
		t.Fatalf("pong survived the member's removal from the view")
	}
}
