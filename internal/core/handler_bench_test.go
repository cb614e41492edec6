package core

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkHandleGossipFullView measures core's gossip handler on the
// membership-heavy steady state of a large group: a node with a full
// 96-entry view of a 1,024-node system and six overlay neighbors receives
// gossips whose four piggybacked entries (three samples plus the sender's
// own) are mostly unknown to it, so nearly every entry evicts a random
// non-neighbor member. One op is one gossip.
func BenchmarkHandleGossipFullView(b *testing.B) {
	const (
		system    = 1024
		neighbors = 6
		perGossip = 4
	)
	cfg := DefaultConfig()
	f := newFixture(1)
	n := f.addNode(0, cfg)
	n.Start()
	for id := NodeID(1); id <= neighbors; id++ {
		n.AddNeighborDirect(Entry{ID: id}, Random, 20*time.Millisecond)
	}
	pool := make([]Entry, system)
	for i := range pool {
		lm := make([]uint16, cfg.LandmarkCount)
		for j := range lm {
			lm[j] = uint16(10 + (i*7+j*13)%200)
		}
		pool[i] = Entry{ID: NodeID(i), Landmarks: lm}
	}
	n.SeedMembers(pool[neighbors+1:])
	if n.MemberCount() != cfg.MemberViewSize {
		b.Fatalf("view holds %d entries, want %d", n.MemberCount(), cfg.MemberViewSize)
	}

	// Precompute the gossip stream so the loop measures only the handler.
	rng := rand.New(rand.NewSource(1))
	const stream = 1 << 12
	members := make([][]Entry, stream)
	for i := range members {
		ms := make([]Entry, perGossip)
		for j := range ms {
			ms[j] = pool[1+rng.Intn(system-1)]
		}
		members[i] = ms
	}
	g := &Gossip{Degrees: Degrees{Rand: 1, Near: 5}}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Members = members[i&(stream-1)]
		n.HandleMessage(NodeID(1+i%neighbors), g)
	}
}
