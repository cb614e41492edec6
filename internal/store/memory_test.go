package store

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

func id(src int32, seq uint32) ID { return ID{Source: src, Seq: seq} }

func TestPutGetHasAndDuplicates(t *testing.T) {
	m := NewMemory(Limits{})
	if !m.Put(id(1, 0), []byte("a"), 0) {
		t.Fatal("first Put rejected")
	}
	if m.Put(id(1, 0), []byte("b"), 0) {
		t.Fatal("duplicate Put accepted")
	}
	p, ok := m.Get(id(1, 0))
	if !ok || string(p) != "a" {
		t.Fatalf("Get = %q, %v", p, ok)
	}
	if !m.Has(id(1, 0)) || m.Has(id(1, 1)) {
		t.Fatal("Has wrong")
	}
	if m.Len() != 1 || m.Bytes() != 1 {
		t.Fatalf("Len=%d Bytes=%d", m.Len(), m.Bytes())
	}
	if got := m.Counters()["duplicate_puts"]; got != 1 {
		t.Fatalf("duplicate_puts = %d", got)
	}
}

func TestNilPayloadIsStorable(t *testing.T) {
	// The simulator injects nil payloads; a nil payload must still count
	// as a live record (distinct from a reclaimed one).
	m := NewMemory(Limits{})
	m.Put(id(1, 0), nil, 0)
	if _, ok := m.Get(id(1, 0)); !ok {
		t.Fatal("nil payload not retrievable")
	}
	if m.Len() != 1 {
		t.Fatal("nil payload not live")
	}
}

func TestStabilityReclaimThenTombstoneDrop(t *testing.T) {
	lim := Limits{Retention: 10 * time.Second, TombstoneFor: 20 * time.Second}
	m := NewMemory(lim)
	m.Put(id(1, 0), []byte("xyz"), 0)
	m.MarkStable(id(1, 0), 5*time.Second)

	res := m.GC(14 * time.Second) // before releaseAt=15s
	if len(res.Reclaimed) != 0 {
		t.Fatal("reclaimed before retention elapsed")
	}
	res = m.GC(15 * time.Second)
	if len(res.Reclaimed) != 1 || res.Reclaimed[0] != id(1, 0) {
		t.Fatalf("Reclaimed = %v", res.Reclaimed)
	}
	if _, ok := m.Get(id(1, 0)); ok {
		t.Fatal("reclaimed payload still served")
	}
	if !m.Has(id(1, 0)) {
		t.Fatal("tombstone missing right after reclaim")
	}
	if m.Bytes() != 0 || m.Len() != 0 {
		t.Fatalf("Bytes=%d Len=%d after reclaim", m.Bytes(), m.Len())
	}

	res = m.GC(40 * time.Second) // past dropAt = 15s + 20s
	if len(res.Dropped) != 1 || res.Dropped[0] != id(1, 0) {
		t.Fatalf("Dropped = %v", res.Dropped)
	}
	if m.Has(id(1, 0)) {
		t.Fatal("tombstone survived its window")
	}
}

func TestUnstableCancelsReclaim(t *testing.T) {
	m := NewMemory(Limits{Retention: 10 * time.Second, MaxAge: time.Hour})
	m.Put(id(1, 0), []byte("x"), 0)
	m.MarkStable(id(1, 0), 0)
	m.Unstable(id(1, 0))
	if res := m.GC(30 * time.Second); len(res.Reclaimed) != 0 {
		t.Fatal("reclaimed a message made unstable again")
	}
}

func TestMaxAgeFallbackReclaimsUnstable(t *testing.T) {
	// A message that never becomes stable (slow neighbor) must still be
	// reclaimed after MaxAge so memory stays bounded.
	m := NewMemory(Limits{Retention: 10 * time.Second, MaxAge: 30 * time.Second})
	m.Put(id(1, 0), []byte("x"), 0)
	if res := m.GC(29 * time.Second); len(res.Reclaimed) != 0 {
		t.Fatal("reclaimed before MaxAge")
	}
	res := m.GC(30 * time.Second)
	if len(res.Reclaimed) != 1 {
		t.Fatal("MaxAge fallback did not reclaim")
	}
	if m.Counters()["reclaims_aged"] != 1 {
		t.Fatal("reclaims_aged counter not incremented")
	}
}

func TestCountCapEvictsOldestFirst(t *testing.T) {
	m := NewMemory(Limits{MaxMessages: 3})
	for seq := uint32(0); seq < 5; seq++ {
		m.Put(id(1, seq), []byte{byte(seq)}, time.Duration(seq))
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	for seq := uint32(0); seq < 2; seq++ {
		if _, ok := m.Get(id(1, seq)); ok {
			t.Fatalf("seq %d should be evicted", seq)
		}
		if !m.Has(id(1, seq)) {
			t.Fatalf("evicted seq %d lost its dedup tombstone", seq)
		}
	}
	for seq := uint32(2); seq < 5; seq++ {
		if _, ok := m.Get(id(1, seq)); !ok {
			t.Fatalf("seq %d should survive", seq)
		}
	}
	if m.Counters()["evictions"] != 2 {
		t.Fatalf("evictions = %d", m.Counters()["evictions"])
	}
}

func TestByteCapHoldsUnderSustainedInsertes(t *testing.T) {
	const cap = 1000
	m := NewMemory(Limits{MaxBytes: cap})
	payload := make([]byte, 64)
	for seq := uint32(0); seq < 500; seq++ {
		m.Put(id(2, seq), payload, time.Duration(seq))
		if m.Bytes() > cap {
			t.Fatalf("bytes %d exceed cap %d at seq %d", m.Bytes(), cap, seq)
		}
	}
	if m.Len() == 0 {
		t.Fatal("store drained completely")
	}
}

func TestOversizedPayloadEvictsItself(t *testing.T) {
	m := NewMemory(Limits{MaxBytes: 10})
	m.Put(id(1, 0), make([]byte, 100), 0)
	if m.Bytes() > 10 {
		t.Fatalf("byte cap violated: %d", m.Bytes())
	}
	if !m.Has(id(1, 0)) {
		t.Fatal("oversized payload should leave a tombstone")
	}
}

func TestDigestAndRangeOrdering(t *testing.T) {
	m := NewMemory(Limits{})
	// Out-of-order arrival (pull responses) must still index correctly.
	for _, seq := range []uint32{5, 2, 9, 3} {
		m.Put(id(7, seq), []byte{byte(seq)}, 0)
	}
	m.Put(id(3, 1), []byte("z"), 0)
	d := m.Digest()
	if len(d) != 2 {
		t.Fatalf("digest = %v", d)
	}
	if d[0] != (SourceRange{Source: 3, Low: 1, High: 1}) {
		t.Fatalf("digest[0] = %v", d[0])
	}
	if d[1] != (SourceRange{Source: 7, Low: 2, High: 9}) {
		t.Fatalf("digest[1] = %v", d[1])
	}
	var got []uint32
	m.Range(7, 3, 8, func(i ID, _ []byte) bool {
		got = append(got, i.Seq)
		return true
	})
	if fmt.Sprint(got) != "[3 5]" {
		t.Fatalf("Range(7,3,8) visited %v", got)
	}
	// Early stop.
	got = nil
	m.Range(7, 0, 100, func(i ID, _ []byte) bool {
		got = append(got, i.Seq)
		return len(got) < 2
	})
	if len(got) != 2 {
		t.Fatalf("early stop visited %v", got)
	}
}

func TestDigestExcludesReclaimed(t *testing.T) {
	m := NewMemory(Limits{Retention: time.Second, MaxAge: time.Hour})
	m.Put(id(1, 0), []byte("a"), 0)
	m.Put(id(1, 1), []byte("b"), 0)
	m.MarkStable(id(1, 0), 0)
	m.GC(2 * time.Second)
	d := m.Digest()
	if len(d) != 1 || d[0].Low != 1 || d[0].High != 1 {
		t.Fatalf("digest after partial reclaim = %v", d)
	}
	var visited int
	m.Range(1, 0, 10, func(ID, []byte) bool { visited++; return true })
	if visited != 1 {
		t.Fatalf("Range visited %d live records, want 1", visited)
	}
}

func TestEvictQueueDoesNotGrowUnbounded(t *testing.T) {
	// Steady state: everything becomes stable and is reclaimed by GC, so
	// the eviction queue must be compacted by the sweeps.
	m := NewMemory(Limits{Retention: time.Second, TombstoneFor: time.Second})
	now := time.Duration(0)
	for round := 0; round < 50; round++ {
		for k := 0; k < 20; k++ {
			sid := id(1, uint32(round*20+k))
			m.Put(sid, []byte("p"), now)
			m.MarkStable(sid, now)
		}
		now += 5 * time.Second
		m.GC(now)
	}
	if len(m.evictQ) > 40 {
		t.Fatalf("eviction queue holds %d entries after steady-state GC", len(m.evictQ))
	}
}

// TestSlabStaysProportional pins the record slab to a small constant
// factor of the slots in use. A store that jumped to its count cap once
// it passed 512 records held 16,385 slots (about 1.9 MiB) after 600 Puts
// under the default limits, which multiplied a 1,024-node simulation's
// footprint by gigabytes.
func TestSlabStaysProportional(t *testing.T) {
	m := NewMemory(Limits{})
	for k := 0; k < 3000; k++ {
		m.Put(id(int32(k%7), uint32(k)), []byte("x"), 0)
		if n := len(m.slab); cap(m.slab) > 32 && cap(m.slab) > 8*n {
			t.Fatalf("after %d Puts: slab cap %d for %d slots", k+1, cap(m.slab), n)
		}
		if k+1 == 600 && cap(m.slab) > 2048 {
			t.Fatalf("after 600 Puts: slab cap %d, want <= 2048", cap(m.slab))
		}
	}
	// A bounded store never grows past its count cap plus one in a step.
	b := NewMemory(Limits{MaxMessages: 1000})
	for k := 0; k < 1000; k++ {
		b.Put(id(1, uint32(k)), []byte("x"), 0)
	}
	if cap(b.slab) > 1001 {
		t.Fatalf("slab cap %d exceeds count cap 1000 + 1", cap(b.slab))
	}
}

// checkIndex asserts every source's sequence index is strictly ascending
// and holds exactly the source's live records.
func checkIndex(t *testing.T, m *Memory, step int, op string) {
	t.Helper()
	live := map[int32]map[uint32]bool{}
	for k, i := range m.recs {
		if !m.slab[i].reclaimed {
			id := unpk(k)
			if live[id.Source] == nil {
				live[id.Source] = map[uint32]bool{}
			}
			live[id.Source][id.Seq] = true
		}
	}
	for src, seqs := range m.bySource {
		for j, seq := range seqs {
			if j > 0 && seqs[j-1] >= seq {
				t.Fatalf("step %d (%s): source %d index not strictly ascending: %v", step, op, src, seqs)
			}
			if !live[src][seq] {
				t.Fatalf("step %d (%s): source %d index holds %d, which is not live", step, op, src, seq)
			}
		}
		if len(seqs) != len(live[src]) {
			t.Fatalf("step %d (%s): source %d index has %d seqs, %d live records", step, op, src, len(seqs), len(live[src]))
		}
	}
	for src, set := range live {
		if _, ok := m.bySource[src]; !ok && len(set) > 0 {
			t.Fatalf("step %d (%s): source %d has %d live records and no index", step, op, src, len(set))
		}
	}
}

// TestSeqIndexMatchesLiveSetUnderChurn drives the store through count-cap
// eviction (head removals), stability GC (removals anywhere), out-of-order
// inserts and re-inserts after tombstones expire, checking after every
// operation that each source's index equals its live set.
func TestSeqIndexMatchesLiveSetUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMemory(Limits{
		MaxMessages:  128,
		Retention:    time.Second,
		MaxAge:       20 * time.Second,
		TombstoneFor: 3 * time.Second,
	})
	next := map[int32]uint32{}
	now := time.Duration(0)
	for step := 0; step < 20000; step++ {
		now += 10 * time.Millisecond
		src := int32(rng.Intn(4))
		var op string
		switch r := rng.Intn(100); {
		case r < 70: // in-order arrival, the hot path
			op = "put"
			m.Put(id(src, next[src]), []byte{1}, now)
			next[src]++
		case r < 80: // a late or re-sent sequence, possibly a re-insert
			op = "put-old"
			if next[src] > 0 {
				m.Put(id(src, uint32(rng.Intn(int(next[src])))), []byte{2}, now)
			}
		case r < 90:
			op = "stable"
			if next[src] > 0 {
				m.MarkStable(id(src, uint32(rng.Intn(int(next[src])))), now)
			}
		default:
			op = "gc"
			m.GC(now)
		}
		checkIndex(t, m, step, op)
	}
	if c := m.Counters(); c["evictions"] == 0 || c["reclaims_stable"] == 0 || c["tombstones_dropped"] == 0 {
		t.Fatalf("churn did not exercise every removal path: %v", c)
	}
}

// BenchmarkStoreEvictAtCap measures Put on a store held at its count cap,
// where every insert evicts the oldest record: the steady state of a live
// node whose stream outlasts the cap. Eight sources publish round-robin,
// one message per millisecond, and a GC sweep every 4,096 puts drops the
// expired tombstones, as a node's periodic sweep would.
func BenchmarkStoreEvictAtCap(b *testing.B) {
	const capMsgs = 16384
	m := NewMemory(Limits{MaxMessages: capMsgs, TombstoneFor: time.Second})
	payload := make([]byte, 64)
	put := func(k int) {
		m.Put(id(int32(k%8), uint32(k/8)), payload, time.Duration(k)*time.Millisecond)
		if k%4096 == 0 {
			m.GC(time.Duration(k) * time.Millisecond)
		}
	}
	for k := 0; k < 2*capMsgs; k++ {
		put(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		put(2*capMsgs + i)
	}
}
