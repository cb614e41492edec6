package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func ev(at int, k Kind, node, peer int32) Event {
	return Event{At: time.Duration(at) * time.Millisecond, Kind: k, Node: node, Peer: peer}
}

func TestAddAndSnapshotOrder(t *testing.T) {
	b := NewBuffer(8)
	for i := 0; i < 5; i++ {
		b.Add(ev(i, KindSend, int32(i), -1))
	}
	snap := b.Snapshot()
	if len(snap) != 5 || b.Len() != 5 {
		t.Fatalf("len = %d/%d, want 5", len(snap), b.Len())
	}
	for i, e := range snap {
		if e.Node != int32(i) {
			t.Fatalf("order broken: %v", snap)
		}
	}
	if b.Dropped() != 0 {
		t.Fatalf("dropped = %d", b.Dropped())
	}
}

func TestRingEviction(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 10; i++ {
		b.Add(ev(i, KindSend, int32(i), -1))
	}
	snap := b.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("len = %d, want 4", len(snap))
	}
	// Oldest surviving must be event 6.
	if snap[0].Node != 6 || snap[3].Node != 9 {
		t.Fatalf("eviction order wrong: %v", snap)
	}
	if b.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", b.Dropped())
	}
}

func TestFilterByKindNodeAndTime(t *testing.T) {
	b := NewBuffer(16)
	b.Add(ev(1, KindSend, 1, 2))
	b.Add(ev(2, KindDeliver, 2, -1))
	b.Add(ev(3, KindLinkUp, 1, 3))
	b.Add(ev(4, KindSend, 3, 1))

	if got := b.Query(Filter{Kinds: []Kind{KindSend}, Node: -1}); len(got) != 2 {
		t.Fatalf("kind filter: %v", got)
	}
	if got := b.Query(Filter{Node: 1}); len(got) != 3 {
		t.Fatalf("node filter (subject or peer): %v", got)
	}
	if got := b.Query(Filter{Node: -1, Since: 3 * time.Millisecond}); len(got) != 2 {
		t.Fatalf("since filter: %v", got)
	}
	if got := b.Query(Filter{Kinds: []Kind{KindDeliver}, Node: 2}); len(got) != 1 {
		t.Fatalf("combined filter: %v", got)
	}
}

func TestDisabledBufferRecordsNothing(t *testing.T) {
	b := NewBuffer(4)
	b.SetEnabled(false)
	b.Add(ev(1, KindSend, 1, -1))
	if b.Len() != 0 {
		t.Fatalf("disabled buffer recorded an event")
	}
	b.SetEnabled(true)
	b.Add(ev(2, KindSend, 1, -1))
	if b.Len() != 1 {
		t.Fatalf("re-enabled buffer did not record")
	}
}

func TestDumpAndSummary(t *testing.T) {
	b := NewBuffer(16)
	b.Addf(time.Millisecond, KindParentChange, 4, 7, "dist=%v", 30*time.Millisecond)
	b.Add(ev(2, KindDeliver, 4, -1))
	var sb strings.Builder
	if err := b.Dump(&sb, Filter{Node: -1}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"parent", "node=4 peer=7", "dist=30ms", "deliver", "2 events"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	sum := b.Summary()
	if !strings.Contains(sum, "deliver=1") || !strings.Contains(sum, "parent=1") {
		t.Errorf("summary = %q", sum)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindSend; k <= KindNote; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d missing a name", k)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind should fall back")
	}
}

func TestConcurrentAdds(t *testing.T) {
	b := NewBuffer(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Add(ev(i, KindSend, int32(g), -1))
			}
		}(g)
	}
	wg.Wait()
	if b.Len() != 128 {
		t.Fatalf("len = %d, want full ring", b.Len())
	}
	if b.Dropped() != 800-128 {
		t.Fatalf("dropped = %d, want %d", b.Dropped(), 800-128)
	}
}

func TestZeroCapacityDefaults(t *testing.T) {
	b := NewBuffer(0)
	for i := 0; i < 10; i++ {
		b.Add(ev(i, KindNote, 0, -1))
	}
	if b.Len() != 10 {
		t.Fatalf("default-capacity buffer mis-sized: %d", b.Len())
	}
}

// Events recorded with raw arguments are rendered only when read, and
// read back exactly as an eagerly formatted event would.
func TestRenderedOnRead(t *testing.T) {
	calls := 0
	render := func(a, b int64) string {
		calls++
		return fmt.Sprintf("%d -> %d", a, b)
	}
	b := NewBuffer(4)
	for i := 0; i < 6; i++ {
		b.Add(Event{At: time.Duration(i), Kind: KindParentChange, Node: 1, Peer: -1, A: int64(i), B: int64(i + 1), Render: render})
	}
	b.Addf(6, KindNote, 1, -1, "eager %d", 6)
	if calls != 0 {
		t.Fatalf("recording rendered %d details, want none", calls)
	}
	if s := b.Summary(); s != "parent=3 note=1" || calls != 0 {
		t.Fatalf("summary %q rendered %d details, want %q and none", s, calls, "parent=3 note=1")
	}
	snap := b.Snapshot()
	if calls != 3 {
		t.Fatalf("snapshot of 3 raw events rendered %d details", calls)
	}
	want := []string{"3 -> 4", "4 -> 5", "5 -> 6", "eager 6"}
	for i, e := range snap {
		if e.Detail != want[i] {
			t.Errorf("event %d detail %q, want %q", i, e.Detail, want[i])
		}
	}
	eager := Event{At: 5, Kind: KindParentChange, Node: 1, Peer: -1, Detail: "5 -> 6"}
	if got := b.Query(Filter{Node: -1, Kinds: []Kind{KindParentChange}, Since: 5})[0].String(); got != eager.String() {
		t.Errorf("query line %q, want %q", got, eager.String())
	}
	if got := (Event{At: 5, Kind: KindParentChange, Node: 1, Peer: -1, A: 5, B: 6, Render: render}).String(); got != eager.String() {
		t.Errorf("unread event line %q, want %q", got, eager.String())
	}
}
