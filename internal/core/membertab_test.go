package core

import (
	"math"
	"math/rand"
	"testing"
)

// memberModel is the reference the flat index must match: a map for
// lookup and a slice with the swap-with-last removal rule, i.e. the view
// representation the index replaced. Dense order is part of the
// determinism contract (every Rand draw over the view indexes it), so the
// model pins it exactly.
type memberModel struct {
	pos     map[NodeID]int
	entries []Entry
}

func (m *memberModel) set(e Entry) {
	if i, ok := m.pos[e.ID]; ok {
		m.entries[i] = e
		return
	}
	m.pos[e.ID] = len(m.entries)
	m.entries = append(m.entries, e)
}

func (m *memberModel) remove(id NodeID) int {
	i, ok := m.pos[id]
	if !ok {
		return -1
	}
	last := len(m.entries) - 1
	if i != last {
		m.entries[i] = m.entries[last]
		m.pos[m.entries[i].ID] = i
	}
	m.entries = m.entries[:last]
	delete(m.pos, id)
	return i
}

// wrapIDs returns IDs whose home is the last slot of a table of the given
// size, so their probe runs wrap around to slot 0.
func wrapIDs(slots, want int) []NodeID {
	var probe memberTable
	for len(probe.slots) < slots {
		probe.grow()
	}
	var out []NodeID
	for id := NodeID(0); len(out) < want; id++ {
		if probe.home(id) == slots-1 {
			out = append(out, id)
		}
	}
	return out
}

// checkMemberTable asserts that t and the model agree on size, dense
// order and every lookup in ids, and that the index itself is sound: at
// most half full, every occupied slot pointing at the entry with its ID,
// and every ID reachable from its home slot without crossing an empty one.
func checkMemberTable(tb testing.TB, step int, op string, t *memberTable, m *memberModel, ids []NodeID) {
	tb.Helper()
	if t.len() != len(m.entries) {
		tb.Fatalf("step %d (%s): len = %d, model %d", step, op, t.len(), len(m.entries))
	}
	for i := range m.entries {
		if got := t.at(i); got.ID != m.entries[i].ID || got.Inc != m.entries[i].Inc {
			tb.Fatalf("step %d (%s): at(%d) = %d/inc %d, model %d/inc %d",
				step, op, i, got.ID, got.Inc, m.entries[i].ID, m.entries[i].Inc)
		}
	}
	for _, id := range ids {
		mi, want := m.pos[id]
		e, ok := t.get(id)
		if ok != want || t.has(id) != want || (t.ptr(id) != nil) != want {
			tb.Fatalf("step %d (%s): lookup of %d = %v, model %v", step, op, id, ok, want)
		}
		if want && (e.ID != id || e.Inc != m.entries[mi].Inc || t.index(id) != mi) {
			tb.Fatalf("step %d (%s): get(%d) = %d/inc %d at %d, model inc %d at %d",
				step, op, id, e.ID, e.Inc, t.index(id), m.entries[mi].Inc, mi)
		}
	}
	used := 0
	mask := len(t.slots) - 1
	for s, sl := range t.slots {
		if sl.ref == 0 {
			continue
		}
		used++
		if i := int(sl.ref - 1); i >= t.len() || t.entries[i].ID != sl.id {
			tb.Fatalf("step %d (%s): slot %d (id %d) points at dense %d", step, op, s, sl.id, i)
		}
		for j := t.home(sl.id); j != s; j = (j + 1) & mask {
			if t.slots[j].ref == 0 {
				tb.Fatalf("step %d (%s): id %d in slot %d unreachable from home %d", step, op, sl.id, s, t.home(sl.id))
			}
		}
	}
	if used != t.len() {
		tb.Fatalf("step %d (%s): %d occupied slots for %d entries", step, op, used, t.len())
	}
	if 2*used > len(t.slots) {
		tb.Fatalf("step %d (%s): load %d/%d above one half", step, op, used, len(t.slots))
	}
}

// TestMemberTableMatchesModel runs randomized set/remove/get/has
// sequences against the reference model, over IDs chosen to stress the
// index: small sequential IDs, multiples of every table size, negative
// and extreme IDs, and IDs homed on the last slot so probe runs wrap.
// Each sequence first grows the table past several doublings, then
// churns it while it shrinks, then drains it.
func TestMemberTableMatchesModel(t *testing.T) {
	var ids []NodeID
	for id := NodeID(0); id < 64; id++ {
		ids = append(ids, id)
	}
	for _, size := range []NodeID{16, 32, 64, 128, 256, 512} {
		for k := NodeID(1); k <= 8; k++ {
			ids = append(ids, k*size, -k*size)
		}
	}
	for id := NodeID(-1); id > -16; id-- {
		ids = append(ids, id)
	}
	ids = append(ids, math.MaxInt32, math.MaxInt32-1, math.MinInt32, math.MinInt32+1)
	for _, size := range []int{16, 32, 64, 128, 256} {
		ids = append(ids, wrapIDs(size, 6)...)
	}
	seen := make(map[NodeID]bool)
	uniq := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			uniq = append(uniq, id)
		}
	}
	ids = uniq

	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab memberTable
		model := &memberModel{pos: make(map[NodeID]int)}
		pick := func() NodeID { return ids[rng.Intn(len(ids))] }
		step := 0
		apply := func(pSet int) {
			step++
			id := pick()
			switch r := rng.Intn(100); {
			case r < pSet:
				e := Entry{ID: id, Inc: uint32(rng.Intn(4))}
				tab.set(e)
				model.set(e)
				checkMemberTable(t, step, "set", &tab, model, ids)
			case r < 90:
				if got, want := tab.remove(id), model.remove(id); got != want {
					t.Fatalf("seed %d step %d: remove(%d) = %d, model %d", seed, step, id, got, want)
				}
				checkMemberTable(t, step, "remove", &tab, model, ids)
			default:
				// Lookups alone must not disturb anything.
				_, _ = tab.get(id)
				_ = tab.has(id)
				checkMemberTable(t, step, "get", &tab, model, ids)
			}
		}
		for i := 0; i < 400; i++ {
			apply(75) // grow
		}
		for i := 0; i < 600; i++ {
			apply(45) // churn
		}
		for tab.len() > 0 {
			step++
			id := model.entries[rng.Intn(len(model.entries))].ID
			if got, want := tab.remove(id), model.remove(id); got != want {
				t.Fatalf("seed %d step %d: remove(%d) = %d, model %d", seed, step, id, got, want)
			}
			checkMemberTable(t, step, "drain", &tab, model, ids)
		}
	}
}
