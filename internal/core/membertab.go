package core

// memberTable is the partial view's backing store: a dense entry slice
// for scan- and sample-heavy access plus a flat open-addressing index for
// O(1) lookup by NodeID. The zero value is an empty table.
//
// The dense slice is what sampling, randomMember and the round-robin
// candidate scan walk; removal swaps the last entry into the hole, so
// slice order is deterministic for a given operation history but is NOT
// insertion order once anything has been removed. Every Rand draw over
// the view indexes this slice, so its order is part of the simulator's
// determinism contract.
//
// The index replaces a map[NodeID]int32: every gossip looks up and, with
// a full view, evicts several members, and per-node Go maps spent most of
// that time missing cache on their control words. Here a lookup hashes
// the ID (Fibonacci hashing) into a power-of-two slot array kept at most
// half full and probes linearly; a slot is 8 bytes, so a probe run
// usually stays in one cache line. Deletion shifts the rest of the probe
// run back instead of leaving tombstones, so the table never needs
// rebuilding.
type memberTable struct {
	entries []Entry
	// slots is the open-addressing index: ref is the entry's dense index
	// plus one, so the zero value marks an empty slot.
	slots []memberSlot
	shift uint8 // 32 - log2(len(slots))
}

type memberSlot struct {
	id  NodeID
	ref int32
}

// minMemberSlots is the index size allocated on first insert.
const minMemberSlots = 16

func (t *memberTable) len() int { return len(t.entries) }

// home is id's preferred slot: the top bits of a Fibonacci hash, which
// spread sequential and strided IDs across the table.
func (t *memberTable) home(id NodeID) int {
	return int((uint32(id) * 0x9e3779b9) >> t.shift)
}

// find returns the slot holding id, or -1.
func (t *memberTable) find(id NodeID) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			return -1
		}
		if s.id == id {
			return i
		}
	}
}

// index returns id's dense index, or -1.
func (t *memberTable) index(id NodeID) int {
	if s := t.find(id); s >= 0 {
		return int(t.slots[s].ref - 1)
	}
	return -1
}

// get returns the entry for id, if present.
func (t *memberTable) get(id NodeID) (Entry, bool) {
	if i := t.index(id); i >= 0 {
		return t.entries[i], true
	}
	return Entry{}, false
}

// has reports whether id is in the view without copying the entry.
func (t *memberTable) has(id NodeID) bool { return t.find(id) >= 0 }

// ptr returns a pointer for in-place update, nil if absent. The pointer
// is invalidated by any set or remove.
func (t *memberTable) ptr(id NodeID) *Entry {
	if i := t.index(id); i >= 0 {
		return &t.entries[i]
	}
	return nil
}

// at returns the entry at dense index i (0 <= i < len).
func (t *memberTable) at(i int) Entry { return t.entries[i] }

// set inserts or replaces the entry for e.ID.
func (t *memberTable) set(e Entry) {
	if i := t.index(e.ID); i >= 0 {
		t.entries[i] = e
		return
	}
	if 2*(len(t.entries)+1) > len(t.slots) {
		t.grow()
	}
	t.insert(e.ID, int32(len(t.entries)+1))
	t.entries = append(t.entries, e)
}

// insert places (id, ref) in the first free slot of id's probe run; id
// must be absent and the table must have a free slot.
func (t *memberTable) insert(id NodeID, ref int32) {
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = memberSlot{id: id, ref: ref}
}

// grow doubles the index (or allocates the first one) and reinserts
// every entry.
func (t *memberTable) grow() {
	n := 2 * len(t.slots)
	if n < minMemberSlots {
		n = minMemberSlots
	}
	t.slots = make([]memberSlot, n)
	t.shift = 32
	for m := n; m > 1; m >>= 1 {
		t.shift--
	}
	for i, e := range t.entries {
		t.insert(e.ID, int32(i+1))
	}
}

// remove deletes id by swapping the last entry into its slot. It returns
// the dense index the removal happened at (-1 if id was absent) so
// callers can fix up any cursor into the slice.
func (t *memberTable) remove(id NodeID) int {
	s := t.find(id)
	if s < 0 {
		return -1
	}
	i := int(t.slots[s].ref - 1)
	t.unlink(s)
	last := len(t.entries) - 1
	if i != last {
		moved := t.entries[last]
		t.entries[i] = moved
		t.slots[t.find(moved.ID)].ref = int32(i + 1)
	}
	t.entries[last] = Entry{}
	t.entries = t.entries[:last]
	return i
}

// unlink empties slot s and shifts later members of its probe run back
// so every remaining ID stays reachable from its home slot without
// tombstones.
func (t *memberTable) unlink(s int) {
	mask := len(t.slots) - 1
	for j := (s + 1) & mask; t.slots[j].ref != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at s only if its home does not
		// lie cyclically in (s, j]: otherwise moving it to s would put it
		// before its home and a probe from there would never reach it.
		if h := t.home(t.slots[j].id); (j-h)&mask >= (j-s)&mask {
			t.slots[s] = t.slots[j]
			s = j
		}
	}
	t.slots[s] = memberSlot{}
}
