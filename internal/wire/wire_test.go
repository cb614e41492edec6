package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gocast/internal/core"
	"gocast/internal/store"
)

func sampleMessages() []core.Message {
	entry := core.Entry{ID: 7, Inc: 3, Addr: "10.0.0.7:9000", Landmarks: []uint16{12, 99, 4}}
	bare := core.Entry{ID: 3}
	return []core.Message{
		&core.JoinRequest{From: entry},
		&core.JoinRequest{From: core.Entry{ID: 2, Inc: 0xFFFFFFFF}},
		&core.JoinReply{
			Members:   []core.Entry{entry, bare},
			Landmarks: []core.Entry{bare},
			Root:      5,
		},
		&core.JoinReply{Root: core.None},
		&core.Ping{From: entry, Nonce: 42},
		&core.Pong{From: bare, Nonce: 42, Degrees: core.Degrees{Rand: 1, Near: 5, MaxNearbyRTT: 80 * time.Millisecond}},
		&core.AddRequest{From: entry, LinkKind: core.Nearby, RTT: 33 * time.Millisecond, Degrees: core.Degrees{Near: 4}, ForRebalance: true},
		&core.AddReply{From: entry, LinkKind: core.Random, Accepted: true, RTT: time.Second, Degrees: core.Degrees{Rand: 2}},
		&core.Drop{Degrees: core.Degrees{Rand: 1, Near: 5}},
		&core.Drop{Degrees: core.Degrees{Near: 2}, Departing: true},
		&core.Rebalance{Target: entry},
		&core.RebalanceReply{Target: 9, OK: true},
		&core.Gossip{
			IDs: []core.GossipID{
				{ID: core.MessageID{Source: 1, Seq: 2}, Age: 50 * time.Millisecond},
				{ID: core.MessageID{Source: 3, Seq: 0}},
				{
					ID: core.MessageID{Source: 4, Seq: 1}, Age: time.Second,
					Hop: core.Hop{Sampled: true, Hops: 3, Origin: 90 * time.Second},
				},
			},
			Members: []core.Entry{entry},
			Degrees: core.Degrees{Rand: 1, Near: 6, MaxNearbyRTT: time.Millisecond},
			Obits:   []core.Obituary{{ID: 12, Inc: 1}, {ID: 40, Inc: 0}},
		},
		&core.Gossip{Obits: []core.Obituary{{ID: 9, Inc: 7}}},
		&core.Gossip{},
		&core.PullRequest{IDs: []core.MessageID{{Source: 4, Seq: 9}}},
		&core.PullRequest{},
		&core.Multicast{ID: core.MessageID{Source: 2, Seq: 7}, Age: 123 * time.Millisecond, Payload: []byte("payload"), ViaTree: true},
		&core.Multicast{ID: core.MessageID{Source: 2, Seq: 8}},
		// Sampled dissemination trace hop context riding on a push.
		&core.Multicast{
			ID: core.MessageID{Source: 2, Seq: 10}, Age: time.Millisecond,
			Payload: []byte("traced"), ViaTree: true,
			Hop: core.Hop{Sampled: true, Hops: 2, Origin: 5 * time.Minute},
		},
		&core.TreeAdvert{Root: 0, Epoch: 3, Wave: 17, Dist: 45 * time.Millisecond},
		&core.TreeParent{On: true},
		&core.TreeParent{},
		&core.TreeAdvertReq{},
		&core.SyncRequest{Ranges: []store.SourceRange{
			{Source: 1, Low: 0, High: 42},
			{Source: -9, Low: 7, High: 0xFFFFFFFF},
		}},
		&core.SyncRequest{},
		&core.SyncReply{
			Items: []core.SyncItem{
				{ID: core.MessageID{Source: 2, Seq: 5}, Age: 40 * time.Millisecond, Payload: []byte("recovered")},
				{ID: core.MessageID{Source: 3, Seq: 0}},
				{
					ID: core.MessageID{Source: 3, Seq: 9}, Payload: []byte("traced"),
					Hop: core.Hop{Sampled: true, Hops: 7, Origin: time.Hour},
				},
			},
			More: true,
		},
		&core.SyncReply{},
		&core.PullMiss{IDs: []core.MessageID{{Source: 4, Seq: 9}, {Source: 4, Seq: 10}}},
		&core.PullMiss{},
		// Coopcast: tree-striped symbol, pulled repair symbol, and the
		// degenerate zero-data symbol.
		&core.Symbol{
			ID: core.MessageID{Source: 6, Seq: 2}, Age: 9 * time.Millisecond,
			Index: 3, K: 8, N: 10, PayloadLen: 8 << 10,
			Data: []byte("symbol-data"), ViaTree: true,
		},
		&core.Symbol{ID: core.MessageID{Source: 6, Seq: 3}, Index: 9, K: 1, N: 2, PayloadLen: 1, Data: []byte{0xAB}},
		&core.Symbol{},
		&core.Symbol{
			ID: core.MessageID{Source: 6, Seq: 4}, Age: time.Millisecond,
			Index: 1, K: 4, N: 6, PayloadLen: 4 << 10,
			Data: []byte("traced-symbol"), ViaTree: true,
			Hop: core.Hop{Sampled: true, Hops: 1, Origin: 30 * time.Second},
		},
		&core.SymbolPull{
			ID:   core.MessageID{Source: 6, Seq: 2},
			Want: store.SymbolSet{0x5, 0, 0, 1 << 63},
		},
		&core.SymbolPull{},
		// Gossip carrying symbol adverts, including a K=1 geometry and a
		// saturated 256-bit bitmap.
		&core.Gossip{
			Degrees: core.Degrees{Rand: 2},
			Syms: []core.SymbolAdvert{
				{
					ID: core.MessageID{Source: 6, Seq: 2}, Age: time.Second,
					K: 8, N: 10, PayloadLen: 8 << 10,
					Have: store.SymbolSet{0x3FF, 0, 0, 0},
				},
				{
					ID: core.MessageID{Source: 7, Seq: 1},
					K:  1, N: 1, PayloadLen: 100,
					Have: store.SymbolSet{1, 0, 0, 0},
				},
				{
					ID: core.MessageID{Source: 8, Seq: 4}, Age: time.Minute,
					K: 252, N: 256, PayloadLen: 1 << 20,
					Have: store.SymbolSet{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
				},
			},
		},
		// Sync reply paging symbols alongside whole items.
		&core.SyncReply{
			Items: []core.SyncItem{{ID: core.MessageID{Source: 2, Seq: 5}, Payload: []byte("whole")}},
			Syms: []core.Symbol{
				{ID: core.MessageID{Source: 6, Seq: 2}, Index: 0, K: 2, N: 3, PayloadLen: 12, Data: []byte("half-a")},
				{ID: core.MessageID{Source: 6, Seq: 2}, Index: 2, K: 2, N: 3, PayloadLen: 12, Data: []byte("parity")},
			},
			More: true,
		},
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, m := range sampleMessages() {
		buf, err := Append(nil, 11, m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		from, got, err := Decode(buf[4:])
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if from != 11 {
			t.Fatalf("%T: sender = %d, want 11", m, from)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%T round trip mismatch:\n in: %#v\nout: %#v", m, m, got)
		}
	}
}

// readStream feeds stream to a Reader in chunks of at most chunk bytes,
// as successive socket reads would deliver it, and returns every message
// decoded along the way.
func readStream(t testing.TB, fr *Reader, stream []byte, chunk int) []core.Message {
	t.Helper()
	var out []core.Message
	for len(stream) > 0 {
		n := copy(fr.Space(), stream[:min(chunk, len(stream))])
		fr.Fill(n)
		stream = stream[n:]
		for {
			from, m, ok, err := fr.Next()
			if err != nil {
				t.Fatalf("frame %d: %v", len(out), err)
			}
			if !ok {
				break
			}
			if from != 3 {
				t.Fatalf("frame %d: sender %d, want 3", len(out), from)
			}
			out = append(out, m)
		}
	}
	return out
}

func TestStreamReadWrite(t *testing.T) {
	msgs := sampleMessages()
	// A payload over the kept-buffer bound exercises the grown buffer and
	// its release once drained.
	msgs = append(msgs, &core.Multicast{ID: core.MessageID{Source: 1, Seq: 1}, Payload: bytes.Repeat([]byte{7}, maxKeptBuffer+1)})
	msgs = append(msgs, sampleMessages()...)
	var stream []byte
	for _, m := range msgs {
		var err error
		if stream, err = Append(stream, 3, m); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	// Chunks from one byte (every frame split across reads) to the whole
	// stream at once.
	for _, chunk := range []int{1, 7, 100, ReadBufferSize, len(stream)} {
		var fr Reader
		got := readStream(t, &fr, stream, chunk)
		if len(got) != len(msgs) {
			t.Fatalf("chunk %d: %d frames decoded, want %d", chunk, len(got), len(msgs))
		}
		for i := range msgs {
			if !reflect.DeepEqual(msgs[i], got[i]) {
				t.Fatalf("chunk %d: frame %d mismatch: %#v vs %#v", chunk, i, msgs[i], got[i])
			}
		}
		if _, _, ok, err := fr.Next(); ok || err != nil {
			t.Fatalf("chunk %d: drained reader returned ok=%v err=%v", chunk, ok, err)
		}
		if cap(fr.Space()) > maxKeptBuffer {
			t.Fatalf("chunk %d: drained reader keeps a %d-byte buffer", chunk, cap(fr.buf))
		}
	}
}

func TestReaderRejectsHugeLength(t *testing.T) {
	var fr Reader
	fr.Fill(copy(fr.Space(), []byte{0xFF, 0xFF, 0xFF, 0xFF}))
	if _, _, _, err := fr.Next(); err != ErrFrameTooLarge {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

// Decode never aliases its input: every message kind must survive its
// source bytes being overwritten, since the Reader decodes each frame out
// of a buffer it reuses for the next one.
func TestDecodeDoesNotAliasInput(t *testing.T) {
	for _, m := range sampleMessages() {
		frame, err := Append(nil, 5, m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		payload := append([]byte(nil), frame[4:]...)
		_, got, err := Decode(payload)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		for i := range payload {
			payload[i] = 0xA5
		}
		again, err := Append(nil, 5, got)
		if err != nil {
			t.Fatalf("%T: re-encode: %v", m, err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("%T: decoded message changed when its input was overwritten:\n got %x\nwant %x", m, again, frame)
		}
	}
}

// readerMulticast64 is the live path's common frame: a 64 B tree push.
func readerMulticast64() *core.Multicast {
	return &core.Multicast{
		ID: core.MessageID{Source: 2, Seq: 9}, Age: time.Millisecond,
		Payload: bytes.Repeat([]byte{0x5A}, 64), ViaTree: true,
	}
}

// The Reader adds no allocation of its own in steady state: reading a
// 64 B Multicast frame costs exactly what Decode costs, which is two
// allocations (the *Multicast and its payload copy).
func TestReaderAllocsMatchDecode(t *testing.T) {
	frame, err := Append(nil, 1, readerMulticast64())
	if err != nil {
		t.Fatal(err)
	}
	decodeAllocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := Decode(frame[4:]); err != nil {
			t.Fatal(err)
		}
	})
	var fr Reader
	readAllocs := testing.AllocsPerRun(1000, func() { readOne(t, &fr, frame) })
	if decodeAllocs != 2 {
		t.Errorf("Decode of a 64 B Multicast allocates %v times, want 2", decodeAllocs)
	}
	if readAllocs != decodeAllocs {
		t.Errorf("reading a frame allocates %v times, Decode alone %v", readAllocs, decodeAllocs)
	}
}

// readOne passes one frame through fr as one read would deliver it.
func readOne(t testing.TB, fr *Reader, frame []byte) {
	fr.Fill(copy(fr.Space(), frame))
	if _, _, ok, err := fr.Next(); !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	for _, m := range sampleMessages() {
		buf, err := Append(nil, 1, m)
		if err != nil {
			t.Fatal(err)
		}
		payload := buf[4:]
		for cut := 0; cut < len(payload); cut++ {
			if _, _, err := Decode(payload[:cut]); err == nil {
				// Cutting after all required fields of a message with no
				// trailing data cannot happen: Decode checks for exact
				// consumption, so any strict prefix must fail.
				t.Fatalf("%T: truncation to %d/%d bytes accepted", m, cut, len(payload))
			}
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	buf, err := Append(nil, 1, &core.TreeParent{On: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := append(buf[4:], 0xEE)
	if _, _, err := Decode(payload); err == nil {
		t.Fatalf("trailing garbage accepted")
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	payload := []byte{1, 0, 0, 0, 0xFF}
	if _, _, err := Decode(payload); err == nil {
		t.Fatalf("unknown kind accepted")
	}
}

func TestDecodeRejectsAbsurdCounts(t *testing.T) {
	// A gossip claiming 65535 IDs in a tiny frame must fail fast, not
	// allocate.
	payload := []byte{1, 0, 0, 0, byte(core.KindGossip), 0xFF, 0xFF}
	if _, _, err := Decode(payload); err == nil {
		t.Fatalf("absurd ID count accepted")
	}
}

// randHop returns a hop context that is sampled half the time; unsampled
// hops still carry arbitrary field values (the codec must not canonicalize).
func randHop(rng *rand.Rand) core.Hop {
	return core.Hop{
		Sampled: rng.Intn(2) == 0,
		Hops:    uint8(rng.Intn(256)),
		Origin:  time.Duration(rng.Intn(1e9)),
	}
}

// Property: random gossips and multicasts round-trip.
func TestPropertyRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		var m core.Message
		switch rng.Intn(5) {
		case 0:
			g := &core.Gossip{Degrees: core.Degrees{
				Rand:         int16(rng.Intn(8)),
				Near:         int16(rng.Intn(8)),
				MaxNearbyRTT: time.Duration(rng.Intn(1e9)),
			}}
			for i := 0; i < rng.Intn(5); i++ {
				g.IDs = append(g.IDs, core.GossipID{
					ID:  core.MessageID{Source: core.NodeID(rng.Intn(1000)), Seq: rng.Uint32()},
					Age: time.Duration(rng.Intn(1e9)),
					Hop: randHop(rng),
				})
			}
			for i := 0; i < rng.Intn(3); i++ {
				e := core.Entry{ID: core.NodeID(rng.Intn(1000)), Inc: rng.Uint32()}
				if rng.Intn(2) == 0 {
					e.Addr = "127.0.0.1:1"
				}
				for j := 0; j < rng.Intn(4); j++ {
					e.Landmarks = append(e.Landmarks, uint16(rng.Intn(1000)))
				}
				g.Members = append(g.Members, e)
			}
			for i := 0; i < rng.Intn(4); i++ {
				g.Obits = append(g.Obits, core.Obituary{
					ID:  core.NodeID(rng.Intn(1000)),
					Inc: rng.Uint32(),
				})
			}
			m = g
		case 1:
			mc := &core.Multicast{
				ID:      core.MessageID{Source: core.NodeID(rng.Intn(1000)), Seq: rng.Uint32()},
				Age:     time.Duration(rng.Intn(1e9)),
				ViaTree: rng.Intn(2) == 0,
				Hop:     randHop(rng),
			}
			if n := rng.Intn(64); n > 0 {
				mc.Payload = make([]byte, n)
				rng.Read(mc.Payload)
			}
			m = mc
		case 2:
			sr := &core.SyncRequest{}
			for i := 0; i < rng.Intn(6); i++ {
				low := rng.Uint32()
				sr.Ranges = append(sr.Ranges, store.SourceRange{
					Source: int32(rng.Intn(1000)),
					Low:    low,
					High:   low + uint32(rng.Intn(1000)),
				})
			}
			m = sr
		case 3:
			rep := &core.SyncReply{More: rng.Intn(2) == 0}
			for i := 0; i < rng.Intn(4); i++ {
				it := core.SyncItem{
					ID:  core.MessageID{Source: core.NodeID(rng.Intn(1000)), Seq: rng.Uint32()},
					Age: time.Duration(rng.Intn(1e9)),
					Hop: randHop(rng),
				}
				if n := rng.Intn(32); n > 0 {
					it.Payload = make([]byte, n)
					rng.Read(it.Payload)
				}
				rep.Items = append(rep.Items, it)
			}
			m = rep
		default:
			pr := &core.PullRequest{}
			for i := 0; i < rng.Intn(6); i++ {
				pr.IDs = append(pr.IDs, core.MessageID{Source: core.NodeID(rng.Intn(100)), Seq: rng.Uint32()})
			}
			m = pr
		}
		buf, err := Append(nil, core.NodeID(rng.Intn(1000)), m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		_, got, err := Decode(buf[4:])
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("trial %d mismatch:\n%#v\n%#v", trial, m, got)
		}
	}
}

func BenchmarkEncodeGossip(b *testing.B) {
	g := &core.Gossip{
		IDs: []core.GossipID{
			{ID: core.MessageID{Source: 1, Seq: 2}, Age: time.Millisecond},
			{ID: core.MessageID{Source: 5, Seq: 9}, Age: time.Second},
		},
		Members: []core.Entry{{ID: 4, Addr: "127.0.0.1:4", Landmarks: []uint16{1, 2, 3}}},
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = Append(buf[:0], 1, g)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeGossip(b *testing.B) {
	g := &core.Gossip{
		IDs:     []core.GossipID{{ID: core.MessageID{Source: 1, Seq: 2}, Age: time.Millisecond}},
		Members: []core.Entry{{ID: 4, Addr: "127.0.0.1:4"}},
	}
	buf, err := Append(nil, 1, g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf[4:]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKinds are the per-kind codec benchmark messages: the live path's
// 64 B tree push and the small control messages every node exchanges.
func benchKinds() []struct {
	name string
	m    core.Message
} {
	entry := core.Entry{ID: 4, Inc: 1, Addr: "127.0.0.1:4", Landmarks: []uint16{1, 2, 3}}
	return []struct {
		name string
		m    core.Message
	}{
		{"Multicast64", readerMulticast64()},
		{"TreeAdvert", &core.TreeAdvert{Root: 0, Epoch: 3, Wave: 17, Dist: 45 * time.Millisecond}},
		{"Ping", &core.Ping{From: entry, Nonce: 42}},
		{"Pong", &core.Pong{From: entry, Nonce: 42, Degrees: core.Degrees{Rand: 1, Near: 5, MaxNearbyRTT: 80 * time.Millisecond}}},
		{"PullRequest", &core.PullRequest{IDs: []core.MessageID{{Source: 4, Seq: 9}, {Source: 4, Seq: 10}, {Source: 7, Seq: 1}}}},
	}
}

func BenchmarkEncodeKind(b *testing.B) {
	for _, k := range benchKinds() {
		b.Run(k.name, func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = Append(buf[:0], 1, k.m)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeKind(b *testing.B) {
	for _, k := range benchKinds() {
		b.Run(k.name, func(b *testing.B) {
			buf, err := Append(nil, 1, k.m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Decode(buf[4:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReaderMulticast64 passes 64 B Multicast frames through the
// Reader one read at a time: the live receive path minus the socket.
func BenchmarkReaderMulticast64(b *testing.B) {
	frame, err := Append(nil, 1, readerMulticast64())
	if err != nil {
		b.Fatal(err)
	}
	var fr Reader
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		readOne(b, &fr, frame)
	}
}
