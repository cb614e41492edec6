package core

import (
	"time"

	"gocast/internal/dtrace"
	"gocast/internal/fec"
	"gocast/internal/store"
)

// Coopcast: erasure-coded bulk dissemination, modeled on libunison's
// RaptorQ coopcast. Payloads of at least Config.CoopcastThreshold bytes
// are split into K source + R repair symbols (internal/fec); *different*
// symbols are striped down different tree links, gossip summaries carry
// per-message symbol bitmaps (SymbolAdvert), and repair pulls fetch
// individual missing symbols. A node delivers as soon as ANY K of the N
// symbols arrive, reconstructs the rest, and from then on can serve every
// symbol — so the tree spreads the push load across its links and the
// swarm of overlay neighbors fills the gaps laterally, instead of every
// tree link carrying the whole payload and every repair re-sending it.
//
// Striping rule: a symbol with index i travelling via the tree is
// forwarded to exactly ONE downstream tree link, chosen as i mod the
// number of eligible tree links. Each link therefore carries ~N/c symbols
// of an N-symbol message from a node with c downstream links; descendants
// recover the remainder through symbol pulls, which the adverts direct at
// neighbors that actually hold the wanted symbols.
//
// Reassembly state machine (per message, symState): assembling (0 <
// have < K: advertise every round, pull from advertised holders, retry
// every PullRetry) -> complete (have >= K: decode, deliver, store all N
// symbols, advertise once per neighbor like a whole message) or failed
// (decode error: inert; the store's MaxAge GC reclaims it). Partial
// messages are never marked stable, so the store's MaxAge fallback
// reclaims them — the GC path for partials needs no extra machinery.

// maxSymbolsPerPull bounds how many symbols one pull round requests in
// total, so a freshly-advertised large message does not trigger a burst
// of repair traffic the size of the payload.
const maxSymbolsPerPull = 64

// symState tracks the reassembly of one coopcast message. It hangs off
// the message's msgState; nil means the message is a classic whole-payload
// multicast.
type symState struct {
	k          uint16
	total      uint16 // N = K + R
	payloadLen uint32
	have       store.SymbolSet
	haveCnt    int
	complete   bool
	failed     bool
	// holders are neighbors that advertised symbols for this message,
	// with their last-seen bitmaps; nextHolder round-robins pull load.
	holders    []symHolder
	nextHolder int
	// timer drives the pull rounds; pullArmed dedupes arming.
	timer     Timer
	pullArmed bool
}

type symHolder struct {
	id   NodeID
	have store.SymbolSet
}

func (s *symState) meta() store.SymbolMeta {
	return store.SymbolMeta{K: s.k, N: s.total, PayloadLen: s.payloadLen}
}

// symbolSize is the uniform symbol size every holder derives locally.
func (s *symState) symbolSize() int {
	return fec.SymbolSizeFor(int(s.payloadLen), int(s.k))
}

// validGeometry rejects adverts and symbols whose coding parameters are
// impossible before any state is allocated for them.
func validGeometry(k, total uint16, payloadLen uint32) bool {
	return k > 0 && total >= k && int(total) <= fec.MaxSymbols && payloadLen > 0
}

// coderFor returns a coder for the given geometry, caching the last one:
// a workload's coopcast messages typically share parameters, and building
// the Cauchy parity matrix is O(K*R).
func (n *Node) coderFor(p fec.Params) (fec.Coder, error) {
	if n.fecCoder != nil && n.fecParams == p {
		return n.fecCoder, nil
	}
	c, err := fec.NewRS(p)
	if err != nil {
		return nil, err
	}
	n.fecCoder, n.fecParams = c, p
	return c, nil
}

// multicastCoopcast injects a payload as erasure-coded symbols. ok=false
// (impossible geometry, e.g. a payload too large for 256 symbols of the
// configured size class) makes the caller fall back to the whole path.
func (n *Node) multicastCoopcast(payload []byte) (MessageID, bool) {
	p := fec.ParamsFor(len(payload), n.cfg.FECSymbolSize, n.cfg.FECRepair)
	coder, err := n.coderFor(p)
	if err != nil {
		return MessageID{}, false
	}
	symbols, err := coder.Encode(payload)
	if err != nil {
		return MessageID{}, false
	}
	id := MessageID{Source: n.id, Seq: n.nextSeq}
	n.nextSeq++
	st := n.getMsgState()
	st.receivedAt = n.env.Now()
	if n.cfg.TraceSampleEvery > 0 && id.Seq%uint32(n.cfg.TraceSampleEvery) == 0 {
		st.traced = true
		st.origin = n.env.Now()
		if n.spanObs != nil {
			n.emitSpan(dtrace.KindInject, id, None, 0, st.origin, st.origin, 0, 0)
		}
	}
	sym := &symState{
		k:          uint16(p.K),
		total:      uint16(p.N()),
		payloadLen: uint32(len(payload)),
		haveCnt:    p.N(),
		complete:   true,
	}
	for i := 0; i < p.N(); i++ {
		sym.have.Add(i)
	}
	st.sym = sym
	n.seen[pid(id)] = st
	meta := sym.meta()
	for i, s := range symbols {
		n.store.PutSymbol(sid(id), i, s, meta, n.env.Now())
	}
	n.recent = append(n.recent, id)
	n.stats.Injected++
	n.deliverLocal(id, st, payload)
	if n.obs != nil {
		n.obs.Event(EvDeliver, None, PackMessageID(id), 0)
	}
	for i, s := range symbols {
		n.forwardSymbol(id, st, uint16(i), s, None)
	}
	return id, true
}

// forwardSymbol pushes one symbol down the single tree link the striping
// rule selects (Index mod eligible links), skipping the link it arrived on
// and peers already known to have the whole message.
func (n *Node) forwardSymbol(id MessageID, st *msgState, idx uint16, data []byte, except NodeID) {
	if !n.cfg.EnableTree {
		return
	}
	targets := n.symTargets[:0]
	for _, t := range n.TreeNeighbors() {
		if t == except || st.heardMask&n.slotBit(t) != 0 {
			continue
		}
		targets = append(targets, t)
	}
	n.symTargets = targets[:0]
	if len(targets) == 0 {
		return
	}
	t := targets[int(idx)%len(targets)]
	n.stats.SymbolsSent++
	if n.obs != nil {
		n.obs.Event(EvSend, t, PackMessageID(id), int64(idx))
	}
	n.env.Send(t, &Symbol{
		ID: id, Age: n.ageOf(st), Index: idx,
		K: st.sym.k, N: st.sym.total, PayloadLen: st.sym.payloadLen,
		Data: data, ViaTree: true, Hop: n.hopOf(st),
	})
}

// handleSymbol ingests one symbol, from a tree push, a pull response, or a
// sync page.
func (n *Node) handleSymbol(from NodeID, m *Symbol) {
	key := pid(m.ID)
	st, known := n.seen[key]
	if known && st.sym == nil {
		// Held as a whole payload (mixed-threshold deployments); redundant.
		n.stats.SymbolDups++
		return
	}
	if !known {
		if !validGeometry(m.K, m.N, m.PayloadLen) || m.Index >= m.N {
			n.stats.SymbolsRejected++
			return
		}
		age := m.Age
		if nb := n.findNeighbor(from); nb != nil {
			age += n.linkLatency(nb)
		}
		st = n.getMsgState()
		st.receivedAt = n.env.Now()
		st.ageAtReceipt = age
		st.sym = &symState{k: m.K, total: m.N, payloadLen: m.PayloadLen}
		n.seen[key] = st
		n.recent = append(n.recent, m.ID)
		n.assembling++
	}
	if !st.traced {
		// An assembly opened by a bare advert has no hop context; the
		// first sampled symbol supplies it.
		st.adoptHop(m.Hop)
	}
	sym := st.sym
	if sym.failed {
		return
	}
	if m.K != sym.k || m.N != sym.total || m.PayloadLen != sym.payloadLen ||
		m.Index >= sym.total || len(m.Data) != sym.symbolSize() {
		n.stats.SymbolsRejected++
		return
	}
	idx := int(m.Index)
	if sym.have.Has(idx) {
		n.stats.SymbolDups++
		return
	}
	if !n.store.PutSymbol(sid(m.ID), idx, m.Data, sym.meta(), n.env.Now()) {
		// Tombstoned or geometry clash inside the store; nothing to track.
		n.stats.SymbolDups++
		return
	}
	sym.have.Add(idx)
	sym.haveCnt++
	n.stats.SymbolsRecv++
	if st.traced && n.spanObs != nil {
		now := n.env.Now()
		kind := dtrace.KindSymbolPull
		if m.ViaTree {
			kind = dtrace.KindSymbolTree
		}
		n.emitSpan(kind, m.ID, from, m.Hop.Hops, now, now, n.ageOf(st), int64(idx))
	}
	n.forwardSymbol(m.ID, st, m.Index, m.Data, from)
	if !sym.complete && sym.haveCnt >= int(sym.k) {
		n.completeAssembly(m.ID, st, from)
	}
}

// completeAssembly runs once the K-th symbol lands: reconstruct the
// remaining symbols, deliver the payload, and store all N so this node can
// serve any future pull.
func (n *Node) completeAssembly(id MessageID, st *msgState, from NodeID) {
	sym := st.sym
	total := int(sym.total)
	held := sym.haveCnt
	// Either outcome ends the in-progress assembly.
	n.assembling--
	p := fec.Params{K: int(sym.k), R: total - int(sym.k), SymbolSize: sym.symbolSize()}
	coder, err := n.coderFor(p)
	syms := make([][]byte, total)
	if err == nil {
		n.store.RangeSymbols(sid(id), func(i int, data []byte) bool {
			syms[i] = data
			return true
		})
		err = coder.Reconstruct(syms)
	}
	if err != nil {
		sym.failed = true
		sym.timer.Stop()
		n.stats.FECDecodeFailures++
		return
	}
	payload := fec.Join(syms, p, int(sym.payloadLen))
	meta := sym.meta()
	for i := 0; i < total; i++ {
		if !sym.have.Has(i) {
			n.store.PutSymbol(sid(id), i, syms[i], meta, n.env.Now())
			sym.have.Add(i)
		}
	}
	sym.haveCnt = total
	sym.complete = true
	sym.holders = nil
	sym.timer.Stop()
	sym.pullArmed = false
	n.stats.FECDecodes++
	n.stats.PayloadsRecv++
	n.deliverLocal(id, st, payload)
	if n.obs != nil {
		n.obs.ObserveReassembly(n.env.Now() - st.receivedAt)
		n.obs.Event(EvDeliver, from, PackMessageID(id), int64(n.ageOf(st)))
	}
	if st.traced && n.spanObs != nil {
		n.emitSpan(dtrace.KindReassembly, id, from, st.hops, st.receivedAt, n.env.Now(), n.ageOf(st), int64(held))
	}
}

// handleSymbolAdvert ingests one coopcast entry of a gossip summary.
func (n *Node) handleSymbolAdvert(from NodeID, ad *SymbolAdvert, linkLat time.Duration) {
	key := pid(ad.ID)
	peerComplete := ad.Have.Count() >= int(ad.K)
	if st, ok := n.seen[key]; ok {
		if st.sym == nil {
			// We hold the whole payload; a peer advertising >= K symbols
			// can reconstruct it and never needs an announcement from us.
			if peerComplete {
				st.heardMask |= n.slotBit(from)
			}
			return
		}
		sym := st.sym
		if peerComplete {
			st.heardMask |= n.slotBit(from)
		} else if sym.complete {
			// The peer is stuck partial while we are complete — the
			// symbol-level liveness hole watermark sync cannot see (the ID
			// is inside the peer's watermark). Re-open announcements toward
			// it so our next gossip re-advertises our full bitmap and the
			// peer pulls what it misses from us.
			if bit := n.slotBit(from); bit != 0 {
				st.announcedMask &^= bit
				st.heardMask &^= bit
			}
			if st.announceDone {
				st.announceDone = false
				n.recent = append(n.recent, ad.ID)
				n.store.Unstable(sid(ad.ID))
				n.stats.Reannounced++
			}
		}
		if sym.complete || sym.failed {
			return
		}
		if ad.K != sym.k || ad.N != sym.total || ad.PayloadLen != sym.payloadLen {
			n.stats.SymbolsRejected++
			return
		}
		n.noteSymbolHolder(ad.ID, st, from, &ad.Have)
		return
	}
	// First news of this message: start an empty assembly and pull.
	if !validGeometry(ad.K, ad.N, ad.PayloadLen) {
		n.stats.SymbolsRejected++
		return
	}
	st := n.getMsgState()
	st.receivedAt = n.env.Now()
	st.ageAtReceipt = ad.Age + linkLat
	st.sym = &symState{k: ad.K, total: ad.N, payloadLen: ad.PayloadLen}
	n.seen[key] = st
	n.recent = append(n.recent, ad.ID)
	n.assembling++
	if peerComplete {
		st.heardMask |= n.slotBit(from)
	}
	n.noteSymbolHolder(ad.ID, st, from, &ad.Have)
}

// noteSymbolHolder records (or refreshes) a holder's advertised bitmap and
// arms the pull timer when the holder has something we miss. The first
// pull waits out PullDelay from the message's estimated injection, giving
// the tree stripes the same head start whole-message pulls grant the tree.
func (n *Node) noteSymbolHolder(id MessageID, st *msgState, from NodeID, have *store.SymbolSet) {
	sym := st.sym
	found := false
	for i := range sym.holders {
		if sym.holders[i].id == from {
			sym.holders[i].have = *have
			found = true
			break
		}
	}
	if !found {
		sym.holders = append(sym.holders, symHolder{id: from, have: *have})
	}
	if sym.pullArmed || !have.AnyNotIn(&sym.have) {
		return
	}
	wait := n.cfg.PullDelay - n.ageOf(st)
	if wait < 0 {
		wait = 0
	}
	sym.pullArmed = true
	sym.timer = n.env.After(wait, func() { n.fireSymbolPulls(id) })
}

// fireSymbolPulls runs one pull round: every missing symbol some holder
// advertises is requested from exactly one holder, rotating through the
// holder list so repair load spreads. The round re-arms on PullRetry while
// the message stays incomplete — lost symbols or lost pulls are simply
// re-requested, and receipt shrinks the want set monotonically.
func (n *Node) fireSymbolPulls(id MessageID) {
	if !n.running {
		return
	}
	st, ok := n.seen[pid(id)]
	if !ok || st.sym == nil {
		return
	}
	sym := st.sym
	sym.pullArmed = false
	if sym.complete || sym.failed || len(sym.holders) == 0 {
		return
	}
	wants := make([]store.SymbolSet, len(sym.holders))
	requested, cursor := 0, sym.nextHolder
	for i := 0; i < int(sym.total) && requested < maxSymbolsPerPull; i++ {
		if sym.have.Has(i) {
			continue
		}
		for j := 0; j < len(sym.holders); j++ {
			h := (cursor + j) % len(sym.holders)
			if sym.holders[h].have.Has(i) {
				wants[h].Add(i)
				cursor = h + 1
				requested++
				break
			}
		}
	}
	sym.nextHolder = cursor % len(sym.holders)
	if requested == 0 {
		// No known holder advertises anything we miss; stay quiet until a
		// fresher advert re-arms the round.
		return
	}
	for h := range wants {
		if wants[h].Empty() {
			continue
		}
		n.stats.SymbolPullsSent++
		if n.obs != nil {
			n.obs.Event(EvPull, sym.holders[h].id, PackMessageID(id), int64(wants[h].Count()))
		}
		n.env.Send(sym.holders[h].id, &SymbolPull{ID: id, Want: wants[h]})
	}
	sym.pullArmed = true
	sym.timer = n.env.After(n.cfg.PullRetry, func() { n.fireSymbolPulls(id) })
}

// handleSymbolPull serves the wanted symbols this node holds. Symbols it
// lacks are silently skipped: the puller's retry round and the next advert
// exchange redirect the request, so no miss indication is needed at
// symbol granularity.
func (n *Node) handleSymbolPull(from NodeID, m *SymbolPull) {
	meta, have, ok := n.store.SymbolInfo(sid(m.ID))
	if !ok {
		return
	}
	var age time.Duration
	var hop Hop
	if st := n.seen[pid(m.ID)]; st != nil {
		age = n.ageOf(st)
		hop = n.hopOf(st)
	}
	for i := 0; i < int(meta.N); i++ {
		if !m.Want.Has(i) || !have.Has(i) {
			continue
		}
		data, ok := n.store.GetSymbol(sid(m.ID), i)
		if !ok {
			continue
		}
		n.stats.SymbolsServed++
		n.env.Send(from, &Symbol{
			ID: m.ID, Age: age, Index: uint16(i),
			K: meta.K, N: meta.N, PayloadLen: meta.PayloadLen,
			Data: data, ViaTree: false, Hop: hop,
		})
	}
}

// Assembling reports the node's in-progress coopcast reassemblies: how
// many messages sit between first symbol and decode, and the age of the
// oldest such assembly (0 when none). The count is O(1); the oldest-age
// scan only runs while assemblies exist. Must run on the node's logical
// thread.
func (n *Node) Assembling() (count int, oldest time.Duration) {
	if n.assembling <= 0 {
		return 0, 0
	}
	now := n.env.Now()
	for _, st := range n.seen {
		if st.sym != nil && !st.sym.complete && !st.sym.failed {
			count++
			if age := now - st.receivedAt; age > oldest {
				oldest = age
			}
		}
	}
	return count, oldest
}
