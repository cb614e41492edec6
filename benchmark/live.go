package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"gocast/internal/core"
	"gocast/internal/live"
)

const (
	liveNodes   = 8
	liveRate    = 1000 // messages per second, open loop
	livePayload = 64   // bytes; the smallest message, where per-message cost dominates
	liveSetups  = 11   // set-ups per run; setup_s is their median
	// maxGenLate is how far behind its schedule the generator may fall
	// before the run is invalid: past it the offered load is no longer
	// the stated rate. Host stalls alone have reached 120 ms on a busy
	// 2-vCPU machine; a backlog five times that is not worked off.
	maxGenLate    = 500 * time.Millisecond
	attachTimeout = 15 * time.Second
	drainTimeout  = 10 * time.Second
)

// Rate ramp of the traced run: each step publishes at a higher rate until
// the group first sheds, rejects a publish, leaves Healthy, or the
// generator falls behind.
var rampRates = []int{4000, 6000, 8000, 10000, 12000, 14000, 16000}

const rampStep = 400 * time.Millisecond

// liveGroup is one 8-node group on loopback TCP and the delivery record of
// its measured stream. recv holds, per (message, node), the delivery time
// in nanoseconds since origin plus one (0 = not delivered); each cell is
// written once, by the receiving node's event loop.
type liveGroup struct {
	nodes    []*live.Node
	origin   time.Time
	payloads [][]byte
	recv     []atomic.Int64

	receiverDeliveries atomic.Int64 // deliveries at nodes other than the publisher
	selfDeliveries     atomic.Int64
	duplicates         atomic.Int64
	corrupt            atomic.Int64

	// Delivery spans of the traced half: one log per node, written only
	// by that node's event loop once traceFrom is set (>= 0).
	traceFrom atomic.Int64
	logs      []*spanLog
}

// publisherOf is the node that publishes message k (round robin).
func publisherOf(k int) int { return k % liveNodes }

// pubSpanID is the span ID of message k's publish span, so delivery spans
// recorded on other goroutines can name it as their parent. Its base (10)
// is above those of the run's span logs (1 to 9).
func pubSpanID(k int) uint64 { return 10<<40 | uint64(k+1) }

func (g *liveGroup) deliverFunc(node int) core.DeliverFunc {
	return func(_ core.MessageID, payload []byte, _ time.Duration) {
		now := time.Since(g.origin)
		if len(payload) != livePayload {
			g.corrupt.Add(1)
			return
		}
		k := int(binary.LittleEndian.Uint64(payload))
		if k >= len(g.payloads) {
			return // a rate-ramp message, outside the checked stream
		}
		if !bytes.Equal(payload, g.payloads[k]) {
			g.corrupt.Add(1)
			return
		}
		if !g.recv[k*liveNodes+node].CompareAndSwap(0, int64(now)+1) {
			g.duplicates.Add(1)
			return
		}
		if node == publisherOf(k) {
			g.selfDeliveries.Add(1)
			return
		}
		g.receiverDeliveries.Add(1)
		if from := g.traceFrom.Load(); from >= 0 && k >= int(from) {
			at := g.origin.Add(now)
			g.logs[node].add(pubSpanID(k), "m"+strconv.Itoa(k), "deliver", node, at, at)
		}
	}
}

// start builds the group — transports, nodes, joins — and waits until
// every node is attached to node 0's tree. It returns the set-up time.
func (g *liveGroup) start(cfg core.Config, seed int64) (time.Duration, error) {
	begin := time.Now()
	g.nodes = make([]*live.Node, 0, liveNodes)
	for i := 0; i < liveNodes; i++ {
		tr, err := live.NewTCPTransport(core.NodeID(i), "127.0.0.1:0")
		if err != nil {
			g.close()
			return 0, fmt.Errorf("listen: %w", err)
		}
		g.nodes = append(g.nodes, live.NewNode(live.NodeOptions{
			ID:        core.NodeID(i),
			Config:    cfg,
			Transport: tr,
			Seed:      seed*31 + int64(i),
			OnDeliver: g.deliverFunc(i),
		}))
	}
	var landmarks []core.Entry
	for i := 0; i < cfg.LandmarkCount && i < liveNodes; i++ {
		landmarks = append(landmarks, g.nodes[i].Entry())
	}
	for _, n := range g.nodes {
		n.SetLandmarks(landmarks)
	}
	g.nodes[0].BecomeRoot()
	for _, n := range g.nodes[1:] {
		n.Join(g.nodes[0].Entry())
	}
	deadline := begin.Add(attachTimeout)
	for !g.attached() {
		if time.Now().After(deadline) {
			g.close()
			return 0, errors.New("nodes did not attach to node 0's tree in time")
		}
		time.Sleep(500 * time.Microsecond)
	}
	return time.Since(begin), nil
}

// attached reports whether every node sees node 0 as root and every other
// node has a tree parent.
func (g *liveGroup) attached() bool {
	for i, n := range g.nodes {
		if n.Root() != 0 || (i > 0 && n.Parent() == core.None) {
			return false
		}
	}
	return true
}

func (g *liveGroup) close() {
	for _, n := range g.nodes {
		n.Close()
	}
}

// stats sums every node's protocol counters.
func (g *liveGroup) stats() core.Counters {
	var sum core.Counters
	total := reflect.ValueOf(&sum).Elem()
	for _, n := range g.nodes {
		s := reflect.ValueOf(n.Stats())
		for f := 0; f < s.NumField(); f++ {
			total.Field(f).SetInt(total.Field(f).Int() + s.Field(f).Int())
		}
	}
	return sum
}

// registrySum totals one counter over every node's metrics registry.
func (g *liveGroup) registrySum(name string) int64 {
	var sum int64
	for _, n := range g.nodes {
		sum += n.Registry().Counter(name, "").Value()
	}
	return sum
}

func (g *liveGroup) transportSum(name string) int64 {
	var sum int64
	for _, n := range g.nodes {
		sum += n.TransportStats()[name]
	}
	return sum
}

// shedSignals totals the events that mean the group is past its capacity:
// mailbox sheds, overload state changes and rejected publishes.
func (g *liveGroup) shedSignals() int64 {
	return g.registrySum("gocast_live_mailbox_dropped_total") +
		g.registrySum("gocast_overload_transitions_total") +
		g.registrySum("gocast_overload_publish_rejected_total")
}

// publishStat is what the generator saw for one message.
type publishStat struct {
	due      time.Duration // since stream start
	late     time.Duration // how long after due the publish began
	call     time.Duration // duration of the Publish call
	rejected bool
}

func runLiveTCP(o options, r *report) error {
	cfg := live.FastConfig()
	n := liveRate * o.seconds
	rng := rand.New(rand.NewSource(o.seed*7_368_787 + 3))
	g := &liveGroup{origin: time.Now(), recv: make([]atomic.Int64, n*liveNodes)}
	g.traceFrom.Store(-1)
	g.payloads = make([][]byte, n)
	for k := range g.payloads {
		p := make([]byte, livePayload)
		rng.Read(p)
		binary.LittleEndian.PutUint64(p, uint64(k))
		g.payloads[k] = p
	}
	var st *storeTimes
	var pubLog *spanLog
	if o.trace {
		st = &storeTimes{}
		pubLog = newSpanLog(g.origin, 1)
		for i := 0; i < liveNodes; i++ {
			g.logs = append(g.logs, newSpanLog(g.origin, uint64(2+i)))
		}
	}

	// Set up liveSetups times; the last group carries the stream.
	var setups []float64
	for i := 0; i < liveSetups; i++ {
		c := cfg
		if i == liveSetups-1 && o.trace {
			c.NewStore = newStoreHook(st)
		}
		// Each set-up gets its own node seeds: attach time depends on
		// where the join lands in the nodes' timer phases, so the median
		// over varied phases is the typical set-up, not one seed's luck.
		begin := time.Now()
		d, err := g.start(c, o.seed*liveSetups+int64(i))
		if err != nil {
			return err
		}
		pubLog.add(0, "setup-"+strconv.Itoa(i), "setup", -1, begin, time.Now())
		setups = append(setups, d.Seconds())
		if i < liveSetups-1 {
			g.close()
		}
	}
	defer g.close()

	// Measured phase: an open-loop generator publishes message k at its
	// due time k/rate through node k mod 8; then wait for the drain. In a
	// traced run the second half of the stream is traced and profiled.
	interval := time.Second / liveRate
	pubs := make([]publishStat, n)
	half := n / 2
	before := g.stats()
	loBytes0, loPkts0 := loCounters()
	mallocs0, abytes0 := allocs()
	cpu0 := cpuTime()
	var cpuHalf time.Duration
	var prof *cpuProfile
	start := time.Now()
	for k := 0; k < n; k++ {
		if o.trace && k == half {
			cpuHalf = cpuTime()
			var err error
			if prof, err = startCPUProfile(); err != nil {
				return err
			}
			g.traceFrom.Store(int64(half))
		}
		due := time.Duration(k) * interval
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		t0 := time.Now()
		_, err := g.nodes[publisherOf(k)].Publish(g.payloads[k])
		t1 := time.Now()
		pubs[k] = publishStat{due: due, late: t0.Sub(start) - due, call: t1.Sub(t0), rejected: err != nil}
		if k >= half && o.trace {
			pubLog.addID(pubSpanID(k), 0, "m"+strconv.Itoa(k), "publish", publisherOf(k), start.Add(due), t1)
		}
		if err != nil && !errors.Is(err, live.ErrOverloaded) {
			return fmt.Errorf("publish %d: %w", k, err)
		}
	}
	rejected := 0
	for _, p := range pubs {
		if p.rejected {
			rejected++
		}
	}
	want := int64((n - rejected) * (liveNodes - 1))
	deadline := time.Now().Add(drainTimeout)
	for g.receiverDeliveries.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stream := time.Since(start)
	cpu := cpuTime() - cpu0
	mallocs1, abytes1 := allocs()
	loBytes1, loPkts1 := loCounters()
	after := g.stats()

	// Latency from each message's due time to its delivery at each of the
	// other nodes; the publisher's own delivery is excluded. The reported
	// p50 is the median over one-second windows of due time, so a host
	// stall confined to a few windows does not set it; lat keeps every
	// sample for the whole-run diagnostics.
	var lat, window, late, calls []float64
	var p50s []float64
	failedMsgs := 0
	for k := 0; k < n; k++ {
		if k%liveRate == 0 && len(window) > 0 {
			sort.Float64s(window)
			p50s = append(p50s, quantile(window, 0.50))
			window = window[:0]
		}
		late = append(late, ms(pubs[k].late))
		calls = append(calls, us(pubs[k].call))
		if pubs[k].rejected {
			failedMsgs++
			continue
		}
		complete := true
		for node := 0; node < liveNodes; node++ {
			at := g.recv[k*liveNodes+node].Load()
			if at == 0 {
				complete = false
				continue
			}
			if node != publisherOf(k) {
				d := ms(time.Duration(at-1) - (start.Sub(g.origin) + pubs[k].due))
				lat = append(lat, d)
				window = append(window, d)
			}
		}
		if !complete {
			failedMsgs++
		}
	}
	if len(window) > 0 {
		sort.Float64s(window)
		p50s = append(p50s, quantile(window, 0.50))
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	sort.Float64s(calls)
	deliveries := g.receiverDeliveries.Load()
	ratio := safeDiv(float64(deliveries), float64(n*(liveNodes-1)))
	maxLate := late[len(late)-1]

	r.attempted = int64(n)
	r.failed = int64(failedMsgs)
	if rejected > 0 {
		r.fail("%d of %d publishes rejected", rejected, n)
	}
	if deliveries != int64(n*(liveNodes-1)) {
		r.fail("%d of %d (message, receiver) pairs delivered", deliveries, n*(liveNodes-1))
	}
	if d := g.duplicates.Load(); d > 0 {
		r.fail("%d duplicate deliveries", d)
	}
	if c := g.corrupt.Load(); c > 0 {
		r.fail("%d deliveries with a wrong payload", c)
	}
	if s := g.selfDeliveries.Load(); s > int64(n) {
		r.fail("%d self-deliveries for %d messages", s, n)
	}
	if maxLate > ms(maxGenLate) {
		r.fail("generator fell %.1f ms behind its schedule (bound %v): the run is invalid", maxLate, maxGenLate)
	}

	r.end("setup_s", "s", median(setups))
	r.end("stream_s", "s", stream.Seconds())
	r.end("peak_rss_mb", "MiB", peakRSSMiB())
	r.end("delivery_p50_ms", "ms", median(p50s))
	r.end("delivery_ratio", "fraction", ratio)
	r.end("overhead_msgs_per_delivery", "msgs", safeDiv(float64(protocolSends(after)-protocolSends(before)), float64(deliveries)))
	r.end("cpu_us_per_delivery", "us", safeDiv(us(cpu), float64(deliveries)))
	fmt.Printf("live: %d nodes, %d messages at %d/s, %d latency samples, generator max late %.3f ms\n",
		liveNodes, n, liveRate, len(lat), maxLate)
	if !o.trace {
		return nil
	}

	shares, samples, err := prof.stop(traceFile(o))
	if err != nil {
		return err
	}
	framesDropped := g.transportSum(live.CtrFramesDropped)
	sheds := g.registrySum("gocast_live_mailbox_dropped_total")
	transitions := g.registrySum("gocast_overload_transitions_total")
	firstShed := g.ramp(n)
	g.close() // no delivery callback may run while the spans are written
	halfDeliveries := float64(half * (liveNodes - 1))
	untracedCPU := safeDiv(us(cpuHalf-cpu0), halfDeliveries)
	tracedCPU := safeDiv(us(cpu0+cpu-cpuHalf), float64(deliveries)-halfDeliveries)
	r.per("tcp.lo_packets_per_delivery", "packets", safeDiv(float64(loPkts1-loPkts0), float64(deliveries)))
	r.per("tcp.lo_bytes_per_delivery", "B", safeDiv(float64(loBytes1-loBytes0), float64(deliveries)))
	r.count("tcp.frames_dropped", framesDropped)
	r.per("node.publish_call_us_p50", "us", quantile(calls, 0.50))
	r.per("node.publish_call_us_p99", "us", quantile(calls, 0.99))
	r.count("node.mailbox_sheds", sheds)
	r.count("node.overload_transitions", transitions)
	r.per("live.p90_ms", "ms", quantile(lat, 0.90))
	r.per("live.p99_ms", "ms", quantile(lat, 0.99))
	r.per("live.gen_late_ms", "ms", maxLate)
	r.per("live.first_shed_rate", "1/s", float64(firstShed))
	r.count("latency.samples", int64(len(lat)))
	reportCounters(r, after, float64(deliveries))
	st.report(r)
	reportCPU(r, shares, samples)
	r.per("runtime.allocs_per_delivery", "allocs", safeDiv(float64(mallocs1-mallocs0), float64(deliveries)))
	r.per("runtime.alloc_bytes_per_delivery", "B", safeDiv(float64(abytes1-abytes0), float64(deliveries)))
	r.per("trace.overhead_pct", "%", 100*(tracedCPU/untracedCPU-1))
	reportSimOnlyZeros(r)
	logs := append([]*spanLog{pubLog}, g.logs...)
	path, err := writeSpans(traceFile(o), logs...)
	if err != nil {
		return err
	}
	fmt.Printf("spans: %d publish + delivery spans written to %s\n", spanCount(logs), path)
	return nil
}

// ramp raises the offered rate step by step after the measured stream and
// returns the first rate at which the group shed work, rejected a publish
// or left Healthy, or at which the generator fell behind (0 = none up to
// the last step). Ramp messages are not part of the delivery checks.
func (g *liveGroup) ramp(base int) int {
	k := base
	for _, rate := range rampRates {
		signals := g.shedSignals()
		interval := time.Second / time.Duration(rate)
		count := int(rampStep / interval)
		start := time.Now()
		behind := false
		for i := 0; i < count; i++ {
			due := time.Duration(i) * interval
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
			if time.Since(start)-due > maxGenLate {
				behind = true
			}
			p := make([]byte, livePayload)
			binary.LittleEndian.PutUint64(p, uint64(k))
			k++
			if _, err := g.nodes[publisherOf(k)].Publish(p); err != nil {
				behind = true
			}
		}
		if behind || g.shedSignals() > signals {
			return rate
		}
	}
	return 0
}

func spanCount(logs []*spanLog) int {
	n := 0
	for _, l := range logs {
		n += len(l.spans)
	}
	return n
}
