package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strconv"
	"time"

	"gocast/internal/core"
	"gocast/internal/latency"
	"gocast/internal/netsim"
)

// simWorkload describes one netsim workload. Everything in it is fixed;
// only the seed varies between runs, so every simulated metric is a pure
// function of (workload, seed).
type simWorkload struct {
	nodes     int
	cfg       core.Config
	reps      int           // set-up + stream repetitions per run; host times are medians
	warmup    time.Duration // simulated time for the overlay to converge
	messages  int           // measured stream length
	interval  time.Duration // simulated time between injections
	small     int           // payload bytes of ordinary messages
	bulkEvery int           // every bulkEvery-th message is bulk (0 = none)
	bulk      int           // bulk payload bytes
	loss      float64       // per-link loss while the stream is injected
	drain     time.Duration // simulated time after the last injection
}

// worldSeed fixes the synthesized wide-area latency matrix — the network
// the group runs on — for every run, as the paper fixes its measured
// King matrix. The run seed varies everything else: protocol randomness,
// the initial random overlay, message sources and payloads.
const worldSeed = 20050628

// simSlice is the simulated length of one Run call during set-up and
// drain; the engine's pending-event count is sampled between slices.
const simSlice = time.Second

// sim-steady: the paper's baseline at its headline size.
func runSimSteady(o options, r *report) error {
	return runSim(o, r, simWorkload{
		nodes:    1024,
		cfg:      core.DefaultConfig(),
		reps:     2,
		warmup:   150 * time.Second,
		messages: 500,
		interval: 10 * time.Millisecond,
		small:    64,
		drain:    30 * time.Second,
	})
}

// sim-lossy-mixed: 10% loss on every link with coopcast bulk payloads, so
// the repair paths do most of the work.
func runSimLossy(o options, r *report) error {
	cfg := core.DefaultConfig()
	cfg.CoopcastThreshold = 8 << 10
	cfg.FECSymbolSize = 1024
	cfg.FECRepair = 4
	return runSim(o, r, simWorkload{
		nodes:     512,
		cfg:       cfg,
		reps:      2,
		warmup:    150 * time.Second,
		messages:  300,
		interval:  10 * time.Millisecond,
		small:     64,
		bulkEvery: 20,
		bulk:      64 << 10,
		loss:      0.10,
		drain:     30 * time.Second,
	})
}

// simRep is one repetition of a workload — set-up, then the measured
// stream — and what was observed while it ran.
type simRep struct {
	c           *netsim.Cluster
	setup       time.Duration
	stream      time.Duration
	cpu         time.Duration // process CPU during the stream
	pendingPeak int
	digest      string             // post-warmup state
	sim         map[string]float64 // simulated results
	deliveries  int
	failed      int64
	problems    []string

	// Traced repetitions only.
	counters      core.Counters
	streamEvents  uint64
	mallocs       uint64 // over set-up and stream
	streamMallocs uint64
	streamBytes   uint64
}

// runSlice advances the simulation by d and samples the event queue.
func (s *simRep) runSlice(d time.Duration, log *spanLog, parent uint64, trace string) {
	t0 := time.Now()
	s.c.Run(d)
	log.add(parent, trace, "run", -1, t0, time.Now())
	if p := s.c.Engine.Pending(); p > s.pendingPeak {
		s.pendingPeak = p
	}
}

// protocolSends is the fixed sum behind overhead_msgs_per_delivery: every
// protocol transmission core counts — gossip, tree forward, pull and
// symbol pull, pull serve and symbol serve, sync request and reply,
// tree-pushed symbol, ping, and tree advert.
func protocolSends(s core.Counters) int64 {
	return s.GossipsSent + s.TreeForwards + s.PullsSent + s.SymbolPullsSent +
		s.PullsServed + s.SymbolsServed + s.SyncRequestsSent + s.SyncRepliesSent +
		s.SymbolsSent + s.PingsSent + s.TreeAdverts
}

// simRepeat runs one repetition: build the cluster and run the warmup
// until the overlay has converged (set-up), then inject the stream and
// drain (measured phase), then check the outputs. Run slices and
// injections are recorded as spans when log is non-nil.
func simRepeat(w simWorkload, cfg core.Config, seed int64, log *spanLog, rep int) *simRep {
	mallocs0, _ := allocs()
	trace := "setup-" + strconv.Itoa(rep)
	start := time.Now()
	world := latency.Synthesize(w.nodes, worldSeed)
	c := netsim.New(netsim.Options{Nodes: w.nodes, Seed: seed, Config: cfg, Matrix: world})
	c.BootstrapMembership(cfg.MemberViewSize / 2)
	c.WireRandom((cfg.TargetDegree() + 1) / 2)
	c.Start(0)
	root := log.add(0, trace, "setup.build", -1, start, time.Now())
	s := &simRep{c: c}
	for t := time.Duration(0); t < w.warmup; t += simSlice {
		s.runSlice(simSlice, log, root, trace)
	}
	s.setup = time.Since(start)
	log.add(0, trace, "setup", -1, start, time.Now())
	s.digest = fmt.Sprintf("events=%d pending=%d counters=%+v", c.ExecutedEvents(), c.Engine.Pending(), c.SumCounters())

	// Inputs: message sources and payloads come from the seed alone.
	rng := rand.New(rand.NewSource(seed*1_000_003 + 17))
	small := make([]byte, w.small)
	rng.Read(small)
	var bulk []byte
	if w.bulkEvery > 0 {
		bulk = make([]byte, w.bulk)
		rng.Read(bulk)
	}

	trace = "stream-" + strconv.Itoa(rep)
	before := c.SumCounters()
	events0 := c.ExecutedEvents()
	smallocs0, sbytes0 := allocs()
	cpu0 := cpuTime()
	start = time.Now()
	if w.loss > 0 {
		c.SetFaults(&netsim.FaultSpec{Seed: seed ^ 0x10551, Rules: []netsim.LinkFault{{Loss: w.loss}}})
	}
	root = log.add(0, trace, "stream.begin", -1, start, start)
	for k := 0; k < w.messages; k++ {
		s.runSlice(w.interval, log, root, trace)
		payload := small
		if w.bulkEvery > 0 && k%w.bulkEvery == w.bulkEvery-1 {
			payload = bulk
		}
		src := rng.Intn(w.nodes)
		t0 := time.Now()
		id := c.Inject(src, payload)
		if log != nil {
			log.add(root, fmt.Sprintf("%d/%d", id.Source, id.Seq), "inject", src, t0, time.Now())
		}
	}
	if w.loss > 0 {
		c.SetFaults(nil)
	}
	for t := time.Duration(0); t < w.drain; t += simSlice {
		s.runSlice(simSlice, log, root, trace)
	}
	s.stream = time.Since(start)
	s.cpu = cpuTime() - cpu0
	smallocs1, sbytes1 := allocs()
	log.add(0, trace, "stream", -1, start, time.Now())

	// Outputs and checks.
	s.counters = c.SumCounters()
	s.streamEvents = c.ExecutedEvents() - events0
	s.mallocs = smallocs1 - mallocs0
	s.streamMallocs, s.streamBytes = smallocs1-smallocs0, sbytes1-sbytes0
	delays := c.Delays()
	s.deliveries = delays.Count()
	cdf := delays.CDF()
	ratio := delays.DeliveryRatio()
	s.sim = map[string]float64{
		"delivery_p50_ms":            ms(cdf.Quantile(0.50)),
		"sim.p90_ms":                 ms(cdf.Quantile(0.90)),
		"sim.p99_ms":                 ms(cdf.Quantile(0.99)),
		"delivery_ratio":             ratio,
		"overhead_msgs_per_delivery": safeDiv(float64(protocolSends(s.counters)-protocolSends(before)), float64(s.deliveries)),
		"sim.events":                 float64(c.ExecutedEvents()),
		"deliveries":                 float64(s.deliveries),
	}
	for _, n := range c.ReceiveCounts() {
		if n != w.nodes {
			s.failed++
		}
	}
	if ratio != 1 || delays.Misses() != 0 {
		s.problems = append(s.problems, fmt.Sprintf("delivery ratio %v (%d misses), want 1", ratio, delays.Misses()))
	}
	if v := c.AtomicityViolations(w.drain / 2); v != 0 {
		s.problems = append(s.problems, fmt.Sprintf("%d atomicity violations", v))
	}
	if c.Messages() != w.messages {
		s.problems = append(s.problems, fmt.Sprintf("%d messages tracked, want %d", c.Messages(), w.messages))
	}
	return s
}

// runSim repeats set-up and stream w.reps times at the same seed and
// reports medians of the host times. Every repetition must reproduce the
// first one's simulated results exactly. In a traced run only the last
// repetition is traced, so comparing its wall time with the untraced
// ones gives the tracing overhead.
func runSim(o options, r *report, w simWorkload) error {
	var log *spanLog
	var st *storeTimes
	var prof *cpuProfile
	var setups, streams, untraced []float64
	var cpu time.Duration
	var deliveries int
	var first, last *simRep
	for i := 0; i < w.reps; i++ {
		traced := o.trace && i == w.reps-1
		cfg := w.cfg
		if traced {
			log = newSpanLog(time.Now(), 1)
			st = &storeTimes{}
			cfg.NewStore = newStoreHook(st)
			var err error
			if prof, err = startCPUProfile(); err != nil {
				return err
			}
		}
		last = simRepeat(w, cfg, o.seed, log, i)
		setups = append(setups, last.setup.Seconds())
		streams = append(streams, last.stream.Seconds())
		if !traced {
			untraced = append(untraced, (last.setup + last.stream).Seconds())
		}
		cpu += last.cpu
		deliveries += last.deliveries
		if first == nil {
			first = last
			r.problems = append(r.problems, last.problems...)
			r.attempted, r.failed = int64(w.messages), last.failed
		} else if last.digest != first.digest || fmt.Sprint(last.sim) != fmt.Sprint(first.sim) {
			r.fail("repetition %d diverged from repetition 0 at the same seed: %s %v vs %s %v",
				i, last.digest, last.sim, first.digest, first.sim)
		}
		if i < w.reps-1 {
			// Return the discarded cluster's pages to the OS so it does
			// not inflate the next repetition's resident memory.
			last.c = nil
			debug.FreeOSMemory()
		}
	}
	checkDeterminism(o, r, first.sim, first.digest)

	r.end("setup_s", "s", median(setups))
	r.end("stream_s", "s", median(streams))
	r.end("peak_rss_mb", "MiB", peakRSSMiB())
	r.end("delivery_p50_ms", "ms", first.sim["delivery_p50_ms"])
	r.end("delivery_ratio", "fraction", first.sim["delivery_ratio"])
	r.end("overhead_msgs_per_delivery", "msgs", first.sim["overhead_msgs_per_delivery"])
	r.end("cpu_us_per_delivery", "us", safeDiv(us(cpu), float64(deliveries)))
	fmt.Printf("sim: %d nodes, %d messages, %d reps, %d (message, node) delivery samples per rep, p99 %.3f ms simulated\n",
		w.nodes, w.messages, w.reps, first.deliveries, first.sim["sim.p99_ms"])
	fmt.Printf("sim: set-up s %v, stream s %v\n", setups, streams)
	if !o.trace {
		return nil
	}

	shares, samples, err := prof.stop(traceFile(o))
	if err != nil {
		return err
	}
	c := last.c
	events := c.ExecutedEvents()
	d := float64(last.deliveries)
	r.count("sim.events", int64(events))
	r.per("sim.ns_per_event", "ns", safeDiv(float64(last.setup+last.stream), float64(events)))
	r.count("sim.pending_peak", int64(last.pendingPeak))
	r.per("sim.p90_ms", "ms", last.sim["sim.p90_ms"])
	r.per("sim.p99_ms", "ms", last.sim["sim.p99_ms"])
	r.count("sim.stream_events", int64(last.streamEvents))
	r.count("latency.samples", int64(last.deliveries))
	r.count("netsim.fault_drops", c.FaultStats().Dropped)
	reportCounters(r, last.counters, d)
	st.report(r)
	reportCPU(r, shares, samples)
	r.per("runtime.allocs_per_event", "allocs", safeDiv(float64(last.mallocs), float64(events)))
	r.per("runtime.allocs_per_delivery", "allocs", safeDiv(float64(last.streamMallocs), d))
	r.per("runtime.alloc_bytes_per_delivery", "B", safeDiv(float64(last.streamBytes), d))
	r.per("trace.overhead_pct", "%", 100*((last.setup+last.stream).Seconds()/median(untraced)-1))
	reportLiveOnlyZeros(r)
	path, err := writeSpans(traceFile(o), log)
	if err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(log.spans), path)
	return nil
}

// reportCounters emits the per-layer work counts and ratios read from the
// summed core.Counters of every node.
func reportCounters(r *report, s core.Counters, deliveries float64) {
	r.count("overlay.link_changes", s.LinkAdds+s.LinkDrops)
	r.ratio("overlay.add_accept_ratio", float64(s.AddsAccepted), float64(s.AddsSent))
	r.count("overlay.pings", s.PingsSent)
	r.count("tree.forwards", s.TreeForwards)
	r.count("tree.adverts", s.TreeAdverts)
	r.count("dissem.gossips", s.GossipsSent)
	r.count("dissem.ids_announced", s.IDsAnnounced)
	r.ratio("dissem.dup_per_delivery", float64(s.Duplicates), deliveries)
	r.count("dissem.pulls", s.PullsSent)
	r.ratio("dissem.pull_served_ratio", float64(s.PullsServed), float64(s.PullsSent))
	r.ratio("dissem.pull_retry_ratio", float64(s.PullRetries), float64(s.PullsSent))
	r.count("sync.requests", s.SyncRequestsSent)
	r.count("sync.items", s.SyncItemsSent)
	r.per("sync.bytes", "B", float64(s.SyncBytesSent))
	r.count("coopcast.symbols_sent", s.SymbolsSent)
	r.ratio("coopcast.symbol_dup_ratio", float64(s.SymbolDups), float64(s.SymbolsRecv))
	r.count("coopcast.symbol_pulls", s.SymbolPullsSent)
	r.count("coopcast.decodes", s.FECDecodes)
}

// reportLiveOnlyZeros prints the live-only per-layer metrics as zero, so
// every workload's traced run reports the same metric set.
func reportLiveOnlyZeros(r *report) {
	for _, n := range []string{"tcp.frames_dropped", "node.mailbox_sheds", "node.overload_transitions"} {
		r.count(n, 0)
	}
	r.per("tcp.lo_packets_per_delivery", "packets", 0)
	r.per("tcp.lo_bytes_per_delivery", "B", 0)
	r.per("node.publish_call_us_p50", "us", 0)
	r.per("node.publish_call_us_p99", "us", 0)
	r.per("live.p90_ms", "ms", 0)
	r.per("live.p99_ms", "ms", 0)
	r.per("live.gen_late_ms", "ms", 0)
	r.per("live.first_shed_rate", "1/s", 0)
}

// reportSimOnlyZeros is reportLiveOnlyZeros for the sim-only metrics.
func reportSimOnlyZeros(r *report) {
	for _, n := range []string{"sim.events", "sim.pending_peak", "sim.stream_events", "netsim.fault_drops"} {
		r.count(n, 0)
	}
	r.per("sim.ns_per_event", "ns", 0)
	r.per("sim.p90_ms", "ms", 0)
	r.per("sim.p99_ms", "ms", 0)
	r.per("runtime.allocs_per_event", "allocs", 0)
}
