package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/rocosim/roco"
	"github.com/rocosim/roco/internal/arbiter"
	"github.com/rocosim/roco/internal/core"
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/network"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/stats"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// telemetryEvery is the epoch length traced runs sample router counters
// at; untraced runs leave telemetry off.
const telemetryEvery = 1024

// repeat runs rep while another repetition as long as the last one
// still fits in budget, and at least once. Traced measurements
// alternate untraced and traced repetitions, starting untraced and
// running at least one of each, so the traced run can report its own
// overhead. It returns the wall time of every repetition, split by mode.
func repeat(budget time.Duration, traced bool, rep func(traced bool) time.Duration) (plain, withTrace []float64) {
	start := time.Now()
	for i := 0; ; i++ {
		t := traced && i%2 == 1
		runtime.GC() // start every repetition from a collected heap
		repStart := time.Now()
		d := rep(t)
		if t {
			withTrace = append(withTrace, seconds(d))
		} else {
			plain = append(plain, seconds(d))
		}
		last := time.Since(repStart)
		if time.Since(start)+last > budget && (!traced || len(withTrace) > 0) {
			return plain, withTrace
		}
	}
}

// Set-up is timed apart from the repetitions: setupFirst samples before
// them and setupEvery after each one, so the samples spread over the
// whole run and setup_s, their median, rides out short host stalls.
const (
	setupFirst = 10
	setupEvery = 4
)

// sampleSetup appends n timings of setup, each from a collected heap,
// to xs.
func sampleSetup(xs *[]float64, n int, setup func() time.Duration) {
	for i := 0; i < n; i++ {
		runtime.GC()
		*xs = append(*xs, seconds(setup()))
	}
}

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// canonical renders a Result for identity checks: JSON with the
// telemetry series left out, since traced runs sample it and untraced
// runs do not, and sampling never changes any other field.
func canonical(r roco.Result) string {
	r.Telemetry = nil
	b, err := json.Marshal(r)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode result: %v", err))
	}
	return string(b)
}

// digestOf hashes a sequence of canonical results.
func digestOf(keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%d\x00%s", len(k), k)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runChecks returns why a finished run fails the correctness gate, or
// "" when it passes: a watchdog wedge, or a result that differs from
// the first repetition's (want, "" on the first repetition).
func runChecks(label string, r roco.Result, want string) string {
	if r.Watchdog != "" {
		return label + ": watchdog wedge"
	}
	if want != "" && canonical(r) != want {
		return label + ": result differs from the first repetition"
	}
	return ""
}

// safely runs f and converts a panic (including a failed conservation
// audit, which panics) into a failure reason.
func safely(label string, f func()) (why string) {
	defer func() {
		if r := recover(); r != nil {
			why = fmt.Sprintf("%s: panic: %v", label, r)
		}
	}()
	f()
	return ""
}

// routerCounts sums the telemetry totals the router layer reports.
type routerCounts struct {
	saGrants, saConflicts, creditStalls, earlyEjections int64
}

func (c *routerCounts) addTotals(t *roco.Telemetry) {
	if t == nil {
		return
	}
	c.saGrants += t.Totals.SAGrants
	c.saConflicts += t.Totals.SAConflicts
	c.creditStalls += t.Totals.CreditStalls
	c.earlyEjections += t.Totals.EarlyEjections
}

// put stores the router.* metrics.
func (c routerCounts) put(m map[string]float64) {
	m["router.sa_grants"] = float64(c.saGrants)
	m["router.sa_conflict_ratio"] = ratio(float64(c.saConflicts), float64(c.saGrants+c.saConflicts))
	m["router.credit_stalls"] = float64(c.creditStalls)
	m["router.early_ejections"] = float64(c.earlyEjections)
}

// protocolCounts sums the reliable-delivery and die-to-die outcomes of a
// set of results.
type protocolCounts struct {
	generated, delivered, retransmissions, giveups, d2dFlits int64
}

func (c *protocolCounts) add(r roco.Result) {
	c.generated += r.GeneratedPackets
	c.delivered += r.DeliveredPackets
	c.retransmissions += r.Retransmissions
	c.giveups += int64(len(r.GiveUps))
	c.d2dFlits += r.D2DFlits
}

// put stores the protocol.* and d2d.* metrics. The goodput ratio is
// delivered packets over launched copies (first attempts plus
// retransmissions): useful outcomes per attempt.
func (c protocolCounts) put(m map[string]float64) {
	m["protocol.retransmissions"] = float64(c.retransmissions)
	m["protocol.giveups"] = float64(c.giveups)
	m["protocol.goodput_ratio"] = ratio(float64(c.delivered), float64(c.generated+c.retransmissions))
	m["d2d.flits"] = float64(c.d2dFlits)
}

// noCampaign stores zeros for the campaign layer on workloads that never
// reach it.
func noCampaign(m map[string]float64) {
	for _, k := range []string{"campaign.queue_wait_s_p50", "campaign.run_s_p50",
		"campaign.checkpoints", "campaign.retries", "campaign.shed"} {
		m[k] = 0
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// grantSink keeps the arbiter benchmark's results live.
var grantSink int

// arbiterGrantNS times RoundRobin.GrantMask at widths 4, 12 and 64 over
// request masks drawn from seed, and returns the median over batches of
// nanoseconds per grant (each batch grants equally at every width).
func arbiterGrantNS(seed uint64, o *outcome) float64 {
	widths := []int{4, 12, 64}
	const masks, perWidth, batches = 4096, 1 << 18, 9
	rng := stats.NewRNG(seed)
	reqs := make([][]uint64, len(widths))
	arbs := make([]*arbiter.RoundRobin, len(widths))
	for i, w := range widths {
		arbs[i] = arbiter.NewRoundRobin(w)
		reqs[i] = make([]uint64, masks)
		full := uint64(math.MaxUint64)
		if w < 64 {
			full = 1<<uint(w) - 1
		}
		for j := range reqs[i] {
			for reqs[i][j] == 0 {
				reqs[i][j] = rng.Uint64() & full
			}
		}
	}
	perBatch := make([]float64, 0, batches)
	perWidthNS := make([][]float64, len(widths))
	for b := 0; b < batches; b++ {
		var total time.Duration
		for i := range widths {
			a, rs := arbs[i], reqs[i]
			t0 := time.Now()
			for j := 0; j < perWidth; j++ {
				grantSink += a.GrantMask(rs[j&(masks-1)])
			}
			d := time.Since(t0)
			total += d
			perWidthNS[i] = append(perWidthNS[i], float64(d.Nanoseconds())/perWidth)
		}
		perBatch = append(perBatch, float64(total.Nanoseconds())/float64(perWidth*len(widths)))
	}
	for i, w := range widths {
		o.note("arbiter.grant_ns width %d: p50 %.3g ns over %d batches", w, median(perWidthNS[i]), batches)
	}
	return median(perBatch)
}

// internalNetwork builds, through internal/network, the network roco
// would build for cfg. It covers what the benchmark's configurations
// use — the RoCo router, XY or XY-YX routing, uniform traffic, flat or chiplet
// meshes with explicit die-to-die timing, runtime fault schedules and
// the reliable-delivery protocol — and the caller proves the
// equivalence by comparing results with the roco run.
func internalNetwork(cfg roco.Config) *network.Network {
	alg := map[roco.Algorithm]routing.Algorithm{roco.XY: routing.XY, roco.XYYX: routing.XYYX}
	if _, ok := alg[cfg.Algorithm]; !ok || cfg.Router != roco.RoCo || cfg.Traffic != roco.Uniform || cfg.Torus {
		panic("perfbench: internalNetwork covers RoCo meshes under XY or XY-YX uniform traffic only")
	}
	var topo topology.Topology
	if cfg.ChipsX > 0 {
		topo = topology.NewMultiChipMesh(cfg.ChipsX, cfg.ChipsY, cfg.ChipW, cfg.ChipH)
	} else {
		topo = topology.NewMesh(cfg.Width, cfg.Height)
	}
	events := make([]fault.Event, len(cfg.FaultSchedule))
	for i, tf := range cfg.FaultSchedule {
		f := tf.Fault
		events[i] = fault.Event{Cycle: tf.Cycle, Fault: fault.Fault{
			Node: f.Node, Component: fault.Component(f.Component),
			Module: fault.Module(f.Module % 2), VC: f.VC, Port: topology.Direction(f.Side),
		}}
	}
	flits := cfg.FlitsPerPacket
	if flits == 0 {
		flits = 4
	}
	return network.New(network.Config{
		Topo:       topo,
		D2DLatency: cfg.D2DLatency,
		D2DGap:     cfg.D2DGap,
		Algorithm:  alg[cfg.Algorithm],
		Build:      func(id int, e *router.RouteEngine) router.Router { return core.New(id, e) },
		Traffic: traffic.Config{
			Pattern:        traffic.Uniform,
			Rate:           cfg.InjectionRate,
			FlitsPerPacket: flits,
		},
		WarmupPackets:   cfg.WarmupPackets,
		MeasurePackets:  cfg.MeasurePackets,
		Schedule:        fault.NewSchedule(events),
		AuditEvery:      cfg.AuditEvery,
		MaxCycles:       cfg.MaxCycles,
		InactivityLimit: cfg.InactivityLimit,
		Seed:            cfg.Seed,
		Shards:          cfg.Shards,
		Workers:         cfg.Workers,
		Reliable:        cfg.Reliable,
	})
}

// sameOutcome reports the first field on which a network-level result
// differs from the roco result of the same run ("" when none does).
// Every compared field is copied verbatim by roco's summary.
func sameOutcome(n network.Result, r roco.Result) string {
	s := n.Summary
	pairs := []struct {
		name string
		a, b float64
	}{
		{"AvgLatency", s.AvgLatency, r.AvgLatency},
		{"P95Latency", s.P95Latency, r.P95Latency},
		{"P99Latency", s.P99Latency, r.P99Latency},
		{"MaxLatency", s.MaxLatency, r.MaxLatency},
		{"Completion", s.Completion, r.Completion},
		{"DeliveredPackets", float64(s.DeliveredPkts), float64(r.DeliveredPackets)},
		{"GeneratedPackets", float64(s.GeneratedPkts), float64(r.GeneratedPackets)},
		{"Throughput", s.ThroughputFNC, r.Throughput},
		{"SourceQueueDelay", s.AvgSourceQ, r.SourceQueueDelay},
		{"Contention", s.ContentionAll, r.Contention},
		{"Cycles", float64(s.Cycles), float64(r.Cycles)},
		{"DroppedFlits", float64(n.DroppedFlits), float64(r.DroppedFlits)},
		{"D2DFlits", float64(n.D2DLinkFlits), float64(r.D2DFlits)},
		{"Retransmissions", float64(n.Retransmissions), float64(r.Retransmissions)},
		{"GiveUps", float64(len(n.GiveUps)), float64(len(r.GiveUps))},
		{"ResidualLoss", float64(n.ResidualLoss), float64(r.ResidualLoss)},
	}
	for _, p := range pairs {
		if p.a != p.b && !(math.IsNaN(p.a) && math.IsNaN(p.b)) {
			return fmt.Sprintf("%s %v vs %v", p.name, p.a, p.b)
		}
	}
	if n.Saturated != r.Saturated {
		return "Saturated"
	}
	return ""
}

// probe is the representative simulation a workload's layer probes run
// on: its configuration, the cycle budget to stop at (0 runs to
// termination), the mid-run cycle snapshots are taken at, the window
// the shard comparison runs over, and the roco result of the same run
// the internal-network stepping must reproduce.
type probe struct {
	cfg         roco.Config
	budget      int64
	mid, window int64
	want        roco.Result
	newsims     int // NewSim samples
}

// runProbe measures the network, roco and snapshot layers on p and
// stores their per-layer metrics in m. Correctness checks (stepping
// identity, snapshot round trip, shard identity) count as attempts in o.
func runProbe(e *env, p probe, m map[string]float64, o *outcome) {
	root := e.tr.begin("probe", 0)
	defer e.tr.end(root)
	nodes := float64(nodeCount(p.cfg))

	// roco.NewSim.
	var ns []float64
	for i := 0; i < p.newsims; i++ {
		runtime.GC()
		id := e.tr.begin("roco.NewSim", root)
		t0 := time.Now()
		_ = roco.NewSim(p.cfg)
		ns = append(ns, seconds(time.Since(t0))*1e3)
		e.tr.end(id)
	}
	m["roco.newsim_ms"] = median(ns)

	// Network.Step, timed directly through internal/network.
	var steps []float64
	id := e.tr.begin("network.run", root)
	stepWhy := safely("network stepping", func() {
		n := internalNetwork(p.cfg)
		last := time.Now()
		res, _ := n.RunHooked(func() bool {
			now := time.Now()
			steps = append(steps, float64(now.Sub(last).Nanoseconds())/1e3)
			e.tr.add("network.Step", id, last, now)
			last = time.Now()
			return p.budget > 0 && n.Cycle() >= p.budget
		})
		if d := sameOutcome(res, p.want); d != "" {
			panic("result differs from the roco run: " + d)
		}
	})
	e.tr.end(id)
	o.tally.add(stepWhy)
	m["network.step_us_p50"] = median(steps)
	m["network.step_us_p90"] = quantile(steps, 0.9)
	o.note("%s", timing("network.step_us", "us", steps))

	// Snapshot encode and decode at mid-run.
	var snap []byte
	var enc, dec []float64
	snapWhy := safely("snapshot", func() {
		sim := roco.NewSim(p.cfg)
		if _, _, err := sim.RunCheckpointed(roco.CheckpointOptions{CycleBudget: p.mid}); err != nil {
			panic(err)
		}
		for i := 0; i < 5; i++ {
			var buf bytes.Buffer
			id := e.tr.begin("snapshot.encode", root)
			t0 := time.Now()
			if err := sim.Checkpoint(&buf); err != nil {
				panic(err)
			}
			enc = append(enc, seconds(time.Since(t0)))
			e.tr.end(id)
			snap = buf.Bytes()
		}
		for i := 0; i < 5; i++ {
			runtime.GC()
			id := e.tr.begin("snapshot.decode", root)
			t0 := time.Now()
			if _, err := roco.Resume(bytes.NewReader(snap), p.cfg); err != nil {
				panic(err)
			}
			dec = append(dec, seconds(time.Since(t0)))
			e.tr.end(id)
		}
	})
	o.tally.add(snapWhy)
	mb := float64(len(snap)) / 1e6
	m["snapshot.encode_mb_per_s"] = ratio(mb, median(enc))
	m["snapshot.decode_mb_per_s"] = ratio(mb, median(dec))
	m["snapshot.bytes_per_node"] = float64(len(snap)) / nodes

	// Shards=1 against Shards=nproc over one window, both resumed from
	// the mid-run snapshot; their results must be identical.
	one, many := p.cfg, p.cfg
	one.Shards, many.Shards = 1, e.workers
	var t1, tn []float64
	var ref string
	shardWhy := safely("shard window", func() {
		for i := 0; i < 3 && snap != nil; i++ {
			for _, c := range []roco.Config{one, many} {
				sim, err := roco.Resume(bytes.NewReader(snap), c)
				if err != nil {
					panic(err)
				}
				runtime.GC()
				id := e.tr.begin(fmt.Sprintf("shards%d.window", c.Shards), root)
				t0 := time.Now()
				r, _, err := sim.RunCheckpointed(roco.CheckpointOptions{CycleBudget: p.mid + p.window})
				d := seconds(time.Since(t0))
				e.tr.end(id)
				if err != nil {
					panic(err)
				}
				if c.Shards == 1 {
					t1 = append(t1, d)
				} else {
					tn = append(tn, d)
				}
				k := canonical(r)
				if ref == "" {
					ref = k
				} else if k != ref {
					panic(fmt.Sprintf("Shards=%d result differs from Shards=1", c.Shards))
				}
			}
		}
	})
	o.tally.add(shardWhy)
	m["network.shard_speedup"] = ratio(median(t1), median(tn))
	o.note("shard window: %d cycles from cycle %d, Shards=1 p50 %.4g s, Shards=%d p50 %.4g s",
		p.window, p.mid, median(t1), e.workers, median(tn))
}

// nodeCount is the node count of cfg's grid.
func nodeCount(cfg roco.Config) int {
	if cfg.ChipsX > 0 {
		return cfg.ChipsX * cfg.ChipW * cfg.ChipsY * cfg.ChipH
	}
	w, h := cfg.Width, cfg.Height
	if w == 0 {
		w = 8
	}
	if h == 0 {
		h = 8
	}
	return w * h
}
