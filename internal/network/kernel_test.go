package network

import (
	"reflect"
	"testing"

	"github.com/rocosim/roco/internal/core"
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/stats"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// kernelConfig is a mid-load 8x8 run, small enough to finish quickly but
// busy enough that routers sleep and wake many times per run.
func kernelConfig(build func(int, *router.RouteEngine) router.Router, seed uint64) Config {
	return Config{
		Topo:            topology.NewMesh(8, 8),
		Algorithm:       routing.XY,
		Build:           build,
		Traffic:         traffic.Config{Pattern: traffic.Uniform, Rate: 0.15, FlitsPerPacket: 4},
		WarmupPackets:   300,
		MeasurePackets:  1500,
		InactivityLimit: 1000,
		MaxCycles:       400_000,
		Seed:            seed,
		AuditEvery:      64,
	}
}

// kernelBuilders lists every router kind for the kernel matrices.
var kernelBuilders = []struct {
	name  string
	build func(int, *router.RouteEngine) router.Router
}{
	{"generic", genericBuilder},
	{"pathsensitive", psBuilder},
	{"roco", rocoBuilder},
	{"pdr", pdrBuilder},
}

// assertGatedMatchesReference runs cfg under the reference kernel and
// under the gated kernel and fails unless the Results are bit-identical.
// It returns the reference Result for vacuity checks.
func assertGatedMatchesReference(t *testing.T, cfg Config) Result {
	t.Helper()
	ref := cfg
	ref.ReferenceKernel = true
	want := New(ref).Run()
	got := New(cfg).Run()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: gated kernel diverged from reference\n gated: %+v\n   ref: %+v",
			cfg.Seed, got.Summary, want.Summary)
	}
	return want
}

// kernelMatrix runs the gated-vs-reference check for every router kind
// (pdr only when noPDR is false) and seed, with mutate applied to each
// mid-load config.
func kernelMatrix(t *testing.T, seeds []uint64, noPDR bool, mutate func(*Config)) {
	for _, b := range kernelBuilders {
		if noPDR && b.name == "pdr" {
			continue
		}
		b := b
		for _, seed := range seeds {
			seed := seed
			t.Run(b.name, func(t *testing.T) {
				t.Parallel()
				cfg := kernelConfig(b.build, seed)
				mutate(&cfg)
				want := assertGatedMatchesReference(t, cfg)
				if cfg.Schedule.Len() > 0 && len(want.FaultLog) == 0 {
					t.Fatalf("seed %d: fault schedule installed no faults; test is vacuous", seed)
				}
			})
		}
	}
}

// wideMesh is a 12x10 mesh: 120 routers span two bitset words, the
// second one partial, so the gated kernel's word-wise sweeps cross a
// word boundary and mask a ragged tail that an 8x8 mesh (exactly one
// word) never exercises.
func wideMesh(cfg *Config) { cfg.Topo = topology.NewMesh(12, 10) }

// faultSchedule is a Poisson runtime-fault schedule over the nodes of a
// kernelConfig mesh, striking mid-run. The mean gap and horizon shrink
// with the node count because a bigger mesh injects the fixed packet
// budget in fewer cycles.
func faultSchedule(seed uint64, nodes int) fault.Schedule {
	mean := 120 * 64 / float64(nodes)
	return fault.PoissonSchedule(fault.NonCritical, mean, int64(5*mean), nodes, core.NumVCs, stats.NewRNG(seed^0xfa17))
}

// TestGatedKernelMatchesReference is the correctness contract of the
// activity-gated kernel: for every router kind and seed, the gated run and
// the tick-everything reference run must produce bit-identical Results —
// same latency histogram, same per-router activity counters, same fault
// log. Any divergence means a router was left asleep through a cycle that
// would have done work (under-waking), the hot-state mirror drifted from
// the routers' own state (a missed syncHot path), or SkipCycles
// mis-replayed an idle tick.
func TestGatedKernelMatchesReference(t *testing.T) {
	kernelMatrix(t, []uint64{1, 42, 99}, false, func(*Config) {})
}

// TestGatedKernelMatchesReferenceUnderFaults repeats the bit-identity
// check with a Poisson runtime-fault schedule striking mid-run, so the
// settle-before-ApplyFault path and the fault wake rules are on the hook
// too.
func TestGatedKernelMatchesReferenceUnderFaults(t *testing.T) {
	for _, seed := range []uint64{7, 1234} {
		seed := seed
		kernelMatrix(t, []uint64{seed}, true, func(c *Config) { c.Schedule = faultSchedule(seed, 64) })
	}
}

// TestSoAKernelMatchesReference repeats the gated-vs-reference contract
// on the two-word wideMesh, where the packed (struct-of-arrays) state —
// bitset active sets, color masks, the hot-state mirror — is laid out
// across a word boundary with a partial last word.
func TestSoAKernelMatchesReference(t *testing.T) {
	kernelMatrix(t, []uint64{1, 42, 99}, false, wideMesh)
}

// TestSoAKernelMatchesReferenceAlgorithms covers the remaining routing
// disciplines on wideMesh: the adaptive cost scan and the XY-YX mode flip
// read neighbor state mid-tick, so they are the paths most likely to
// expose an order divergence in the bitset sweep.
func TestSoAKernelMatchesReferenceAlgorithms(t *testing.T) {
	for _, alg := range []routing.Algorithm{routing.XYYX, routing.Adaptive} {
		alg := alg
		for _, b := range kernelBuilders {
			if b.name != "generic" && b.name != "roco" {
				continue
			}
			b := b
			t.Run(b.name+"/"+alg.String(), func(t *testing.T) {
				t.Parallel()
				cfg := kernelConfig(b.build, 5)
				wideMesh(&cfg)
				cfg.Algorithm = alg
				assertGatedMatchesReference(t, cfg)
			})
		}
	}
}

// TestSoAKernelMatchesReferenceUnderFaults repeats the wideMesh check
// with a Poisson runtime-fault schedule: fault wakes, condemned-channel
// drains, and recovery scans all happen while routers sleep and wake
// through the bitsets.
func TestSoAKernelMatchesReferenceUnderFaults(t *testing.T) {
	for _, seed := range []uint64{7, 1234} {
		seed := seed
		kernelMatrix(t, []uint64{seed}, true, func(c *Config) {
			wideMesh(c)
			c.Schedule = faultSchedule(seed, 120)
		})
	}
}

// TestSoAKernelMatchesReferenceReliable closes the wideMesh matrix: the
// retransmission protocol's wake path (wakeNext on launch) and the
// duplicate-suppressing delivery accounting.
func TestSoAKernelMatchesReferenceReliable(t *testing.T) {
	const seed = 21
	cfg := kernelConfig(rocoBuilder, seed)
	wideMesh(&cfg)
	cfg.Schedule = fault.PoissonSchedule(fault.NonCritical, 100, 500, 120, core.NumVCs, stats.NewRNG(seed^0xfa17))
	cfg.Reliable = true
	if want := assertGatedMatchesReference(t, cfg); len(want.FaultLog) == 0 {
		t.Fatal("fault schedule installed no faults; test is vacuous")
	}
}

// TestSoAKernelSharded pins that the bitset sweep composes with the
// parallel color-phased schedule on wideMesh, where shard ranges start
// and end mid-word: Shards=4/Workers=2 must match the sequential gated
// run (and, transitively, the reference kernel).
func TestSoAKernelSharded(t *testing.T) {
	seq := kernelConfig(rocoBuilder, 11)
	wideMesh(&seq)
	par := seq
	par.Shards = 4
	par.Workers = 2

	want := New(seq).Run()
	got := New(par).Run()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded gated kernel diverged from sequential\n sharded: %+v\n     seq: %+v",
			got.Summary, want.Summary)
	}
}

// TestSoAHotStateMirrorsRouters is the transition-invariant probe behind
// the packed state: at every cycle boundary of a faulty mid-load run, the
// hot-state mirror must agree with the routers' own answers —
// RouterBusy(id) == !Idle(id) (dormant→active on injection or fault
// strike, active→dormant on drain, with no missed edge in either
// direction) and TotalBuffered equal to the sum of the routers' channel
// sweeps.
func TestSoAHotStateMirrorsRouters(t *testing.T) {
	cfg := kernelConfig(rocoBuilder, 13)
	cfg.Schedule = fault.NewSchedule([]fault.Event{
		{Cycle: 120, Fault: fault.Fault{Node: 27, Component: fault.Crossbar, Module: fault.RowModule}},
		{Cycle: 240, Fault: fault.Fault{Node: 36, Component: fault.Buffer, Module: fault.ColumnModule, VC: 1}},
	})
	n := New(cfg)
	hs := n.HotState()
	if hs == nil {
		t.Fatal("gated network has no hot state")
	}
	nodes := cfg.Topo.Nodes()
	sawBusy, sawDrained := false, false
	for step := 0; step < 600; step++ {
		n.Step()
		var buffered int64
		for id := 0; id < nodes; id++ {
			busy := hs.RouterBusy(id)
			if idle := n.Router(id).Idle(); busy == idle {
				t.Fatalf("cycle %d: hot state says router %d busy=%v but Idle()=%v", n.Cycle(), id, busy, idle)
			}
			buffered += int64(n.Router(id).BufferedFlits())
			if busy {
				sawBusy = true
			} else if sawBusy {
				sawDrained = true
			}
		}
		if got := hs.TotalBuffered(); got != buffered {
			t.Fatalf("cycle %d: hot occupancy totals %d flits, routers say %d", n.Cycle(), got, buffered)
		}
	}
	if !sawBusy || !sawDrained {
		t.Fatalf("probe saw no dormant→active→dormant transition (busy=%v drained=%v); workload too idle", sawBusy, sawDrained)
	}
	if len(n.faultLog) != 2 {
		t.Fatalf("probe installed %d faults, want 2", len(n.faultLog))
	}
}

// TestStepZeroAllocsWhenIdle pins the clock-gating payoff: once a network
// has nothing to generate, inject, tick, or advance, Step must not touch
// the heap at all.
func TestStepZeroAllocsWhenIdle(t *testing.T) {
	cfg := smokeConfig(routing.XY, traffic.Uniform, 0, 5)
	cfg.Traffic.Rate = 0
	n := New(cfg)
	for i := 0; i < 8; i++ {
		n.Step()
	}
	allocs := testing.AllocsPerRun(200, func() { n.Step() })
	if allocs != 0 {
		t.Fatalf("idle Step allocates %v objects per cycle, want 0", allocs)
	}
}

// TestStepBoundedAllocsUnderLoad asserts the steady-state Step of a
// loaded 8x8 generic network is strictly allocation-free once warm:
// flits come from the pool, arbitration scratch lives on the router
// structs, the worklists are reused, and every lazy channel buffer the
// routers touch was allocated during warm-up.
func TestStepBoundedAllocsUnderLoad(t *testing.T) {
	cfg := kernelConfig(genericBuilder, 3)
	cfg.MeasurePackets = 1_000_000 // never stop generating during the probe
	n := New(cfg)
	for i := 0; i < 2000; i++ { // warm pools, worklists, and lazy VC buffers
		n.Step()
	}
	allocs := testing.AllocsPerRun(500, func() { n.Step() })
	if allocs != 0 {
		t.Fatalf("loaded Step allocates %v objects per cycle, want 0", allocs)
	}
}

// TestSoAStepZeroAllocsWhenIdle pins the idle cost of the bitset sweeps
// on a sharded wideMesh: empty active sets swept across mid-word shard
// ranges must not touch the heap.
func TestSoAStepZeroAllocsWhenIdle(t *testing.T) {
	cfg := smokeConfig(routing.XY, traffic.Uniform, 0, 5)
	wideMesh(&cfg)
	cfg.Traffic.Rate = 0
	cfg.Shards = 3
	cfg.Workers = 1
	n := New(cfg)
	for i := 0; i < 8; i++ {
		n.Step()
	}
	allocs := testing.AllocsPerRun(200, func() { n.Step() })
	if allocs != 0 {
		t.Fatalf("idle sharded Step allocates %v objects per cycle, want 0", allocs)
	}
}

// TestSoAStepZeroAllocsUnderLoad asserts the loaded steady state on
// wideMesh is strictly allocation-free once warm: every lazy channel
// buffer a router touches was allocated during warm-up (each exactly
// once), flits recycle through the pools, and the hot-state updates are
// pure array writes.
func TestSoAStepZeroAllocsUnderLoad(t *testing.T) {
	cfg := kernelConfig(rocoBuilder, 3)
	wideMesh(&cfg)
	cfg.MeasurePackets = 1_000_000 // never stop generating during the probe
	n := New(cfg)
	for i := 0; i < 2000; i++ { // warm pools, worklists, and lazy VC buffers
		n.Step()
	}
	allocs := testing.AllocsPerRun(500, func() { n.Step() })
	if allocs != 0 {
		t.Fatalf("loaded Step allocates %v objects per cycle, want 0", allocs)
	}
}
