// Chiplet-topology benchmarks: per-cycle cost of a 16x16-node machine
// built as one flat die versus a 2x2 grid of 8x8-node chiplets, whose
// boundary links are multi-cycle D2D pipes (parallel interposer class
// and serialized off-package class). The pipes ride the same Step loop
// as everything else, so this measures what the seams cost the kernel —
// scripts/bench.sh chiplet distils the overhead into BENCH_chiplet.json.
package bench

import (
	"fmt"
	"sort"
	"testing"

	"github.com/rocosim/roco/internal/core"
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/network"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/stats"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// seams pits the flat 16x16 mesh against the same node grid re-tiled as
// 2x2 chiplets of 8x8, under each boundary-link class.
var seams = []struct {
	name     string
	topo     topology.Topology
	lat, gap int
}{
	{"flat", topology.NewMesh(16, 16), 0, 0},
	{"parallel", topology.NewMultiChipMesh(2, 2, 8, 8), 2, 1},
	{"serial", topology.NewMultiChipMesh(2, 2, 8, 8), 4, 4},
}

// BenchmarkChiplet measures one simulated cycle (Network.Step) per
// iteration on the gated kernel with the RoCo router. Benchmark names
// read seam/load. The serial/faulted row is the low-load serial machine
// after the warm-up installed critical Poisson faults and one whole D2D
// interface fault, with the Reliable protocol on and XY-YX routing (so
// retransmissions have a second path): the fault-recovery cost of a
// degraded machine, as the chiplet-service workload runs it.
func BenchmarkChiplet(b *testing.B) {
	for _, s := range seams {
		for _, l := range loads[:2] { // low, mid: the D2D serializers saturate first
			b.Run(fmt.Sprintf("%s/%s", s.name, l.name), func(b *testing.B) {
				benchSteps(b, chipletConfig(s.topo, s.lat, s.gap, l.rate))
			})
		}
	}
	b.Run("serial/faulted", func(b *testing.B) {
		s := seams[2]
		cfg := chipletConfig(s.topo, s.lat, s.gap, loads[0].rate)
		cfg.Algorithm = routing.XYYX
		cfg.Reliable = true
		poisson := fault.PoissonSchedule(fault.Critical, 150, warmSteps-100, s.topo.Nodes(), core.NumVCs, stats.NewRNG(1))
		events := append(poisson.Events(), fault.Event{Cycle: warmSteps / 2,
			Fault: fault.Fault{Node: 0, Component: fault.D2DIf, Port: topology.East}})
		sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
		cfg.Schedule = fault.NewSchedule(events)
		benchSteps(b, cfg)
	})
}

// chipletConfig is a RoCo XY run on topo that never stops generating.
func chipletConfig(topo topology.Topology, lat, gap int, rate float64) network.Config {
	return network.Config{
		Topo:      topo,
		Algorithm: routing.XY,
		Build: func(id int, e *router.RouteEngine) router.Router {
			return core.New(id, e)
		},
		Traffic:        traffic.Config{Pattern: traffic.Uniform, Rate: rate, FlitsPerPacket: 4},
		MeasurePackets: 1 << 40,
		Seed:           1,
		D2DLatency:     lat,
		D2DGap:         gap,
	}
}

// benchSteps warms cfg's network up and times one Step per iteration.
func benchSteps(b *testing.B, cfg network.Config) {
	n := network.New(cfg)
	for i := 0; i < warmSteps; i++ {
		n.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}
