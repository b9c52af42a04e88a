package bench

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/rocosim/roco/internal/core"
	"github.com/rocosim/roco/internal/network"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/traffic"
)

// layoutPoints are the big-mesh data-layout measurement points: the
// 64x64 mesh at low and saturation load and the 256x256 mesh at low load
// (the memory-diet target: per-node footprint decides whether the mesh
// fits in RAM at all). Loads scale with the bisection
// bound, as in the shard benchmarks.
var layoutPoints = []struct {
	name          string
	width, height int
	load          string
	rate          float64
	warm          int // steady-state warm-up steps before measuring
}{
	{"64x64", 64, 64, "low", 0.2 * 4.0 / 64, 400},
	{"64x64", 64, 64, "sat", 1.6 * 4.0 / 64, 400},
	{"256x256", 256, 256, "low", 0.2 * 4.0 / 256, 100},
}

func layoutNetwork(w, h int, rate float64) *network.Network {
	return network.New(network.Config{
		Topo:      topology.NewMesh(w, h),
		Algorithm: routing.XY,
		Build:     func(id int, e *router.RouteEngine) router.Router { return core.New(id, e) },
		Traffic:   traffic.Config{Pattern: traffic.Uniform, Rate: rate, FlitsPerPacket: 4},
		// Generation must never stop mid-benchmark: the kernel is measured
		// at steady state, not while draining.
		MeasurePackets: 1 << 40,
		Seed:           1,
	})
}

// liveHeap returns the live heap size after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// BenchmarkLayout measures one simulated cycle (Network.Step) of the RoCo
// router on big meshes under the gated kernel, and reports the
// steady-state live-heap footprint per node alongside ns/op and
// allocs/op. Benchmark names read mesh/load; scripts/bench.sh distils
// them into BENCH_layout.json.
func BenchmarkLayout(b *testing.B) {
	for _, p := range layoutPoints {
		b.Run(fmt.Sprintf("%s/%s", p.name, p.load), func(b *testing.B) {
			before := liveHeap()
			n := layoutNetwork(p.width, p.height, p.rate)
			for i := 0; i < p.warm; i++ {
				n.Step()
			}
			// Live heap with the warmed network retained, minus the
			// baseline before construction: the footprint of the mesh plus
			// its steady-state traffic state. Reported after the timed
			// loop — ResetTimer discards earlier metrics.
			after := liveHeap()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
			runtime.KeepAlive(n)
			if after > before {
				b.ReportMetric(float64(after-before)/float64(p.width*p.height), "bytes/node")
			}
		})
	}
}
