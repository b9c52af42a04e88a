package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/rocosim/roco"
)

// The paper-fig8 workload is the Figure 8 sweep as rocobench users run
// it: roco.Figure8 with nproc workers, which measures uniform traffic on
// the paper's 8x8 mesh for every router kind at every rate of
// roco.LatencyRates, one panel per routing algorithm, at a scaled run
// length. Each panel hands its 24 runs to the experiment driver's pool,
// and the next panel starts when the slowest run of the last one ends.
const (
	fig8Warmup  = 500
	fig8Measure = 8000
)

func fig8Options(seed uint64, workers int) roco.Options {
	return roco.Options{
		Width: 8, Height: 8,
		Warmup: fig8Warmup, Measure: fig8Measure,
		Seed:    seed,
		Workers: workers,
	}
}

// fig8Configs returns the configurations roco.Figure8 runs, in the order
// of its panels: algorithm, then router kind, then rate.
func fig8Configs(seed uint64, telemetry int64) []roco.Config {
	var cfgs []roco.Config
	for _, alg := range roco.Algorithms {
		for _, k := range roco.RouterKinds {
			for _, rate := range roco.LatencyRates {
				cfgs = append(cfgs, roco.Config{
					Width: 8, Height: 8,
					Router: k, Algorithm: alg, Traffic: roco.Uniform,
					InjectionRate:  rate,
					WarmupPackets:  fig8Warmup,
					MeasurePackets: fig8Measure,
					MaxCycles:      40 * (fig8Warmup + fig8Measure),
					Seed:           seed,
					TelemetryEvery: telemetry,
				})
			}
		}
	}
	return cfgs
}

func fig8Label(c roco.Config) string {
	return fmt.Sprintf("%s %s %.2f", c.Router, c.Algorithm, c.InjectionRate)
}

// fig8Find returns the index of the (router, algorithm, rate) point.
func fig8Find(cfgs []roco.Config, k roco.RouterKind, alg roco.Algorithm, rate float64) int {
	for i, c := range cfgs {
		if c.Router == k && c.Algorithm == alg && c.InjectionRate == rate {
			return i
		}
	}
	panic("perfbench: fig8 point missing")
}

// fig8Point renders what a sweep reports of one run.
func fig8Point(latency float64, saturated bool) string {
	return fmt.Sprintf("%v %v", latency, saturated)
}

// fig8Points flattens the panels into one point per run, in fig8Configs
// order.
func fig8Points(sweeps []roco.LatencySweep) []string {
	var out []string
	for _, s := range sweeps {
		for _, k := range roco.RouterKinds {
			for j := range s.Rates {
				out = append(out, fig8Point(s.Latency[k][j], s.Saturated[k][j]))
			}
		}
	}
	return out
}

func runFig8(e *env) *outcome {
	o := &outcome{metrics: map[string]float64{}}
	cfgs := fig8Configs(e.seed, 0)
	checkCfgs := cfgs
	if e.traced {
		checkCfgs = fig8Configs(e.seed, telemetryEvery)
	}
	n := len(cfgs)
	nodes := float64(nodeCount(cfgs[0]))
	opts := fig8Options(e.seed, e.workers)

	// Outside the timed window, every configuration runs on its own
	// through roco.Run, once before the window and once after it. The
	// first pass gives the sweep's simulated work (cycles and delivered
	// packets, which a sweep does not return), the digest, and the point
	// every repetition's sweep must reproduce; the second must repeat the
	// first. job_s_p50 is the median over both passes, so it is timed at
	// both ends of the run rather than in its first seconds alone.
	var runDurs []float64
	serialPass := func(keys []string) []roco.Result {
		checkID := e.tr.begin("fig8.check", 0)
		defer e.tr.end(checkID)
		results := make([]roco.Result, n)
		for i, c := range checkCfgs {
			id := e.tr.begin("roco.Run", checkID)
			t0 := time.Now()
			why := safely(fig8Label(c), func() { results[i] = roco.Run(c) })
			runDurs = append(runDurs, seconds(time.Since(t0)))
			e.tr.end(id)
			if why == "" {
				want := ""
				if keys != nil {
					want = keys[i]
				}
				why = runChecks(fig8Label(c), results[i], want)
			}
			o.tally.add(why)
		}
		return results
	}
	results := serialPass(nil)
	want := make([]string, n)
	keys := make([]string, n)
	var cycles, delivered int64
	for i, r := range results {
		want[i], keys[i] = fig8Point(r.AvgLatency, r.Saturated), canonical(r)
		cycles += r.Cycles
		delivered += r.DeliveredPackets
	}
	o.digest = digestOf(keys)
	if o.tally.failed > 0 {
		// roco.Figure8 would run the failing configuration on a pool
		// goroutine, where a panic cannot be recovered.
		o.note("sweep not timed: a configuration failed on its own")
		unmeasured(o.metrics)
		return o
	}

	// The set-up a sweep pays: every roco.NewSim it makes.
	var setups []float64
	newSims := func() time.Duration {
		t0 := time.Now()
		sims := make([]*roco.Sim, n)
		for i, c := range cfgs {
			sims[i] = roco.NewSim(c)
		}
		d := time.Since(t0)
		runtime.KeepAlive(sims)
		return d
	}
	sampleSetup(&setups, setupFirst, newSims)

	var walls, ncps, pps, jps, busy []float64
	var runSum float64
	for _, d := range runDurs {
		runSum += d
	}
	rep := func(traced bool) time.Duration {
		tr := (*tracer)(nil)
		if traced {
			tr = e.tr
		}
		id := tr.begin("roco.Figure8", 0)
		t0 := time.Now()
		var sweeps []roco.LatencySweep
		why := safely("roco.Figure8", func() { sweeps = roco.Figure8(opts) })
		wall := time.Since(t0)
		tr.end(id)

		got := fig8Points(sweeps)
		for i := range cfgs {
			w := why
			if w == "" && (i >= len(got) || got[i] != want[i]) {
				w = fmt.Sprintf("%s: sweep point differs from its own roco.Run", fig8Label(cfgs[i]))
			}
			o.tally.add(w)
		}
		if traced {
			busy = append(busy, runSum/(float64(e.workers)*seconds(wall)))
		} else {
			walls = append(walls, seconds(wall))
			ncps = append(ncps, float64(cycles)*nodes/seconds(wall))
			pps = append(pps, float64(delivered)/seconds(wall))
			jps = append(jps, float64(n)/seconds(wall))
		}
		sampleSetup(&setups, setupEvery, newSims)
		return wall
	}
	plain, withTrace := repeat(e.budget, e.traced, rep)
	serialPass(keys)

	// The lowest-rate RoCo XY point must match a reference-kernel rerun.
	ri := fig8Find(cfgs, roco.RoCo, roco.XY, roco.LatencyRates[0])
	refCfg := cfgs[ri]
	refCfg.ReferenceKernel = true
	var ref roco.Result
	why := safely("reference rerun", func() { ref = roco.Run(refCfg) })
	if why == "" && canonical(ref) != keys[ri] {
		why = "reference-kernel rerun of " + fig8Label(refCfg) + " differs"
	}
	o.tally.add(why)

	// The live heap a pool worker's simulation holds: each run of the
	// first panel, alone and halfway through its cycles, per node. The
	// median over the panel is steadier across seeds than any one
	// point, since saturated runs keep growing their source queues.
	var heaps []float64
	o.tally.add(safely("heap", func() {
		for i := 0; i < len(roco.RouterKinds)*len(roco.LatencyRates); i++ {
			base := liveHeap()
			sim := roco.NewSim(cfgs[i])
			runTo(sim, results[i].Cycles/2)
			heaps = append(heaps, float64(liveHeap()-base)/nodes)
			runtime.KeepAlive(sim)
		}
	}))

	m := o.metrics
	m["setup_s"] = median(setups)
	m["wall_s"] = median(walls)
	m["node_cycles_per_s"] = median(ncps)
	m["packets_per_s"] = median(pps)
	m["heap_bytes_per_node"] = median(heaps)
	m["jobs_per_s"] = median(jps)
	m["job_s_p50"] = median(runDurs)
	o.note("sweep: roco.Figure8 over %d runs of %d+%d packets on %d workers, %d untraced repetitions", n, fig8Warmup, fig8Measure, e.workers, len(plain))
	o.note("%s", timing("job_s (one roco.Run, outside the sweep)", "s", runDurs))
	o.note("%s", timing("setup_s", "s", setups))
	o.note("wall_s per repetition: %s", fmtList(walls))

	if e.traced {
		m["arbiter.grant_ns"] = arbiterGrantNS(e.seed, o)
		var counts routerCounts
		var pc protocolCounts
		for _, r := range results {
			counts.addTotals(r.Telemetry)
			pc.add(r)
		}
		counts.put(m)
		pc.put(m)
		mid := fig8Find(cfgs, roco.RoCo, roco.XY, 0.25)
		runProbe(e, probe{
			cfg: cfgs[mid], want: results[mid], newsims: 20,
			mid: results[mid].Cycles / 2, window: results[mid].Cycles / 4,
		}, m, o)
		m["roco.run_s_p50"] = median(runDurs)
		m["roco.pool_busy_ratio"] = median(busy)
		noCampaign(m)
		m["trace.overhead_ratio"] = median(withTrace) / median(plain)
	}
	return o
}

// unmeasured marks every metric as not measured; the run reports them
// as 0 next to the failures that explain why.
func unmeasured(m map[string]float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.name] = math.NaN()
		}
	}
}
