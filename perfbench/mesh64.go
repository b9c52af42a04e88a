package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"github.com/rocosim/roco"
)

// The mesh64-sat workload is one 64x64 RoCo XY mesh under uniform
// traffic at 1.6x the bisection bound (4/W flits/node/cycle), run to a
// fixed cycle horizon. Generation never stops, so after the fill every
// router is busy every cycle: router Tick and allocation dominate, and
// activity gating skips nothing.
//
// The timed runs step the mesh with one shard. Sharded over nproc cores
// the run waits at a barrier every color phase, and on a shared 2-vCPU
// host its run-to-run spread was four times the sequential one (IQR/median
// 0.23 against 0.05 over eight interleaved pairs), wider than any bound a
// regression check can use. Sharding is still exercised: the resume check
// continues on nproc shards and must match, and the traced run measures
// Shards=1 against Shards=nproc from one snapshot.
const (
	meshSide    = 64
	meshHorizon = 300 // cycles per run
)

func meshConfig(seed uint64, shards int, telemetry int64) roco.Config {
	return roco.Config{
		Width: meshSide, Height: meshSide,
		Router: roco.RoCo, Algorithm: roco.XY, Traffic: roco.Uniform,
		InjectionRate:  1.6 * 4 / meshSide,
		WarmupPackets:  2000,
		MeasurePackets: 1 << 40,
		Seed:           seed,
		Shards:         shards,
		TelemetryEvery: telemetry,
	}
}

// runTo steps sim to the absolute cycle budget and checks that it
// stopped there.
func runTo(sim *roco.Sim, budget int64) roco.Result {
	r, interrupted, err := sim.RunCheckpointed(roco.CheckpointOptions{CycleBudget: budget})
	if err != nil {
		panic(err)
	}
	if !interrupted || sim.Cycle() != budget {
		panic(fmt.Sprintf("run stopped at cycle %d, not at the budget %d", sim.Cycle(), budget))
	}
	return r
}

func runMesh64(e *env) *outcome {
	o := &outcome{metrics: map[string]float64{}}
	plainCfg := meshConfig(e.seed, 1, 0)
	nodes := float64(nodeCount(plainCfg))

	var setups []float64
	newSim := func() time.Duration {
		t0 := time.Now()
		sim := roco.NewSim(plainCfg)
		d := time.Since(t0)
		runtime.KeepAlive(sim)
		return d
	}
	sampleSetup(&setups, setupFirst, newSim)

	var (
		first                 string
		firstResult           roco.Result
		walls, ncps, pps, jps []float64
		runDurs, busy         []float64
		counts                routerCounts
		countedTelemetry      bool
	)
	rep := func(traced bool) time.Duration {
		cfg, tr := plainCfg, (*tracer)(nil)
		if traced {
			cfg, tr = meshConfig(e.seed, 1, telemetryEvery), e.tr
		}
		root := tr.begin("mesh64.run", 0)
		t0 := time.Now()
		var sim *roco.Sim
		var res roco.Result
		id := tr.begin("roco.NewSim", root)
		why := safely("mesh64 setup", func() { sim = roco.NewSim(cfg) })
		tr.end(id)
		runStart := time.Now()
		id = tr.begin("roco.Sim.RunCheckpointed", root)
		if why == "" {
			why = safely("mesh64 run", func() { res = runTo(sim, meshHorizon) })
		}
		tr.end(id)
		run := time.Since(runStart)
		wall := time.Since(t0)
		tr.end(root)

		if why == "" {
			why = runChecks("mesh64", res, first)
		}
		o.tally.add(why)
		if first == "" {
			first, firstResult = canonical(res), res
		}
		if traced {
			if !countedTelemetry {
				counts.addTotals(res.Telemetry)
				countedTelemetry = true
			}
			busy = append(busy, seconds(run)/seconds(wall))
		} else {
			walls = append(walls, seconds(wall))
			ncps = append(ncps, float64(meshHorizon)*nodes/seconds(run))
			pps = append(pps, float64(res.DeliveredPackets)/seconds(wall))
			jps = append(jps, 1/seconds(wall))
			runDurs = append(runDurs, seconds(run))
		}
		sampleSetup(&setups, setupEvery, newSim)
		return wall
	}
	plain, withTrace := repeat(e.budget, e.traced, rep)

	// A run checkpointed at mid-horizon and resumed through roco.Resume,
	// on nproc shards, must finish identical to the uninterrupted
	// sequential runs. The live heap is read at the checkpoint, once the
	// mesh has filled.
	var heap float64
	why := safely("mesh64 resume", func() {
		base := liveHeap()
		sim := roco.NewSim(plainCfg)
		runTo(sim, meshHorizon/2)
		heap = float64(liveHeap()-base) / nodes
		var buf bytes.Buffer
		if err := sim.Checkpoint(&buf); err != nil {
			panic(err)
		}
		sim = nil
		resumed, err := roco.Resume(&buf, meshConfig(e.seed, e.workers, 0))
		if err != nil {
			panic(err)
		}
		if canonical(runTo(resumed, meshHorizon)) != first {
			panic("resumed run differs from the uninterrupted run")
		}
	})
	o.tally.add(why)

	o.digest = digestOf([]string{first})
	m := o.metrics
	m["setup_s"] = median(setups)
	m["wall_s"] = median(walls)
	m["node_cycles_per_s"] = median(ncps)
	m["packets_per_s"] = median(pps)
	m["heap_bytes_per_node"] = heap
	m["jobs_per_s"] = median(jps)
	m["job_s_p50"] = median(runDurs)
	o.note("mesh: %dx%d, %d cycles per run on one shard, %d untraced repetitions", meshSide, meshSide, meshHorizon, len(plain))
	o.note("%s", timing("job_s (one horizon run)", "s", runDurs))
	o.note("%s", timing("setup_s", "s", setups))
	o.note("wall_s per repetition: %s", fmtList(walls))

	if e.traced {
		m["arbiter.grant_ns"] = arbiterGrantNS(e.seed, o)
		counts.put(m)
		runProbe(e, probe{
			cfg: plainCfg, want: firstResult, newsims: 5,
			budget: meshHorizon, mid: meshHorizon / 2, window: 50,
		}, m, o)
		m["roco.run_s_p50"] = median(e.tr.durations("roco.Sim.RunCheckpointed"))
		m["roco.pool_busy_ratio"] = median(busy)
		noCampaign(m)
		var pc protocolCounts
		pc.add(firstResult)
		pc.put(m)
		m["trace.overhead_ratio"] = median(withTrace) / median(plain)
	}
	return o
}
