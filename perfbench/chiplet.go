package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/rocosim/roco"
	"github.com/rocosim/roco/internal/campaign"
	"github.com/rocosim/roco/internal/stats"
)

// The chiplet-service workload is a burst of jobs submitted at once to
// an in-process campaign.Manager with nproc workers and a small
// checkpoint cadence. Every job is a 16x16 mesh built as 2x2 chiplets of
// 8x8 joined by serial die-to-die links, routed XY-YX so that packets
// lost to a fault have a second path to be retransmitted over, with
// reliable delivery on, a seeded Poisson schedule of critical runtime
// faults and one whole die-to-die interface fault mid-run; every job has
// its own seed. The load is low,
// so the cost is in gating idle routers, the delivery protocol, the
// die-to-die pipes, snapshot encoding with fsync'd atomic writes, and
// the job queue.
const (
	chipJobs        = 8
	chipRate        = 0.05 // flits/node/cycle
	chipWarmup      = 500
	chipMeasure     = 4000
	chipCheckpoint  = 1024 // cycles between snapshots
	chipFaultMTTF   = 1000 // mean cycles between scheduled faults
	chipSide        = 16
	chipShedBackoff = 10 * time.Millisecond
	chipBatchLimit  = 60 * time.Second
)

// chipConfigs derives one configuration per job from the workload seed.
func chipConfigs(seed uint64, telemetry int64) []roco.Config {
	rng := stats.NewRNG(seed)
	// Generation lasts about (warm-up + measure) / packets-per-cycle
	// cycles; the scheduled faults fall inside it and the interface dies
	// halfway.
	pktsPerCycle := chipRate * float64(chipSide*chipSide) / 4
	horizon := int64(float64(chipWarmup+chipMeasure) / pktsPerCycle)
	cfgs := make([]roco.Config, chipJobs)
	for i := range cfgs {
		jobSeed := rng.Uint64()
		sched := roco.PoissonFaultSchedule(roco.CriticalFaults, chipFaultMTTF, horizon, chipSide, chipSide, jobSeed)
		side := roco.SideEast
		if i%2 == 1 {
			side = roco.SideNorth
		}
		sched = append(sched, roco.TimedFault{Cycle: horizon / 2,
			Fault: roco.Fault{Node: 0, Component: roco.D2DInterface, Side: side}})
		sort.SliceStable(sched, func(a, b int) bool { return sched[a].Cycle < sched[b].Cycle })
		cfgs[i] = roco.Config{
			ChipsX: 2, ChipsY: 2, ChipW: chipSide / 2, ChipH: chipSide / 2,
			D2DClass: roco.D2DSerial, D2DLatency: 4, D2DGap: 4,
			Router: roco.RoCo, Algorithm: roco.XYYX, Traffic: roco.Uniform,
			InjectionRate:  chipRate,
			WarmupPackets:  chipWarmup,
			MeasurePackets: chipMeasure,
			Seed:           jobSeed,
			FaultSchedule:  sched,
			AuditEvery:     64,
			Reliable:       true,
			TelemetryEvery: telemetry,
		}
	}
	return cfgs
}

// jobTimes are one job's host-time observations: submitted, first seen
// running, and first seen terminal.
type jobTimes struct {
	id                  string
	submit, start, done time.Time
}

// batch is one repetition's outcome.
type batch struct {
	setup, wall time.Duration
	jobs        []jobTimes
	results     [][]byte // result.json bytes per job
	whys        []string
	checkpoints int
	retries     int
	shed        int
}

// openAndSubmit opens a manager over dir and admits every job, retrying
// a shed submission after a short pause as a client honoring 429 would.
func openAndSubmit(dir string, workers int, cfgs []roco.Config, b *batch) (*campaign.Manager, error) {
	m, err := campaign.Open(campaign.Options{Dir: dir, Workers: workers, CheckpointEvery: chipCheckpoint})
	if err != nil {
		return nil, fmt.Errorf("open campaign: %w", err)
	}
	for i, c := range cfgs {
		for {
			t := time.Now()
			j, err := m.Submit(campaign.Spec{Config: c, Label: fmt.Sprintf("job%d", i)})
			if errors.Is(err, campaign.ErrQueueFull) {
				b.shed++
				time.Sleep(chipShedBackoff)
				continue
			}
			if err != nil {
				m.Stop()
				return nil, fmt.Errorf("submit job %d: %w", i, err)
			}
			b.jobs = append(b.jobs, jobTimes{id: j.ID, submit: t})
			break
		}
	}
	return m, nil
}

// runBatch submits the burst and waits for every job to finish.
func runBatch(e *env, cfgs []roco.Config, tr *tracer) (*batch, error) {
	dir := filepath.Join(e.out, "campaign")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &batch{}
	root := tr.begin("campaign.batch", 0)
	t0 := time.Now()
	id := tr.begin("campaign.admit", root)
	m, err := openAndSubmit(dir, e.workers, cfgs, b)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	b.setup = time.Since(t0)

	var wg sync.WaitGroup
	for i := range b.jobs {
		wg.Add(1)
		go func(jt *jobTimes) {
			defer wg.Done()
			ch, cancel, err := m.Subscribe(jt.id)
			if err != nil {
				jt.done = time.Now()
				return
			}
			defer cancel()
			for ev := range ch {
				if ev.Type == "state" && ev.State == campaign.Running && jt.start.IsZero() {
					jt.start = time.Now()
				}
			}
			jt.done = time.Now()
		}(&b.jobs[i])
	}
	// A batch takes seconds; one still running after chipBatchLimit is
	// wedged, so its jobs are cancelled (and counted failed) to keep the
	// run inside its time limit.
	guard := time.AfterFunc(chipBatchLimit, func() {
		for _, jt := range b.jobs {
			_ = m.Cancel(jt.id) // the IDs came from Submit, so none is unknown
		}
	})
	wg.Wait()
	guard.Stop()
	b.wall = time.Since(t0)
	tr.end(root)
	m.Stop()

	for i := range b.jobs {
		jt := &b.jobs[i]
		if jt.start.IsZero() {
			jt.start = jt.submit
		}
		jid := tr.add("campaign.job", root, jt.submit, jt.done)
		tr.add("campaign.queue_wait", jid, jt.submit, jt.start)
		tr.add("campaign.run", jid, jt.start, jt.done)

		why := ""
		job, _ := m.Get(jt.id)
		switch {
		case job.State != campaign.Succeeded:
			why = fmt.Sprintf("job%d ended %s: %v", i, job.State, job.Failure)
		case len(job.Retried) > 0:
			why = fmt.Sprintf("job%d needed %d retries: %s", i, len(job.Retried), job.Retried[0])
		}
		b.retries += len(job.Retried)
		data, err := m.Result(jt.id)
		if err != nil && why == "" {
			why = fmt.Sprintf("job%d result: %v", i, err)
		}
		b.results = append(b.results, data)
		b.whys = append(b.whys, why)
		snaps, _ := filepath.Glob(filepath.Join(dir, "jobs", jt.id, "snaps", "ckpt-*.rocosnap"))
		b.checkpoints += len(snaps)
	}
	return b, nil
}

func decodeResult(data []byte) (roco.Result, error) {
	var r roco.Result
	err := json.Unmarshal(data, &r)
	return r, err
}

func runChiplet(e *env) *outcome {
	o := &outcome{metrics: map[string]float64{}}
	plainCfgs := chipConfigs(e.seed, 0)
	tracedCfgs := chipConfigs(e.seed, telemetryEvery)
	nodes := float64(nodeCount(plainCfgs[0]))

	// Set-up alone: open a manager and admit the burst, then stop it;
	// the stop parks the admitted jobs and is not timed. The sampled
	// manager has one worker fewer than the batches' (at least one), so a
	// CPU stays free for the admitting goroutine. With every CPU running
	// a job, each of admission's fsyncs returned to wait for a scheduler
	// slot, and the samples spread by 0.6-0.8 of their median, against
	// 0.25 with a CPU left free.
	var setups []float64
	setupWorkers := max(1, e.workers-1)
	admit := func() time.Duration {
		dir := filepath.Join(e.out, "campaign-setup")
		_ = os.RemoveAll(dir)
		defer os.RemoveAll(dir)
		t0 := time.Now()
		m, err := openAndSubmit(dir, setupWorkers, plainCfgs, &batch{})
		d := time.Since(t0)
		if err != nil {
			o.tally.add("set-up sample: " + err.Error())
			return d
		}
		m.Stop()
		return d
	}
	sampleSetup(&setups, setupFirst, admit)

	var (
		first                 []string // canonical results of the first batch
		firstRaw              [][]byte
		firstResults          []roco.Result
		firstBatch            *batch
		walls, ncps, pps, jps []float64
		jobDurs               []float64
		waits, runs, busy     []float64
		counts                routerCounts
		countedTelemetry      bool
	)
	rep := func(traced bool) time.Duration {
		cfgs, tr := plainCfgs, (*tracer)(nil)
		if traced {
			cfgs, tr = tracedCfgs, e.tr
		}
		b, err := runBatch(e, cfgs, tr)
		if err != nil {
			for range cfgs {
				o.tally.add(err.Error())
			}
			return 0
		}
		var cycles, delivered int64
		var runSum time.Duration
		results := make([]roco.Result, len(b.results))
		for i, data := range b.results {
			why := b.whys[i]
			if why == "" {
				r, err := decodeResult(data)
				if err != nil {
					why = fmt.Sprintf("job%d result: %v", i, err)
				} else {
					results[i] = r
					want := ""
					if first != nil {
						want = first[i]
					}
					why = runChecks(fmt.Sprintf("job%d", i), r, want)
				}
			}
			o.tally.add(why)
			cycles += results[i].Cycles
			delivered += results[i].DeliveredPackets
			jt := b.jobs[i]
			runSum += jt.done.Sub(jt.start)
			if traced {
				waits = append(waits, seconds(jt.start.Sub(jt.submit)))
				runs = append(runs, seconds(jt.done.Sub(jt.start)))
				if !countedTelemetry {
					counts.addTotals(results[i].Telemetry)
				}
			} else {
				jobDurs = append(jobDurs, seconds(jt.done.Sub(jt.submit)))
			}
		}
		if first == nil {
			firstRaw, firstResults, firstBatch = b.results, results, b
			for _, r := range results {
				first = append(first, canonical(r))
			}
		}
		if traced {
			countedTelemetry = true
			busy = append(busy, seconds(runSum)/(float64(e.workers)*seconds(b.wall)))
		} else {
			walls = append(walls, seconds(b.wall))
			ncps = append(ncps, float64(cycles)*nodes/seconds(b.wall-b.setup))
			pps = append(pps, float64(delivered)/seconds(b.wall))
			jps = append(jps, float64(len(cfgs))/seconds(b.wall))
		}
		sampleSetup(&setups, setupEvery, admit)
		return b.wall
	}
	plain, withTrace := repeat(e.budget, e.traced, rep)

	// Outside the timed window: job 0's persisted result bytes must equal
	// a direct roco.Run of the same configuration, and the live heap is
	// read with every job's simulation held halfway through its run.
	var direct roco.Result
	var directS float64
	why := safely("direct run", func() {
		t0 := time.Now()
		direct = roco.Run(plainCfgs[0])
		directS = seconds(time.Since(t0))
		var buf bytes.Buffer
		if err := roco.WriteJSON(&buf, direct); err != nil {
			panic(err)
		}
		if len(firstRaw) == 0 || !bytes.Equal(buf.Bytes(), firstRaw[0]) {
			panic("Manager.Result bytes of job0 differ from a direct roco.Run")
		}
	})
	o.tally.add(why)
	var heap float64
	o.tally.add(safely("heap", func() {
		base := liveHeap()
		sims := make([]*roco.Sim, len(firstResults))
		for i, r := range firstResults {
			sims[i] = roco.NewSim(plainCfgs[i])
			runTo(sims[i], r.Cycles/2)
		}
		heap = float64(liveHeap()-base) / (nodes * float64(len(sims)))
		runtime.KeepAlive(sims)
	}))

	o.digest = digestOf(first)
	m := o.metrics
	m["setup_s"] = median(setups)
	m["wall_s"] = median(walls)
	m["node_cycles_per_s"] = median(ncps)
	m["packets_per_s"] = median(pps)
	m["heap_bytes_per_node"] = heap
	m["jobs_per_s"] = median(jps)
	m["job_s_p50"] = median(jobDurs)
	o.note("campaign: %d jobs of %d+%d packets on %d workers, checkpoint every %d cycles, %d untraced batches",
		chipJobs, chipWarmup, chipMeasure, e.workers, chipCheckpoint, len(plain))
	o.note("%s", timing("job_s (submit to succeeded)", "s", jobDurs))
	o.note("%s", timing("setup_s", "s", setups))
	o.note("wall_s per repetition: %s", fmtList(walls))
	o.note("setup_s samples: %s", fmtList(setups))

	if e.traced {
		m["arbiter.grant_ns"] = arbiterGrantNS(e.seed, o)
		counts.put(m)
		runProbe(e, probe{
			cfg: plainCfgs[0], want: direct, newsims: 10,
			mid: direct.Cycles / 2, window: direct.Cycles / 5,
		}, m, o)
		m["roco.run_s_p50"] = directS
		m["roco.pool_busy_ratio"] = median(busy)
		noCampaign(m)
		m["campaign.queue_wait_s_p50"] = median(waits)
		m["campaign.run_s_p50"] = median(runs)
		if firstBatch != nil {
			m["campaign.checkpoints"] = float64(firstBatch.checkpoints)
			m["campaign.retries"] = float64(firstBatch.retries)
			m["campaign.shed"] = float64(firstBatch.shed)
		}
		var pc protocolCounts
		for _, r := range firstResults {
			pc.add(r)
		}
		pc.put(m)
		m["trace.overhead_ratio"] = median(withTrace) / median(plain)
	}
	return o
}
