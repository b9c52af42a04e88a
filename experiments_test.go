package roco

import (
	"bytes"
	"reflect"
	"testing"
)

// TestRunAllOrderWithWorkers pins the dispatch contract of the experiment
// drivers: whatever the worker count, runAll returns results in the input
// order of the configs. Each config gets a distinct seed and rate so a
// misplaced result cannot accidentally equal the right one.
func TestRunAllOrderWithWorkers(t *testing.T) {
	mkCfgs := func() []Config {
		var cfgs []Config
		for i := 0; i < 8; i++ {
			cfgs = append(cfgs, Config{
				Width: 4, Height: 4,
				Router:        RoCo,
				Algorithm:     XY,
				Traffic:       Uniform,
				InjectionRate: 0.05 + 0.02*float64(i),
				WarmupPackets: 50, MeasurePackets: 400,
				Seed: uint64(100 + i),
			})
		}
		return cfgs
	}
	serial := Options{Workers: 1}
	want := runAll(serial, mkCfgs())
	for _, workers := range []int{2, 4, 0} {
		opts := Options{Workers: workers}
		got := runAll(opts, mkCfgs())
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("Workers=%d: result %d out of order or nondeterministic", workers, i)
			}
		}
	}
}

// TestRunAllSharedBudget checks that the worker budget is split between
// config-level parallelism and per-run shards without changing results:
// sharded configs under a small shared budget must match serial unsharded
// runs bit for bit.
func TestRunAllSharedBudget(t *testing.T) {
	mkCfgs := func(shards int) []Config {
		var cfgs []Config
		for i := 0; i < 4; i++ {
			cfgs = append(cfgs, Config{
				Width: 8, Height: 8,
				Router:        RoCo,
				Algorithm:     XY,
				Traffic:       Uniform,
				InjectionRate: 0.10,
				WarmupPackets: 50, MeasurePackets: 500,
				Seed:   uint64(7 + i),
				Shards: shards,
			})
		}
		return cfgs
	}
	want := runAll(Options{Workers: 1}, mkCfgs(1))
	got := runAll(Options{Workers: 4}, mkCfgs(4))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sharded runs under a shared worker budget diverged from serial unsharded runs")
	}
}

// TestLatencyFigurePoolsAllPanels pins that submitting every panel's runs
// to one pool changes nothing: a latency figure equals one
// RunLatencySweep per algorithm, value for value and in its rendered
// output byte for byte.
func TestLatencyFigurePoolsAllPanels(t *testing.T) {
	opts := Options{Width: 4, Height: 4, Warmup: 50, Measure: 300, Seed: 3, Workers: 2}
	got := Figure8(opts)
	if len(got) != len(Algorithms) {
		t.Fatalf("Figure8 returned %d panels, want %d", len(got), len(Algorithms))
	}
	var gotOut, wantOut bytes.Buffer
	for i, alg := range Algorithms {
		want := RunLatencySweep(opts, Uniform, alg, LatencyRates)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("panel %d (%s) differs from its own sweep", i, alg)
		}
		got[i].Render(&gotOut)
		want.Render(&wantOut)
	}
	if !bytes.Equal(gotOut.Bytes(), wantOut.Bytes()) {
		t.Fatal("rendered figure differs from the per-panel sweeps")
	}
}
