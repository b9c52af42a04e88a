.PHONY: check vet test doccheck bench bench-paper fuzz soak checkresume profile

# The pre-merge gate: vet + build + tests + race detector + doc gate +
# the checkpoint-equivalence and rocoserve crash-recovery smokes.
check: vet
	sh scripts/check.sh
	$(MAKE) checkresume

# Static analysis alone (also the first step of check.sh).
vet:
	go vet ./...

# Checkpoint-equivalence smoke under the race detector: periodic
# snapshots must not perturb a run, a resumed run must continue
# bit-identically for every kernel, and parking/restarting the worker
# pool around a save must be race-free.
checkresume:
	go test -race -count=1 -run 'TestCheckpointResumeEquivalence|TestCheckpointCrossKernelResume|TestRunCheckpointed' ./internal/network .

test:
	go test ./...

# The documentation gate alone (also part of `make check`): package
# comments, exported-identifier docs, live markdown links.
doccheck:
	sh scripts/doccheck.sh

# Kernel benchmarks (gated vs reference, three router kinds, three
# loads), shard-scaling benchmarks (RoCo, three mesh sizes, 1-8 shards),
# the telemetry-overhead benchmarks (epoch sampling off vs on), the
# data-layout benchmarks (the gated kernel's step, allocations and
# footprint on big meshes), the allocation-stage benchmarks (three
# router kinds at and beyond saturation), and the chiplet-topology
# benchmarks (flat die vs chiplet seams); writes BENCH_kernel.json, BENCH_shard.json,
# BENCH_telemetry.json, BENCH_layout.json, BENCH_alloc.json and
# BENCH_chiplet.json, with raw output under bench/out/.
bench:
	sh scripts/bench.sh kernel
	sh scripts/bench.sh shard
	sh scripts/bench.sh telemetry
	sh scripts/bench.sh layout
	sh scripts/bench.sh alloc
	sh scripts/bench.sh chiplet

# CPU profile of the saturated 64x64 step (gated kernel, RoCo router) —
# the allocation-stage hot path DESIGN.md 4i targets. Writes the profile
# and the bench binary under bench/out/ (git-ignored); inspect with
# `go tool pprof bench/out/profile.test bench/out/cpu.pprof`.
profile:
	mkdir -p bench/out
	go test -run '^$$' -bench 'BenchmarkLayout/64x64/sat/gated' -benchtime 200x \
		-cpuprofile bench/out/cpu.pprof -o bench/out/profile.test ./bench/
	go tool pprof -top -nodecount 15 bench/out/profile.test bench/out/cpu.pprof

# The paper-table benchmarks at the repository root.
bench-paper:
	go test -bench=. -benchmem .

# Extended fuzzing of the runtime fault-injection path.
fuzz:
	go test ./internal/network -run '^$$' -fuzz FuzzDynamicFaults -fuzztime 60s

# Fault-storm chaos soak: the reliable-delivery protocol under a Poisson
# storm of runtime faults, with the race detector on.
soak:
	go test -race -run 'TestReliable' -count=1 ./internal/network
	go test -race -run 'TestSoakReliableFaultStorm' -count=1 .
