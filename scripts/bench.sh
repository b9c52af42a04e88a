#!/bin/sh
# Benchmark driver with four modes:
#
#   sh scripts/bench.sh [kernel] [benchtime]  — the simulation-kernel
#     micro-benchmarks in bench/ (gated vs reference kernel, three router
#     kinds, three loads), distilled into BENCH_kernel.json: per-benchmark
#     ns/op, B/op and allocs/op, plus the low-load speedup and saturation
#     allocation reduction per router kind.
#
#   sh scripts/bench.sh shard [benchtime]     — the sharded parallel-kernel
#     scaling benchmarks (RoCo router, 16x16/32x32/64x64 meshes, three
#     loads, 1/2/4/8 shards), distilled into BENCH_shard.json: ns/op and
#     allocs/op per point plus the 2/4/8-shard speedups over one shard.
#
#   sh scripts/bench.sh telemetry [benchtime] — the telemetry-overhead
#     benchmarks (gated kernel, RoCo router, 8x8 mesh, three loads, epoch
#     sampling off vs every 256 cycles), distilled into
#     BENCH_telemetry.json: ns/op and allocs/op per point plus the
#     per-load overhead percentage of enabling telemetry.
#
#   sh scripts/bench.sh layout [benchtime]    — the data-layout benchmarks
#     (gated kernel, RoCo router, 64x64 and 256x256 meshes), distilled
#     into BENCH_layout.json: ns/op, allocs/op and steady-state live-heap
#     bytes/node per point.
#
#   sh scripts/bench.sh alloc [benchtime]     — the allocation-stage
#     benchmarks (gated kernel, three router kinds, 8x8 mesh at and beyond
#     saturation, where VA/SA arbitration dominates the step), distilled
#     into BENCH_alloc.json: ns/op, B/op and allocs/op per point.
#
#   sh scripts/bench.sh chiplet [benchtime]   — the chiplet-topology
#     benchmarks (gated kernel, RoCo router, a flat 16x16 mesh vs the
#     same nodes as 2x2 chiplets of 8x8 with parallel and serial boundary
#     links, at low and mid load), distilled into BENCH_chiplet.json:
#     ns/op, B/op and allocs/op per point plus each seam's per-load step
#     cost relative to the flat die.
#
# Every mode defaults to a fixed iteration count (-benchtime=Nx) rather
# than a duration: per-cycle cost drifts with simulated time (queues
# deepen toward saturation), so two kernels — or the telemetry off/on
# pair — must simulate the same horizon for their ratio to mean anything,
# and fixed counts also make BENCH_*.json numbers comparable across
# commits. Pass an explicit benchtime (e.g. 5x larger) for steadier
# numbers. Raw `go test -bench` output lands in bench/out/<mode>.txt
# (ignored by git); the distilled JSON lands at the repository root. Run
# from the repository root (directly or via `make bench`).
set -eu

MODE="kernel"
case "${1:-}" in
kernel | shard | telemetry | layout | alloc | chiplet)
	MODE="$1"
	shift
	;;
esac
case "$MODE" in
kernel) BENCHTIME="${1:-10000x}" ;;
shard) BENCHTIME="${1:-200x}" ;;
telemetry) BENCHTIME="${1:-60000x}" ;;
layout) BENCHTIME="${1:-100x}" ;;
alloc) BENCHTIME="${1:-15000x}" ;;
chiplet) BENCHTIME="${1:-3000x}" ;;
esac
mkdir -p bench/out
RAW="bench/out/$MODE.txt"

if [ "$MODE" = "shard" ]; then
	OUT="BENCH_shard.json"
	CPUS="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo unknown)"

	go test -run '^$' -bench BenchmarkShard -benchmem -benchtime "$BENCHTIME" ./bench/ | tee "$RAW"

	awk -v benchtime="$BENCHTIME" -v cpus="$CPUS" '
	/^BenchmarkShard\// {
	    # BenchmarkShard/mesh/load/sN-P  iters  X ns/op  Y B/op  Z allocs/op
	    name = $1
	    sub(/^BenchmarkShard\//, "", name)
	    sub(/-[0-9]+$/, "", name)
	    split(name, part, "/")
	    mesh = part[1]; load = part[2]; sh = substr(part[3], 2)
	    ns[mesh, load, sh] = $3
	    allocs[mesh, load, sh] = $7
	    if (!(mesh in seenm)) { meshes[++nm] = mesh; seenm[mesh] = 1 }
	}
	END {
	    if (nm == 0) { print "bench.sh: no shard benchmark output parsed" > "/dev/stderr"; exit 1 }
	    nl = split("low mid sat", loads, " ")
	    nsh = split("1 2 4 8", shards, " ")
	    printf "{\n  \"benchtime\": \"%s\",\n  \"cpus\": \"%s\",\n  \"router\": \"roco\",\n  \"meshes\": {", benchtime, cpus
	    for (i = 1; i <= nm; i++) {
	        m = meshes[i]
	        printf "%s\n    \"%s\": {", (i > 1 ? "," : ""), m
	        for (j = 1; j <= nl; j++) {
	            l = loads[j]
	            printf "%s\n      \"%s\": {", (j > 1 ? "," : ""), l
	            for (k = 1; k <= nsh; k++) {
	                s = shards[k]
	                printf "%s\n        \"shards_%s\": {\"ns_op\": %s, \"allocs_op\": %s}", (k > 1 ? "," : ""), s, ns[m,l,s], allocs[m,l,s]
	            }
	            for (k = 2; k <= nsh; k++) {
	                s = shards[k]
	                printf ",\n        \"speedup_%s\": %.2f", s, ns[m,l,"1"] / ns[m,l,s]
	            }
	            printf "\n      }"
	        }
	        printf "\n    }"
	    }
	    printf "\n  }\n}\n"
	}' "$RAW" > "$OUT"

	echo "wrote $OUT"
	exit 0
fi

if [ "$MODE" = "telemetry" ]; then
	OUT="BENCH_telemetry.json"

	go test -run '^$' -bench BenchmarkTelemetry -benchmem -benchtime "$BENCHTIME" ./bench/ | tee "$RAW"

	awk -v benchtime="$BENCHTIME" '
	/^BenchmarkTelemetry\// {
	    # BenchmarkTelemetry/load/mode-N  iters  X ns/op  Y B/op  Z allocs/op
	    name = $1
	    sub(/^BenchmarkTelemetry\//, "", name)
	    sub(/-[0-9]+$/, "", name)
	    split(name, part, "/")
	    load = part[1]; mode = part[2]
	    ns[load, mode] = $3
	    bytes[load, mode] = $5
	    allocs[load, mode] = $7
	    seen = 1
	}
	END {
	    if (!seen) { print "bench.sh: no telemetry benchmark output parsed" > "/dev/stderr"; exit 1 }
	    nl = split("low mid sat", loads, " ")
	    printf "{\n  \"benchtime\": \"%s\",\n  \"router\": \"roco\",\n  \"kernel\": \"gated\",\n  \"epoch_cycles\": 256,\n  \"loads\": {", benchtime
	    for (j = 1; j <= nl; j++) {
	        l = loads[j]
	        printf "%s\n    \"%s\": {", (j > 1 ? "," : ""), l
	        printf "\n      \"off\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s},", ns[l,"off"], bytes[l,"off"], allocs[l,"off"]
	        printf "\n      \"on\":  {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s},", ns[l,"on"], bytes[l,"on"], allocs[l,"on"]
	        printf "\n      \"overhead_pct\": %.2f", (ns[l,"on"] / ns[l,"off"] - 1) * 100
	        printf "\n    }"
	    }
	    printf "\n  }\n}\n"
	}' "$RAW" > "$OUT"

	echo "wrote $OUT"
	exit 0
fi

if [ "$MODE" = "layout" ]; then
	OUT="BENCH_layout.json"

	go test -run '^$' -bench BenchmarkLayout -benchmem -benchtime "$BENCHTIME" ./bench/ | tee "$RAW"

	awk -v benchtime="$BENCHTIME" '
	/^BenchmarkLayout\// {
	    # BenchmarkLayout/mesh/load-P  iters  <value unit>...
	    # The bytes/node custom metric shifts column positions, so metrics
	    # are parsed as (value, unit) pairs rather than by field index.
	    name = $1
	    sub(/^BenchmarkLayout\//, "", name)
	    sub(/-[0-9]+$/, "", name)
	    split(name, part, "/")
	    mesh = part[1]; load = part[2]
	    for (i = 3; i < NF; i += 2) {
	        if ($(i+1) == "ns/op") ns[mesh, load] = $i
	        if ($(i+1) == "allocs/op") al[mesh, load] = $i
	        if ($(i+1) == "bytes/node") bpn[mesh, load] = $i
	    }
	    if (!((mesh, load) in seenp)) { pm[++np] = mesh; pl[np] = load; seenp[mesh, load] = 1 }
	}
	END {
	    if (np == 0) { print "bench.sh: no layout benchmark output parsed" > "/dev/stderr"; exit 1 }
	    printf "{\n  \"benchtime\": \"%s\",\n  \"router\": \"roco\",\n  \"algorithm\": \"xy\",\n  \"points\": {", benchtime
	    prevmesh = ""
	    for (i = 1; i <= np; i++) {
	        m = pm[i]; l = pl[i]
	        if (m != prevmesh) {
	            if (prevmesh != "") printf "\n    },"
	            printf "\n    \"%s\": {", m
	            prevmesh = m
	            first = 1
	        }
	        printf "%s\n      \"%s\": {\"ns_op\": %s, \"allocs_op\": %s, \"bytes_node\": %s}", (first ? "" : ","), l, ns[m,l], al[m,l], bpn[m,l]
	        first = 0
	    }
	    printf "\n    }\n  }\n}\n"
	}' "$RAW" > "$OUT"

	echo "wrote $OUT"
	exit 0
fi

if [ "$MODE" = "alloc" ]; then
	OUT="BENCH_alloc.json"

	go test -run '^$' -bench BenchmarkAlloc -benchmem -benchtime "$BENCHTIME" ./bench/ | tee "$RAW"

	awk -v benchtime="$BENCHTIME" '
	/^BenchmarkAlloc\// {
	    # BenchmarkAlloc/kind/load-N  iters  X ns/op  Y B/op  Z allocs/op
	    name = $1
	    sub(/^BenchmarkAlloc\//, "", name)
	    sub(/-[0-9]+$/, "", name)
	    split(name, part, "/")
	    kind = part[1]; load = part[2]
	    ns[kind, load] = $3
	    bytes[kind, load] = $5
	    allocs[kind, load] = $7
	    if (!(kind in seen)) { kinds[++nk] = kind; seen[kind] = 1 }
	}
	END {
	    if (nk == 0) { print "bench.sh: no alloc benchmark output parsed" > "/dev/stderr"; exit 1 }
	    nl = split("sat deep", loads, " ")
	    printf "{\n  \"benchtime\": \"%s\",\n  \"kernel\": \"gated\",\n  \"kinds\": {", benchtime
	    for (i = 1; i <= nk; i++) {
	        k = kinds[i]
	        printf "%s\n    \"%s\": {", (i > 1 ? "," : ""), k
	        for (j = 1; j <= nl; j++) {
	            l = loads[j]
	            printf "%s\n      \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}", (j > 1 ? "," : ""), l, ns[k,l], bytes[k,l], allocs[k,l]
	        }
	        printf "\n    }"
	    }
	    printf "\n  }\n}\n"
	}' "$RAW" > "$OUT"

	echo "wrote $OUT"
	exit 0
fi

if [ "$MODE" = "chiplet" ]; then
	OUT="BENCH_chiplet.json"

	go test -run '^$' -bench BenchmarkChiplet -benchmem -benchtime "$BENCHTIME" ./bench/ | tee "$RAW"

	awk -v benchtime="$BENCHTIME" '
	/^BenchmarkChiplet\// {
	    # BenchmarkChiplet/seam/load-N  iters  X ns/op  Y B/op  Z allocs/op
	    name = $1
	    sub(/^BenchmarkChiplet\//, "", name)
	    sub(/-[0-9]+$/, "", name)
	    split(name, part, "/")
	    seam = part[1]; load = part[2]
	    ns[seam, load] = $3
	    bytes[seam, load] = $5
	    allocs[seam, load] = $7
	    seen = 1
	}
	END {
	    if (!seen) { print "bench.sh: no chiplet benchmark output parsed" > "/dev/stderr"; exit 1 }
	    ns_ = split("flat parallel serial", seams, " ")
	    nl = split("low mid", loads, " ")
	    printf "{\n  \"benchtime\": \"%s\",\n  \"router\": \"roco\",\n  \"kernel\": \"gated\",\n  \"nodes\": 256,\n  \"seams\": {", benchtime
	    for (i = 1; i <= ns_; i++) {
	        s = seams[i]
	        printf "%s\n    \"%s\": {", (i > 1 ? "," : ""), s
	        for (j = 1; j <= nl; j++) {
	            l = loads[j]
	            printf "%s\n      \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}", (j > 1 ? "," : ""), l, ns[s,l], bytes[s,l], allocs[s,l]
	        }
	        if (s != "flat") {
	            for (j = 1; j <= nl; j++) {
	                l = loads[j]
	                printf ",\n      \"vs_flat_%s_pct\": %.1f", l, (ns[s,l] / ns["flat",l] - 1) * 100
	            }
	        }
	        printf "\n    }"
	    }
	    printf "\n  }\n}\n"
	}' "$RAW" > "$OUT"

	echo "wrote $OUT"
	exit 0
fi

OUT="BENCH_kernel.json"

go test -run '^$' -bench BenchmarkKernel -benchmem -benchtime "$BENCHTIME" ./bench/ | tee "$RAW"

awk -v benchtime="$BENCHTIME" '
/^BenchmarkKernel\// {
    # BenchmarkKernel/kind/load/kernel-N  iters  X ns/op  Y B/op  Z allocs/op
    name = $1
    sub(/^BenchmarkKernel\//, "", name)
    sub(/-[0-9]+$/, "", name)
    split(name, part, "/")
    kind = part[1]; load = part[2]; kernel = part[3]
    ns[kind, load, kernel] = $3
    bytes[kind, load, kernel] = $5
    allocs[kind, load, kernel] = $7
    if (!(kind in seen)) { kinds[++nk] = kind; seen[kind] = 1 }
}
END {
    if (nk == 0) { print "bench.sh: no benchmark output parsed" > "/dev/stderr"; exit 1 }
    nl = split("low mid sat", loads, " ")
    printf "{\n  \"benchtime\": \"%s\",\n  \"kinds\": {", benchtime
    for (i = 1; i <= nk; i++) {
        k = kinds[i]
        printf "%s\n    \"%s\": {", (i > 1 ? "," : ""), k
        for (j = 1; j <= nl; j++) {
            l = loads[j]
            printf "%s\n      \"%s\": {", (j > 1 ? "," : ""), l
            printf "\n        \"gated\":     {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s},", ns[k,l,"gated"], bytes[k,l,"gated"], allocs[k,l,"gated"]
            printf "\n        \"reference\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}", ns[k,l,"reference"], bytes[k,l,"reference"], allocs[k,l,"reference"]
            printf "\n      }"
        }
        low_speedup = ns[k,"low","reference"] / ns[k,"low","gated"]
        if (allocs[k,"sat","reference"] > 0)
            alloc_cut = 1 - allocs[k,"sat","gated"] / allocs[k,"sat","reference"]
        else
            alloc_cut = 0
        printf ",\n      \"low_load_speedup\": %.2f,\n      \"sat_allocs_reduction\": %.2f\n    }", low_speedup, alloc_cut
    }
    printf "\n  }\n}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT"
