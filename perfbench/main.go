// Command perfbench is the repository benchmark: it drives three
// workloads (paper-fig8, mesh64-sat, chiplet-service) through the public
// functions of each simulator layer and reports host-time metrics. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it records
// a span around every layer call, writes the spans out at exit, and
// prints the per-layer metrics. Simulated statistics are never scored:
// they are checked for identity, and every check that fails counts the
// run or job as failed. See README.md in this directory.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is the workload seed no tuning used; a later claim of a
// gain must also hold on it.
const heldOutSeed = 7919

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the --trace 0 metrics, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"node_cycles_per_s", "1/s"},
	{"packets_per_s", "1/s"},
	{"heap_bytes_per_node", "B"},
	{"jobs_per_s", "1/s"},
	{"job_s_p50", "s"},
}

// perLayer are the --trace 1 metrics, in print order.
var perLayer = []metricDef{
	{"arbiter.grant_ns", "ns"},
	{"router.sa_grants", "count"},
	{"router.sa_conflict_ratio", "ratio"},
	{"router.credit_stalls", "count"},
	{"router.early_ejections", "count"},
	{"network.step_us_p50", "us"},
	{"network.step_us_p90", "us"},
	{"network.shard_speedup", "x"},
	{"roco.newsim_ms", "ms"},
	{"roco.run_s_p50", "s"},
	{"roco.pool_busy_ratio", "ratio"},
	{"snapshot.encode_mb_per_s", "MB/s"},
	{"snapshot.decode_mb_per_s", "MB/s"},
	{"snapshot.bytes_per_node", "B"},
	{"campaign.queue_wait_s_p50", "s"},
	{"campaign.run_s_p50", "s"},
	{"campaign.checkpoints", "count"},
	{"campaign.retries", "count"},
	{"campaign.shed", "count"},
	{"protocol.retransmissions", "count"},
	{"protocol.giveups", "count"},
	{"protocol.goodput_ratio", "ratio"},
	{"d2d.flits", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// env is what every workload receives.
type env struct {
	seed    uint64
	budget  time.Duration // how long the repetitions measure
	traced  bool
	workers int    // nproc: the cap on pool workers, shards and manager workers
	out     string // scratch directory inside the checkout
	tr      *tracer
}

// outcome is what a workload reports back.
type outcome struct {
	metrics map[string]float64
	digest  string // hash of the simulated results, for cross-commit identity
	tally   tally
	notes   []string // human-readable lines printed before the result
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*env) *outcome{
	"paper-fig8":      runFig8,
	"mesh64-sat":      runMesh64,
	"chiplet-service": runChiplet,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "paper-fig8, mesh64-sat or chiplet-service")
	seed := fl.Uint64("seed", 1, "workload seed")
	secs := fl.Float64("seconds", 20, "how long the repetitions measure")
	traceFlag := fl.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	out := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the trace and campaign data")
	if err := fl.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *workload)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *secs <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	e := &env{
		seed:    *seed,
		budget:  time.Duration(*secs * float64(time.Second)),
		traced:  *traceFlag == 1,
		workers: runtime.NumCPU(),
		out:     *out,
	}
	if e.traced {
		e.tr = newTracer()
	}
	meta := metadata(*workload, *seed, *secs, e)
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# meta %s\n", metaJSON)

	res := wl(e)

	for _, n := range res.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	fmt.Fprintf(stdout, "# result_digest %s %s\n", *workload, res.digest)
	fmt.Fprintf(stdout, "# fail_ratio %g (%d failed / %d attempted)\n", res.tally.ratio(), res.tally.failed, res.tally.attempted)
	for _, r := range res.tally.reasons {
		fmt.Fprintf(stdout, "# failure: %s\n", r)
	}
	if e.traced {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *workload, *seed))
		meta["result_digest"] = res.digest
		if err := e.tr.write(path, meta); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# trace written to %s\n", path)
	}

	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", *workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A measurement without samples follows a failure the
			// tally already holds; JSON has no NaN.
			v = 0
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(stdout, "# %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	final, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.tally.failed == 0 && res.tally.attempted > 0, res.tally.attempted, res.tally.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", final)
	return nil
}

// metadata describes the host and the code under test.
func metadata(workload string, seed uint64, secs float64, e *env) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"held_out_seed": heldOutSeed,
		"seconds":       secs,
		"trace":         e.traced,
		"cpus":          runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"workers":       e.workers,
		"go":            runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest(),
	}
}

// commit names the revision under test: PERFBENCH_COMMIT when the
// launcher found one, else the VCS stamp of the build, else "unknown"
// (source_sha256 still identifies the code).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file of the repository
// (the working directory, or its parent when run from this package's
// directory), in path order, skipping hidden directories such as the
// build output. It identifies the code when the checkout carries no VCS
// metadata.
func sourceDigest() string {
	root := "."
	if _, err := os.Stat("run.sh"); err == nil {
		root = ".."
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
