package roco

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/golden/rocosim.sha256 from the current
// tree. Use it only for a deliberate behaviour change, and give the reason
// in CHANGES.md; never to make a failing digest go away.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden digests from the current tree")

const goldenFile = "testdata/golden/rocosim.sha256"

// goldenCase is one rocosim invocation whose -json output is pinned by
// digest. resume marks the checkpoint-and-resume case: the run writes
// periodic snapshots, then a second process resumes from the newest one,
// and the resumed process's output is the one digested.
type goldenCase struct {
	name   string
	args   string
	resume bool
}

// goldenCases spans the four router kinds, XY/XY-YX/adaptive routing,
// mesh/torus/multichip topologies, no faults/static faults/Poisson
// faults/D2D interface faults, Reliable on and off, the kernel and shard
// selectors (which must never change a result), and one resumed run.
var goldenCases = []goldenCase{
	{"generic-xy-mesh4", "-router generic -routing xy -width 4 -height 4 -rate 0.25 -warmup 100 -measure 1500", false},
	{"pathsensitive-xy-mesh4", "-router pathsensitive -routing xy -width 4 -height 4 -rate 0.25 -warmup 100 -measure 1500", false},
	{"roco-xy-mesh4", "-router roco -routing xy -width 4 -height 4 -rate 0.25 -warmup 100 -measure 1500", false},
	{"pdr-xy-mesh4", "-router pdr -routing xy -width 4 -height 4 -rate 0.25 -warmup 100 -measure 1500", false},
	{"generic-adaptive-mesh4", "-router generic -routing adaptive -width 4 -height 4 -rate 0.3 -warmup 100 -measure 1500", false},
	{"pathsensitive-adaptive-mesh8", "-router pathsensitive -routing adaptive -rate 0.3 -warmup 200 -measure 2000 -traffic transpose", false},
	{"roco-adaptive-mesh8", "-router roco -routing adaptive -rate 0.3 -warmup 200 -measure 2000", false},
	{"roco-xyyx-mesh8-hotspot", "-router roco -routing xyyx -rate 0.2 -warmup 200 -measure 2000 -traffic hotspot", false},
	{"generic-xy-mesh8-sat", "-router generic -routing xy -rate 0.5 -warmup 200 -measure 2000", false},
	{"generic-xy-torus4-poisson-reliable", "-router generic -routing xy -topology torus -width 4 -height 4 -rate 0.2 -warmup 100 -measure 1500 -fault-rate 300 -fault-horizon 1200 -faultclass noncritical -reliable", false},
	{"generic-xy-torus8-selfsimilar", "-router generic -routing xy -topology torus -rate 0.2 -warmup 200 -measure 2000 -traffic selfsimilar", false},
	{"roco-multichip-serial", "-router roco -routing xy -topology multichipmesh -chips 2x2 -chip-size 4x4 -d2d-class serial -rate 0.15 -warmup 100 -measure 1500", false},
	{"generic-multichiptorus-parallel", "-router generic -routing xy -topology multichiptorus -chips 2x2 -chip-size 2x2 -d2d-class parallel -rate 0.2 -warmup 100 -measure 1500", false},
	{"roco-static-faults", "-router roco -routing xy -rate 0.25 -warmup 200 -measure 2000 -faults 2 -faultclass critical -seed 3", false},
	{"pathsensitive-static-noncritical", "-router pathsensitive -routing adaptive -rate 0.25 -warmup 200 -measure 2000 -faults 3 -faultclass noncritical -seed 5", false},
	{"generic-poisson", "-router generic -routing xy -width 4 -height 4 -rate 0.2 -warmup 100 -measure 2000 -fault-rate 300 -fault-horizon 1500 -faultclass noncritical -audit 64", false},
	{"roco-poisson-reliable", "-router roco -routing xy -rate 0.2 -warmup 200 -measure 2000 -fault-rate 400 -fault-horizon 1500 -reliable -audit 64", false},
	{"pdr-poisson-reliable", "-router pdr -routing xy -width 4 -height 4 -rate 0.2 -warmup 100 -measure 1500 -fault-rate 300 -fault-horizon 1200 -faultclass noncritical -reliable", false},
	{"pathsensitive-faults-at-reliable", "-router pathsensitive -routing xyyx -rate 0.2 -warmup 200 -measure 2000 -faults-at 300,700 -reliable", false},
	{"roco-d2d-fault-reliable", "-router roco -routing xyyx -topology multichipmesh -chips 2x2 -chip-size 4x4 -d2d-class serial -rate 0.15 -warmup 100 -measure 1500 -d2d-fault 0:east@800 -reliable -audit 32", false},
	{"generic-d2d-static-fault", "-router generic -routing xy -topology multichipmesh -chips 2x2 -chip-size 4x4 -rate 0.15 -warmup 100 -measure 1500 -d2d-fault 5:west", false},
	{"roco-telemetry", "-router roco -routing xy -width 4 -height 4 -rate 0.2 -warmup 100 -measure 1500 -telemetry-every 128", false},
	{"roco-reference-faulted", "-router roco -routing xy -width 4 -height 4 -rate 0.2 -warmup 100 -measure 1500 -faults-at 150 -faultclass noncritical -audit 32 -kernel reference", false},
	{"roco-soa-faulted", "-router roco -routing xy -width 4 -height 4 -rate 0.2 -warmup 100 -measure 1500 -faults-at 150 -faultclass noncritical -audit 32 -kernel soa", false},
	{"generic-sharded", "-router generic -routing adaptive -rate 0.3 -warmup 200 -measure 2000 -shards 3 -workers 2", false},
	{"roco-resumed", "-router roco -routing xy -rate 0.2 -warmup 100 -measure 2000 -faults-at 150 -faultclass noncritical -reliable -checkpoint-every 100", true},
}

// TestGoldenDigests pins the rocosim -json output of every golden case to
// the SHA-256 recorded in testdata/golden. Kernel-equivalence tests only
// prove that kernels agree with each other inside one commit; these
// digests catch a change that moves every kernel's results the same way.
func TestGoldenDigests(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "rocosim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/rocosim").CombinedOutput(); err != nil {
		t.Fatalf("building rocosim: %v\n%s", err, out)
	}
	want := readGolden(t)
	got := make(map[string]string, len(goldenCases))
	for _, gc := range goldenCases {
		out := runGolden(t, bin, filepath.Join(dir, gc.name), gc)
		sum := sha256.Sum256(out)
		got[gc.name] = hex.EncodeToString(sum[:])
	}
	if *updateGolden {
		var b strings.Builder
		for _, gc := range goldenCases {
			fmt.Fprintf(&b, "%s  %s\n", got[gc.name], gc.name)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, gc := range goldenCases {
		w, ok := want[gc.name]
		if !ok {
			t.Errorf("%s: no recorded digest in %s", gc.name, goldenFile)
			continue
		}
		if got[gc.name] != w {
			t.Errorf("%s: rocosim -json %s\n digest %s, recorded %s", gc.name, gc.args, got[gc.name], w)
		}
	}
	if len(want) != len(goldenCases) {
		t.Errorf("%s holds %d digests for %d cases", goldenFile, len(want), len(goldenCases))
	}
}

// runGolden executes one case and returns its stdout; scratch is a
// per-case directory for snapshots.
func runGolden(t *testing.T, bin, scratch string, gc goldenCase) []byte {
	t.Helper()
	args := append([]string{"-json"}, strings.Fields(gc.args)...)
	if gc.resume {
		args = append(args, "-checkpoint-dir", scratch)
		if _, err := exec.Command(bin, args...).Output(); err != nil {
			t.Fatalf("%s: checkpointed run: %v", gc.name, err)
		}
		args = append(args, "-resume")
	}
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s: rocosim %s: %v\n%s", gc.name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// readGolden parses the sha256sum-format digest file into name -> digest.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	want := map[string]string{}
	f, err := os.Open(goldenFile)
	if err != nil {
		if *updateGolden {
			return want
		}
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
