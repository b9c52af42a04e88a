package network

import (
	"bytes"
	"sort"
	"testing"

	"github.com/rocosim/roco/internal/core"
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/snapshot"
	"github.com/rocosim/roco/internal/stats"
	"github.com/rocosim/roco/internal/topology"
)

// maskProbe is the view of a router the mask test needs; every router
// kind gets it from the embedded router.Recovery.
type maskProbe interface {
	ScanMasks() (kept, derived router.MaskSet)
}

// checkScanMasks fails unless every router's kept recovery masks equal
// the masks recomputed from its channels, and ORs what it saw into seen.
func checkScanMasks(t *testing.T, n *Network, seen *router.MaskSet) {
	t.Helper()
	for id := range n.routers {
		kept, derived := n.Router(id).(maskProbe).ScanMasks()
		if kept != derived {
			t.Fatalf("cycle %d router %d: kept masks %+v, channels say %+v", n.Cycle(), id, kept, derived)
		}
		seen.Live |= kept.Live
		seen.Doomed |= kept.Doomed
		seen.ReapArmed |= kept.ReapArmed
	}
}

// TestRecoveryMasksMirrorChannels pins the incremental recovery masks the
// gated kernel's scans run off: after every step of a faulted run —
// static, Poisson and die-to-die interface faults with the Reliable
// protocol on — each router's live mask holds exactly its non-dormant
// channels (which all hold a packet state), its doomed mask the channels
// with a doomed front, and reapArmed exactly the channels whose orphan
// clock runs. The same holds right after a mid-fault
// checkpoint is restored and for the steps after it.
func TestRecoveryMasksMirrorChannels(t *testing.T) {
	topos := []struct {
		name string
		topo topology.Topology
		d2d  bool
	}{
		{"mesh", topology.NewMesh(6, 6), false},
		{"multichip", topology.NewMultiChipMesh(2, 2, 4, 4), true},
	}
	const steps, ckpt, resumed = 900, 450, 300
	for _, b := range kernelBuilders {
		for _, tp := range topos {
			b, tp := b, tp
			t.Run(b.name+"/"+tp.name, func(t *testing.T) {
				t.Parallel()
				cfg := kernelConfig(b.build, 17)
				cfg.Topo = tp.topo
				cfg.Reliable = true
				cfg.Faults = []fault.Fault{{Node: 9, Component: fault.Crossbar, Module: fault.RowModule}}
				poisson := fault.PoissonSchedule(fault.Critical, 150, 600, tp.topo.Nodes(), core.NumVCs, stats.NewRNG(0x5eed))
				events := poisson.Events()
				if tp.d2d {
					cfg.D2DLatency, cfg.D2DGap = 4, 4
					events = append(events, fault.Event{Cycle: 300,
						Fault: fault.Fault{Node: 0, Component: fault.D2DIf, Port: topology.East}})
					sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
				}
				cfg.Schedule = fault.NewSchedule(events)

				n := New(cfg)
				var seen router.MaskSet
				var frame bytes.Buffer
				for i := 0; i < steps; i++ {
					n.Step()
					checkScanMasks(t, n, &seen)
					if n.Cycle() == ckpt {
						e := snapshot.NewEncoder()
						n.SaveState(e)
						if _, err := e.WriteTo(&frame); err != nil {
							t.Fatalf("writing snapshot: %v", err)
						}
					}
				}
				if len(n.faultLog) == 0 || seen.Doomed == 0 || seen.ReapArmed == 0 {
					t.Fatalf("vacuous run: %d runtime faults, doomed ever %#x, reap-armed ever %#x",
						len(n.faultLog), seen.Doomed, seen.ReapArmed)
				}

				d, err := snapshot.Read(bytes.NewReader(frame.Bytes()))
				if err != nil {
					t.Fatalf("reading snapshot: %v", err)
				}
				r := New(cfg)
				r.LoadState(d)
				if err := d.Finish(); err != nil {
					t.Fatalf("restoring snapshot: %v", err)
				}
				checkScanMasks(t, r, &seen)
				for i := 0; i < resumed; i++ {
					r.Step()
					checkScanMasks(t, r, &seen)
				}
			})
		}
	}
}
