package router

import (
	"fmt"
	"math/bits"

	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/trace"
)

// BrokenSet is the network-wide registry of packets that can no longer be
// delivered whole: at least one of their flits was dropped somewhere (a
// live fault condemned a buffer, a dead node drained an arrival, a doomed
// wormhole fragment was discarded). Routers sweep the set every Tick and
// doom their own resident fragments of broken packets, so a break anywhere
// propagates along the whole wormhole within a cycle and the stranded
// flits drain instead of wedging the network.
type BrokenSet struct {
	// ids maps packet ID -> cycle first broken. IDs are never removed,
	// so its length only grows and is the registry half of the sweep
	// generation.
	ids map[uint64]int64
	// faults counts fault installations anywhere in the network. A zero
	// count and an empty registry together prove the recovery scans
	// (SweepBroken, doomed drains, ReapOrphans) have nothing to do. The
	// count is also the liveness half of the sweep generation:
	// OutVCBook.Alive only changes during a fault installation, which
	// always bumps the count first.
	faults uint64
}

// NewBrokenSet returns an empty registry.
func NewBrokenSet() *BrokenSet {
	return &BrokenSet{ids: make(map[uint64]int64)}
}

// Add registers a packet as broken (idempotent; the first cycle wins).
func (b *BrokenSet) Add(id uint64, cycle int64) {
	if _, ok := b.ids[id]; !ok {
		b.ids[id] = cycle
	}
}

// Contains reports whether the packet has lost a flit.
func (b *BrokenSet) Contains(id uint64) bool {
	_, ok := b.ids[id]
	return ok
}

// Len returns the number of broken packets.
func (b *BrokenSet) Len() int { return len(b.ids) }

// MarkFaulty records that a fault was installed somewhere in the network
// (permanently — faults never heal in this simulator). Every router's
// next sweep then re-examines all of its live channels.
func (b *BrokenSet) MarkFaulty() { b.faults++ }

// Quiet reports that no fault was ever installed and no packet ever broke,
// so no router can hold doomed, dead-granted, or orphaned state.
func (b *BrokenSet) Quiet() bool { return b.faults == 0 && len(b.ids) == 0 }

// StuckFlit describes one packet stalled in a router buffer; the livelock
// watchdog collects them for its diagnostic report.
type StuckFlit struct {
	// Node and VC locate the buffer.
	Node, VC int
	// PacketID, Src, Dst and Hops identify the stalled packet's journey.
	PacketID uint64
	Src, Dst int
	Hops     int
	// StallAge is how many cycles the front flit has been eligible but
	// unable to move.
	StallAge int64
	// Doomed reports that fault handling already marked the packet for
	// discard (it is draining, not wedged).
	Doomed bool
}

// StallSource is implemented by routers that can enumerate their stalled
// buffered packets for the livelock/starvation watchdog.
type StallSource interface {
	StallScan(cycle int64) []StuckFlit
}

// GrantRef locates the bookkeeping behind one VC's front-packet VA grant:
// the credit book holding the grant queue, and the router (plus arrival
// side) holding the downstream channel claim. For PDR's internal X-to-Y
// transfers the claimant is the router itself with side Local.
type GrantRef struct {
	Book     *OutVCBook
	Claimant Router
	Side     topology.Direction
}

// orphanAge is how many cycles a doomed, broken front packet must sit with
// no buffered flits before recovery force-retires its state. Flits of a
// packet stop being forwarded anywhere the cycle after it enters the
// broken set, so on 1-cycle links the last straggler arrives within two
// cycles; four gives margin while keeping recovery prompt. Multi-cycle
// die-to-die links stretch the straggler horizon — the network raises the
// effective age through SetReapHorizon, and every drained straggler
// restarts the clock (NoteStragglerDrain), so a state is only reaped once
// no flit of its packet can still be in transit.
const orphanAge = 4

// Recovery is the live-fault half of a router: shared bookkeeping for
// dropping flits, sweeping broken packets, withdrawing dead grants, and
// retiring orphaned packet states. Router implementations embed it and
// call Recover from Tick (between arrivals and allocation). The vcs slice
// must list the router's channels in the index order used as grantee IDs
// in its output books.
//
// The scans cost what changed, not how many channels the router has: the
// sweep visits the channels whose front state changed since the last
// sweep (plus the other live channels when the broken registry or the
// fault count moved), and the drain and reap visit the doomed and
// reap-armed channels, all read off the AllocState masks in ascending
// channel order, which is the order a full scan visits them in. DisableTickFastPath turns every mask into
// "all channels", so the reference kernel stays the full-scan oracle the
// gated kernel is checked against.
type Recovery struct {
	node       int
	vcs        []*VC
	grantRef   func(vcIndex int) (GrantRef, bool)
	onAbort    func(vcIndex int)
	onDrain    func(vc *VC, feeder topology.Direction)
	dropSink   DropSink
	broken     *BrokenSet
	emptySince []int64
	reapAge    int64
	feederBusy func(topology.Direction, uint64) bool

	// severed is a bitmask over the cardinal directions of ports cut by a
	// die-to-die interface fault. A severed port carries nothing in either
	// direction: arrivals on it are dropped, its depths read as zero to the
	// upstream handshake, and CanServe denies any service through it.
	severed uint8

	// alloc holds the router's allocation bitmaps; bit i of every mask is
	// vcs[i], so the mask index space IS the grantee index space.
	alloc AllocState

	// fullScan (reference kernel) disables the dormant-tick fast path and
	// makes every recovery scan visit allVCs instead of its mask.
	fullScan bool
	allVCs   uint64
	// reapArmed is the set of channels whose orphan clock runs
	// (emptySince >= 0).
	reapArmed uint64
	// seenBroken and seenFaults are the broken registry's length and
	// fault count at the last sweep; seenBroken < 0 makes the next sweep
	// visit every live channel (after construction and snapshot loads).
	seenBroken int
	seenFaults uint64
}

// InitRecovery wires the embedded recovery state. grantRef resolves a VC
// index to its front packet's grant target (ok=false when the front packet
// holds no external grant); onAbort (optional) runs after a front state is
// force-retired, letting the router clear references to the VC (e.g. its
// injection channel); onDrain runs after each doomed flit is dropped
// (feeder is the link the front packet arrived over), so the router can
// count the drop and return the flit's credit upstream.
func (rc *Recovery) InitRecovery(node int, vcs []*VC, grantRef func(int) (GrantRef, bool), onAbort func(int), onDrain func(*VC, topology.Direction)) {
	rc.node = node
	rc.vcs = vcs
	rc.grantRef = grantRef
	rc.onAbort = onAbort
	rc.onDrain = onDrain
	rc.emptySince = make([]int64, len(vcs))
	for i := range rc.emptySince {
		rc.emptySince[i] = -1
	}
	rc.reapAge = orphanAge
	rc.seenBroken = -1
	for i, vc := range vcs {
		vc.bindAlloc(&rc.alloc, i)
		rc.allVCs |= 1 << uint(i)
	}
}

// DisableTickFastPath makes Tick run every phase even when the router is
// idle, and every recovery scan visit all channels; the reference kernel
// sets it so the ungated baseline executes the full tick-everything cost.
func (rc *Recovery) DisableTickFastPath() { rc.fullScan = true }

// Idle reports whether a tick with empty input pipes would be a pure
// no-op: every channel is dormant (no flits buffered, no packet state
// resident), so sweeping, draining, reaping, VA and SA all have nothing
// to do. Upstream claims on empty channels do not block idleness — no
// tick phase acts on a bare claim.
func (rc *Recovery) Idle() bool { return rc.alloc.live == 0 }

// SkipTick reports whether Tick may return right after its arrival phase:
// the router is Idle and the fast path is enabled.
func (rc *Recovery) SkipTick() bool { return !rc.fullScan && rc.Idle() }

// Alloc exposes the router's allocation bitmaps; the VA/SA stages read
// them instead of re-evaluating per-channel predicates each cycle.
func (rc *Recovery) Alloc() *AllocState { return &rc.alloc }

// SetDropSink installs the network's drop-accounting callback.
func (rc *Recovery) SetDropSink(s DropSink) { rc.dropSink = s }

// BindHot mirrors the router's channels into the shared struct-of-arrays
// table. rc.vcs is exactly the router's grantee-index channel order, so
// the slot layout matches the order every other per-VC structure uses.
func (rc *Recovery) BindHot(hs *HotState) { hs.BindRouter(rc.node, rc.vcs) }

// SetBroken shares the network-wide broken-packet registry.
func (rc *Recovery) SetBroken(b *BrokenSet) { rc.broken = b }

// Broken reports whether the packet is registered as broken.
func (rc *Recovery) Broken(id uint64) bool {
	return rc.broken != nil && rc.broken.Contains(id)
}

// NoteFault latches the shared registry's faulty flag; router ApplyFault
// implementations call it so the recovery scans arm even when a test
// installs a fault directly instead of through the network.
func (rc *Recovery) NoteFault() {
	if rc.broken != nil {
		rc.broken.MarkFaulty()
	}
}

// RecoveryQuiet reports that the recovery scans can be skipped this tick:
// no fault was ever installed and no packet ever broke, so SweepBroken,
// the doomed drain, and ReapOrphans are all provably no-ops. Every path
// that dooms or condemns a channel first either breaks a packet or
// installs a fault (CanServe only denies service on a faulted node), so
// a quiet network cannot hold recovery work. A router without the shared
// registry (standalone unit tests) always runs the scans.
func (rc *Recovery) RecoveryQuiet() bool {
	return rc.broken != nil && rc.broken.Quiet()
}

// SeverPort cuts the router's port d permanently (a die-to-die interface
// fault). Resident front packets already routed through d are doomed on
// the spot; the next SweepBroken withdraws their grants and claims, and
// the doomed drains discard their flits — the same recovery machinery a
// node death uses. The router's own service checks (CanServe, depths,
// claims, arrivals) consult Severed; the network re-propagates the
// neighbor handshake after severing both endpoints.
func (rc *Recovery) SeverPort(d topology.Direction) {
	if !d.IsCardinal() {
		panic(fmt.Sprintf("router: cannot sever non-cardinal port %v", d))
	}
	rc.NoteFault()
	rc.severed |= 1 << uint(d)
	for _, vc := range rc.vcs {
		if vc.OutPort() == d {
			vc.Doom()
		}
		// Claims fed over the severed link that no admitted packet backs
		// can never be fulfilled: their heads were dropped at the dead
		// interface or will never be sent. Release them now, or the latched
		// feeder keeps the channel unclaimable forever. The upstream's own
		// never-streamed grant withdrawal is suppressed by the Severed
		// guard in ReleaseInputVC, so the release happens exactly once.
		vc.PurgeClaims(d)
	}
}

// Severed reports whether port d was cut by a D2D interface fault.
// Non-cardinal directions (Local ejection, Invalid probes) are never
// severed.
func (rc *Recovery) Severed(d topology.Direction) bool {
	return d.IsCardinal() && rc.severed&(1<<uint(d)) != 0
}

// AnySevered reports whether any port of the router was cut.
func (rc *Recovery) AnySevered() bool { return rc.severed != 0 }

// DropFlit reports one discarded flit, with its cause, to the trace and the
// network's drop sink (which registers the packet as broken and keeps the
// conservation ledger).
func (rc *Recovery) DropFlit(f *flit.Flit, cycle int64, reason trace.DropReason) {
	if f.Rec != nil && f.Type.IsHead() {
		f.Rec.Drop(rc.node, cycle, reason)
	}
	if rc.dropSink != nil {
		rc.dropSink(f, cycle, reason)
	}
}

// BufferedFlits counts the flits buffered across all channels.
func (rc *Recovery) BufferedFlits() int {
	n := 0
	for _, vc := range rc.vcs {
		n += vc.Len()
	}
	return n
}

// VCOccupancy adds each channel's buffered flit count into per, bucketed
// by the channel's path-set class, and returns the total added. Channels
// whose implementation never assigns a class (the baseline routers) all
// land in the zero-value bucket (ContinueX). Read-only; the telemetry
// collector samples it at epoch boundaries.
func (rc *Recovery) VCOccupancy(per *[routing.NumClasses]int32) int {
	total := 0
	for _, vc := range rc.vcs {
		n := vc.Len()
		if n == 0 {
			continue
		}
		per[vc.Class] += int32(n)
		total += n
	}
	return total
}

// Recover is a live router's per-tick recovery phase: SweepBroken, then
// the doomed drain and ReapOrphans. A quiet network skips it (see
// RecoveryQuiet) except under the reference kernel's full scans.
func (rc *Recovery) Recover(cycle int64, huntDeadGrants bool) {
	if !rc.fullScan && rc.RecoveryQuiet() {
		return
	}
	rc.SweepBroken(cycle, huntDeadGrants)
	rc.RetireDoomed(cycle)
}

// RetireDoomed drains the buffered flits of doomed front packets and
// reaps orphaned states; it is the whole recovery phase of a dead node.
func (rc *Recovery) RetireDoomed(cycle int64) {
	rc.drainDoomed(cycle)
	rc.ReapOrphans(cycle)
}

// SweepBroken dooms resident front packets that can no longer complete and
// withdraws their outstanding VA grants. Two triggers: the packet is in
// the broken set (it lost a flit elsewhere), or — when huntDeadGrants is
// set — its granted downstream channel died under it (a runtime fault
// zeroed the channel's depth after the grant). Hunting dead grants is the
// RoCo router's fault-handshake hardware reacting to the re-propagated
// credit state; the baselines lack the mechanism, so a packet granted into
// a node that dies before it streams wedges its channel (and every channel
// queued behind it) until the watchdog reports it.
//
// A channel's outcome depends only on its front state, on whether that
// packet is registered broken, and on its granted channel's liveness, and
// a visited channel is left in a state whose next visit is a no-op. So
// the sweep visits the dirty channels (front state changed), and every
// live one when the generation — the registry's length and the fault
// count — moved: a new broken ID can doom any unchanged front, and a
// fault installation can flip OutVCBook.Alive under a grant.
func (rc *Recovery) SweepBroken(cycle int64, huntDeadGrants bool) {
	a := &rc.alloc
	visit := a.dirty & a.live
	a.dirty = 0
	if b := rc.broken; rc.fullScan || b == nil {
		visit = rc.allVCs
	} else if rc.seenBroken != len(b.ids) || rc.seenFaults != b.faults {
		visit = a.live
		rc.seenBroken, rc.seenFaults = len(b.ids), b.faults
	}
	for m := visit; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		vc := rc.vcs[i]
		st, ok := vc.FrontState()
		if !ok {
			continue
		}
		if !st.Doomed {
			broke := rc.Broken(st.PacketID)
			deadGrant := false
			if !broke && huntDeadGrants && st.OutVC >= 0 && !st.EjectNext {
				if ref, refOK := rc.grantRef(i); refOK && ref.Book != nil && !ref.Book.Alive(st.OutVC) {
					deadGrant = true
				}
			}
			if !broke && !deadGrant {
				continue
			}
			vc.Doom()
			st.Doomed = true
		}
		// Withdraw the doomed front packet's grant exactly once so the next
		// grantee of the downstream channel can stream; release the
		// downstream claim only if nothing of the packet ever streamed
		// (otherwise the downstream fragment retires the claim itself).
		if st.OutVC >= 0 && !st.EjectNext && !st.Cancelled {
			if ref, refOK := rc.grantRef(i); refOK {
				if ref.Book != nil {
					ref.Book.CancelGrant(st.OutVC, i)
				}
				if !st.Streamed && ref.Claimant != nil {
					ref.Claimant.ReleaseInputVC(ref.Side, st.OutVC)
				}
			}
			vc.CancelFrontGrant()
		}
	}
}

// drainDoomed discards the buffered flits of doomed front packets, one
// packet per channel per tick, reporting each drop and handing it to the
// router's onDrain hook for the credit return.
func (rc *Recovery) drainDoomed(cycle int64) {
	visit := rc.alloc.doomed
	if rc.fullScan {
		visit = rc.allVCs
	}
	for m := visit; m != 0; m &= m - 1 {
		vc := rc.vcs[bits.TrailingZeros64(m)]
		for {
			feeder := vc.Feeder()
			f := vc.DrainDoomed()
			if f == nil {
				break
			}
			rc.NoteStragglerDrain(vc)
			rc.DropFlit(f, cycle, trace.DropInFlight)
			rc.onDrain(vc, feeder)
			if f.Type.IsTail() {
				break
			}
		}
	}
}

// ReapOrphans force-retires doomed front packet states whose remaining
// flits were dropped elsewhere and can never arrive: the packet is broken,
// none of its flits are buffered here, and the situation has persisted
// past the in-flight horizon. Without the reap, the fragment state would
// hold its channel (and the packets queued behind it) forever. Only a
// doomed channel can arm its clock and only an armed one needs disarming,
// so the scan visits doomed | reapArmed.
func (rc *Recovery) ReapOrphans(cycle int64) {
	visit := rc.alloc.doomed | rc.reapArmed
	if rc.fullScan {
		visit = rc.allVCs
	}
	for m := visit; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		vc := rc.vcs[i]
		st, ok := vc.FrontState()
		if !ok || !st.Doomed || !rc.Broken(st.PacketID) || vc.FrontPacketBuffered() ||
			(rc.feederBusy != nil && rc.feederBusy(vc.Feeder(), st.PacketID)) {
			rc.disarm(i)
			continue
		}
		if rc.emptySince[i] < 0 {
			rc.emptySince[i] = cycle
			rc.reapArmed |= 1 << uint(i)
			continue
		}
		if cycle-rc.emptySince[i] < rc.reapAge {
			continue
		}
		vc.AbortFront()
		rc.disarm(i)
		if rc.onAbort != nil {
			rc.onAbort(i)
		}
	}
}

// MaskSet is a copy of a router's recovery-scan masks; bit i of each
// field is the router's channel i.
type MaskSet struct {
	Live, Doomed, ReapArmed uint64
}

// ScanMasks returns the incrementally kept masks and the same masks
// recomputed from every channel's own state. The two agree at every
// cycle boundary; tests assert it, since a drifted mask would make the
// gated kernel skip a channel the reference kernel's full scan visits.
// The derived Live takes every non-dormant channel, so the check also
// proves that live doubles as the busy set Idle reads.
func (rc *Recovery) ScanMasks() (kept, derived MaskSet) {
	a := &rc.alloc
	kept = MaskSet{Live: a.live, Doomed: a.doomed, ReapArmed: rc.reapArmed}
	for i, vc := range rc.vcs {
		b := uint64(1) << uint(i)
		if vc.Active() || !vc.Dormant() {
			derived.Live |= b
		}
		if vc.Doomed() {
			derived.Doomed |= b
		}
		if rc.emptySince[i] >= 0 {
			derived.ReapArmed |= b
		}
	}
	return kept, derived
}

// disarm stops channel i's orphan clock.
func (rc *Recovery) disarm(i int) {
	rc.emptySince[i] = -1
	rc.reapArmed &^= 1 << uint(i)
}

// SetFeederProbe installs the router's view of its input links: busy(d,
// pkt) reports whether a flit of packet pkt is still in transit toward the
// router on side d. ReapOrphans holds the orphan clock while the link
// feeding a doomed front state still carries its packet — the link FIFO
// interleaves packets, so on a serialized die-to-die pipe a straggler of
// the doomed packet can lawfully land many cycles after its predecessor,
// queued behind other packets' flits. The probe is per-packet, not
// per-link: a merely busy link (saturated steady-state traffic) must not
// starve the reap, or the doomed state holds its channel forever and
// wedges everything queued behind it. Once the pipe carries nothing of the
// packet, no straggler can ever arrive (upstream fragments of a broken
// packet drain instead of forwarding), and the clock runs.
func (rc *Recovery) SetFeederProbe(busy func(topology.Direction, uint64) bool) {
	rc.feederBusy = busy
}

// SetReapHorizon stretches the orphan-reap age for networks whose links can
// hold flits in transit longer than the on-die single cycle: maxLinkDelay
// is the slowest link's per-flit horizon (the larger of its latency and its
// serialization gap). Reaping a front state while a flit of its packet can
// still arrive would let a straggler land in an idle — or worse, a
// reclaimed — channel, so the age must exceed the longest lawful quiet
// interval between straggler deliveries.
func (rc *Recovery) SetReapHorizon(maxLinkDelay int64) {
	if age := orphanAge + maxLinkDelay; age > rc.reapAge {
		rc.reapAge = age
	}
}

// NoteStragglerDrain restarts vc's orphan clock: a flit of its doomed front
// packet just drained, so more may still be in flight behind it. Without
// the reset, stragglers trickling over a serialized die-to-die link — each
// drained the very cycle it lands, leaving the channel unbuffered at every
// reap scan — would never hold the reap off.
func (rc *Recovery) NoteStragglerDrain(vc *VC) {
	if i := vc.granteeIndex(); i >= 0 && i < len(rc.emptySince) {
		rc.disarm(i)
	}
}

// StallScan reports every buffered front packet and how long its front
// flit has been eligible to move, for the watchdog's diagnostic.
func (rc *Recovery) StallScan(cycle int64) []StuckFlit {
	var out []StuckFlit
	for i, vc := range rc.vcs {
		f := vc.Front()
		if f == nil {
			continue
		}
		age := cycle - f.ReadyAt
		if age < 0 {
			age = 0
		}
		out = append(out, StuckFlit{
			Node:     rc.node,
			VC:       i,
			PacketID: f.PacketID,
			Src:      f.Src,
			Dst:      f.Dst,
			Hops:     f.Hops,
			StallAge: age,
			Doomed:   vc.Doomed(),
		})
	}
	return out
}
