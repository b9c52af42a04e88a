package core

import (
	"fmt"
	"math/bits"

	"github.com/rocosim/roco/internal/arbiter"
	"github.com/rocosim/roco/internal/fault"
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/topology"
	"github.com/rocosim/roco/internal/trace"
)

// Router is the RoCo decoupled router.
type Router struct {
	router.Recovery

	id     int
	engine *router.RouteEngine
	cfg    VCConfig
	sink   router.Sink

	in        [5]*router.Conn
	out       [5]*router.Conn
	books     [5]*router.OutVCBook
	neighbors [5]router.Router

	vcs [NumVCs]*router.VC

	// Per-module allocation hardware.
	vaArb [5][]arbiter.RoundRobin // per (output dir, downstream vc id); value slab, not boxed

	saArb  [2][2][2]*arbiter.RoundRobin
	mirror [2]*arbiter.Mirror
	outArb [2][2]*arbiter.RoundRobin // separable fallback: per (module, port) nomination
	outSel [2][2]*arbiter.RoundRobin // separable fallback: per (module, direction) selection

	// disableMirror replaces the Mirroring-Effect allocator with a plain
	// separable output stage (one 2:1 arbiter per output, no mirrored
	// global decision). Ablation only: quantifies what the mirror buys.
	disableMirror bool

	injVC int

	// Fault state (Hardware Recycling, paper Section 4).
	blocked  [2]bool // module isolated (VA/crossbar/MUX-DEMUX failure)
	saShared [2]bool // SA offloaded onto the module's VA arbiters
	rcFault  bool    // routing unit failed: neighbors double-route
	vaBusy   [2]bool // VA handled a header this cycle (gates shared SA)

	act  router.Activity
	cont router.Contention

	// Per-cycle request scratch as bitmaps over the router-wide VC ids:
	// vaFailed marks failed VA requesters (speculative SA), targReq[out][c]
	// collects the requesters of downstream channel c through output out,
	// targUsed[out] marks the c with requesters, and vaNext records each
	// requester's look-ahead route.
	vaFailed uint64
	targReq  [5][NumVCs]uint64
	targUsed [5]uint16
	vaNext   [NumVCs]topology.Direction
}

// Module bit masks over the router-wide VC id namespace: ids 0-5 are the
// Row-Module's channels, ids 6-11 the Column-Module's.
const (
	modVCMask = uint64(1)<<(2*VCsPerSet) - 1
	rowVCMask = modVCMask
	colVCMask = modVCMask << (2 * VCsPerSet)
)

// moduleVCMask returns the VC-id bitmap of module m's channels.
func moduleVCMask(m Module) uint64 {
	if m == Row {
		return rowVCMask
	}
	return colVCMask
}

// New returns a RoCo router for the given node, configured per Table 1 for
// the engine's routing algorithm.
func New(id int, engine *router.RouteEngine) *Router {
	r := &Router{id: id, engine: engine, cfg: ConfigFor(engine.Algorithm()), injVC: -1}
	for v := 0; v < NumVCs; v++ {
		vc := engine.NewVC(v, BufferDepth)
		vc.Class = r.cfg.Class[v]
		r.vcs[v] = vc
	}
	for _, d := range topology.CardinalDirections {
		r.vaArb[d] = arbiter.NewRoundRobinSlice(NumVCs, NumVCs)
	}
	for m := 0; m < 2; m++ {
		for p := 0; p < 2; p++ {
			for d := 0; d < 2; d++ {
				r.saArb[m][p][d] = arbiter.NewRoundRobin(VCsPerSet)
			}
			r.outArb[m][p] = arbiter.NewRoundRobin(2)
			r.outSel[m][p] = arbiter.NewRoundRobin(2)
		}
		r.mirror[m] = arbiter.NewMirror()
	}
	r.InitRecovery(id, r.vcs[:], r.grantTarget, r.abortCleanup, r.drained)
	r.SetFeederProbe(func(d topology.Direction, pkt uint64) bool {
		return d.IsCardinal() && r.in[d] != nil && r.in[d].Flit.Carries(pkt)
	})
	return r
}

// grantTarget resolves a VC index to its front packet's grant target.
func (r *Router) grantTarget(i int) (router.GrantRef, bool) {
	out := r.vcs[i].OutPort()
	if !out.IsCardinal() {
		return router.GrantRef{}, false
	}
	return router.GrantRef{Book: r.books[out], Claimant: r.neighbors[out], Side: out.Opposite()}, true
}

// abortCleanup releases the injection channel if the aborted packet was
// the one being injected.
func (r *Router) abortCleanup(i int) {
	if r.injVC == i {
		r.injVC = -1
	}
}

// DisableMirror switches the router's switch allocation to a plain
// separable output stage. Call before traffic flows; ablation use only.
func (r *Router) DisableMirror() { r.disableMirror = true }

// Config exposes the router's Table 1 VC configuration (tests and the
// Table 1 experiment read it).
func (r *Router) Config() VCConfig { return r.cfg }

// ID returns the node this router serves.
func (r *Router) ID() int { return r.id }

// AttachInput wires an arriving link.
func (r *Router) AttachInput(d topology.Direction, c *router.Conn) { r.in[d] = c }

// AttachOutput wires a departing link and sizes its credit book from the
// downstream per-VC depths.
func (r *Router) AttachOutput(d topology.Direction, c *router.Conn, depths []int) {
	r.out[d] = c
	r.books[d] = router.NewOutVCBook(len(depths), BufferDepth)
	for vc, depth := range depths {
		if depth != BufferDepth {
			r.books[d].SetDepth(vc, depth)
		}
	}
}

// SetNeighbor records the router reached through output d.
func (r *Router) SetNeighbor(d topology.Direction, n router.Router) { r.neighbors[d] = n }

// SetSink installs the PE delivery callback.
func (r *Router) SetSink(s router.Sink) { r.sink = s }

// Activity returns the per-component event counters.
func (r *Router) Activity() *router.Activity { return &r.act }

// Contention returns the switch-conflict tallies.
func (r *Router) Contention() *router.Contention { return &r.cont }

// ApplyFault reacts to a permanent fault per the Hardware Recycling table:
// RC failures are absorbed by downstream double routing, buffer failures by
// virtual queuing over the bypass path, SA failures by offloading onto the
// idle VA arbiters, and VA/crossbar/MUX-DEMUX failures by isolating the
// afflicted module while the other module keeps full service.
func (r *Router) ApplyFault(flt fault.Fault) {
	r.NoteFault()
	m := Module(flt.Module % 2)
	switch flt.Component {
	case fault.RC:
		r.rcFault = true
	case fault.Buffer:
		id := flt.VC % NumVCs
		vc := r.vcs[id]
		vc.Faulty = true
		vc.FaultPenalty = 2 // round-trip of the virtual-queuing handshake
		// Installed live, the failed buffer's contents are lost; virtual
		// queuing protects only traffic arriving after the reconfiguration.
		vc.DoomResidents()
	case fault.SA:
		r.saShared[m] = true
	case fault.VA, fault.Crossbar, fault.MuxDemux:
		r.blocked[m] = true
		// Traffic resident in the isolated module can never traverse its
		// crossbar again; condemn it so the wormholes drain as drops.
		for id, vc := range r.vcs {
			if ModuleOfVC(id) == m {
				vc.Condemn()
			}
		}
	}
}

// RefreshOutput re-propagates the downstream input-VC depths into output
// d's credit book after a runtime fault changed them (the credit half of
// the paper's fault-handshake signals).
func (r *Router) RefreshOutput(d topology.Direction, depths []int) {
	b := r.books[d]
	if b == nil {
		return
	}
	for vc, depth := range depths {
		b.SetDepth(vc, depth)
	}
}

// Blocked reports whether module m is isolated (tests use it).
func (r *Router) Blocked(m Module) bool { return r.blocked[m] }

// CanServe reports whether a flit entering on side from and leaving
// through out can be served. Early ejection (out == Local) survives module
// faults; a cardinal output requires its module alive and a VC class for
// the (from, out) transition to exist in the configuration.
func (r *Router) CanServe(from, out topology.Direction) bool {
	if r.Severed(from) || r.Severed(out) {
		return false
	}
	switch out {
	case topology.Local:
		return true
	case topology.Invalid:
		// "Any service at all": at least one module still operates (the
		// decoupled design's graceful degradation) or ejection suffices.
		return !r.blocked[Row] || !r.blocked[Col]
	}
	if r.blocked[ModuleOf(out)] {
		return false
	}
	turn := routing.TurnOf(from, out)
	for _, mode := range []flit.RouteMode{flit.XFirst, flit.YFirst} {
		for id := range r.cfg.Class {
			if r.cfg.Admits(id, turn, mode, out) && !r.blocked[ModuleOfVC(id)] {
				return true
			}
		}
	}
	return false
}

// CongestionCost estimates pressure on output out from the credit
// occupancy of its book; a blocked module is infinitely expensive.
func (r *Router) CongestionCost(out topology.Direction) float64 {
	if out.IsCardinal() && r.blocked[ModuleOf(out)] {
		return 1e9
	}
	b := r.books[out]
	if b == nil {
		return 0
	}
	capacity := b.Size() * BufferDepth
	return float64(capacity-b.FreeSlots()) / float64(capacity)
}

// NumInputVCs returns the router-wide VC namespace size.
func (r *Router) NumInputVCs(topology.Direction) int { return NumVCs }

// InputVCDepth returns the usable depth of VC vc (1 under virtual queuing,
// 0 inside a blocked module).
func (r *Router) InputVCDepth(from topology.Direction, vc int) int {
	if r.blocked[ModuleOfVC(vc)] || r.Severed(from) {
		return 0
	}
	return r.vcs[vc].Capacity()
}

// InputVCClaimable reports whether VC vc can take a new packet arriving
// over link from.
func (r *Router) InputVCClaimable(from topology.Direction, vc int) bool {
	return !r.blocked[ModuleOfVC(vc)] && !r.Severed(from) && r.vcs[vc].Claimable(from)
}

// ClaimableMask returns every claimable VC as a bitmap over the
// router-wide id namespace, with blocked modules' channels masked out.
func (r *Router) ClaimableMask(from topology.Direction) uint64 {
	if r.Severed(from) {
		return 0
	}
	mask := r.Alloc().Claimable(from)
	if r.blocked[Row] {
		mask &^= rowVCMask
	}
	if r.blocked[Col] {
		mask &^= colVCMask
	}
	return mask
}

// ClaimInputVC reserves VC vc for an inbound packet.
func (r *Router) ClaimInputVC(from topology.Direction, vc int) bool {
	if !r.InputVCClaimable(from, vc) {
		return false
	}
	r.vcs[vc].Claim(from)
	return true
}

// ReleaseInputVC returns a claim whose packet will never arrive.
func (r *Router) ReleaseInputVC(from topology.Direction, vc int) {
	if r.Severed(from) {
		// SeverPort already purged unbacked claims on the dead interface;
		// honoring the upstream's withdrawal would double-release.
		return
	}
	r.vcs[vc].ReleaseClaim()
}

// Quiescent reports whether no flit is buffered anywhere in the router.
func (r *Router) Quiescent() bool {
	for _, vc := range r.vcs {
		if vc.Len() > 0 {
			return false
		}
	}
	return true
}

// SkipCycles replays n idle ticks in O(1). An idle RoCo tick always counts
// a cycle (blocked modules do not stop the clock), clears the vaBusy
// latches, and runs each unblocked module's Mirror allocation round with
// no requests — which still toggles the primary port. (With saShared the
// module also reaches Allocate on idle ticks, because vaBusy is false; the
// disableMirror fallback uses round-robin arbiters, which hold still.)
func (r *Router) SkipCycles(n int64) {
	r.act.Cycles += n
	r.vaBusy[Row], r.vaBusy[Col] = false, false
	if !r.disableMirror {
		for m := Module(0); m < numModules; m++ {
			if !r.blocked[m] {
				r.mirror[m].SkipRounds(n)
			}
		}
	}
}

// TryInject offers the next flit of the PE's current packet. Self-addressed
// packets are delivered straight back to the PE.
func (r *Router) TryInject(f *flit.Flit, cycle int64) bool {
	if f.Type.IsHead() && f.OutPort == topology.Local {
		// Loopback: the packet never enters the network fabric.
		r.sink(f, cycle)
		if !f.Type.IsTail() {
			r.injVC = -2 // sentinel: loopback packet in progress
		}
		return true
	}
	if r.injVC == -2 {
		r.sink(f, cycle)
		if f.Type.IsTail() {
			r.injVC = -1
		}
		return true
	}
	if f.Type.IsHead() {
		if r.injVC >= 0 {
			return false
		}
		class := routing.InjectX
		if f.OutPort.IsY() {
			class = routing.InjectY
		}
		for id, cl := range r.cfg.Class {
			if cl != class || r.blocked[ModuleOfVC(id)] {
				continue
			}
			vc := r.vcs[id]
			if vc.Claimable(topology.Local) && vc.HasRoom() {
				f.ReadyAt = cycle + 1
				vc.Claim(topology.Local)
				vc.PushFrom(f, topology.Local)
				r.act.BufferWrites++
				if !f.Type.IsTail() {
					r.injVC = id
				}
				return true
			}
		}
		return false
	}
	if r.injVC < 0 {
		return false
	}
	vc := r.vcs[r.injVC]
	if !vc.HasRoom() {
		return false
	}
	f.ReadyAt = cycle + 1
	vc.PushFrom(f, topology.Local)
	r.act.BufferWrites++
	if f.Type.IsTail() {
		r.injVC = -1
	}
	return true
}

// Tick advances the router one cycle.
func (r *Router) Tick(cycle int64) {
	r.act.Cycles++

	// Credits from downstream.
	for _, d := range topology.CardinalDirections {
		if r.out[d] == nil {
			continue
		}
		for _, vc := range r.out[d].Credit.Read() {
			r.books[d].ReturnCredit(vc)
		}
	}

	// Arrivals: early-eject or guided-queue into the upstream-allocated VC.
	for _, d := range topology.CardinalDirections {
		if r.in[d] == nil {
			continue
		}
		f := r.in[d].Flit.Read()
		if f == nil {
			continue
		}
		if r.Severed(d) {
			// The boundary link was cut with this flit in flight; it never
			// reaches the decoders and its wormhole breaks (no credit either
			// — the interface is dead in both directions).
			r.act.DroppedFlits++
			r.DropFlit(f, cycle, trace.DropInFlight)
			continue
		}
		f.Hops++
		if f.OutPort == topology.Local {
			// Early Ejection: delivered straight off the input decoder,
			// skipping SA and switch traversal entirely.
			r.act.EarlyEjections++
			r.sink(f, cycle)
			continue
		}
		if ModuleOfVC(f.VC) != ModuleOf(f.OutPort) {
			panic(fmt.Sprintf("core: guided queuing violation: %v into vc %d", f, f.VC))
		}
		f.ReadyAt = cycle + 1 + f.Penalty
		if f.Penalty > 0 {
			// Double routing on behalf of a neighbor with a failed RC unit.
			r.act.RouteComputations++
			f.Penalty = 0
		}
		if f.Rec != nil {
			f.Rec.Visit(r.id, cycle, trace.Arrived)
		}
		r.vcs[f.VC].PushFrom(f, d)
		r.act.BufferWrites++
	}

	// Fast path: with every channel dormant the recovery and allocation
	// phases below reduce to the idle tick that SkipCycles replays —
	// clear the vaBusy latches and toggle each unblocked module's mirror
	// primary (the cycle counter already moved above).
	if r.SkipTick() {
		r.vaBusy[Row], r.vaBusy[Col] = false, false
		if !r.disableMirror {
			for m := Module(0); m < numModules; m++ {
				if !r.blocked[m] {
					r.mirror[m].SkipRounds(1)
				}
			}
		}
		return
	}

	// Fault recovery: react to broken packets and dead grants (the RoCo
	// fault-handshake hardware), drain condemned wormholes, retire orphaned
	// fragments.
	r.Recover(cycle, true)
	r.vaBusy[Row], r.vaBusy[Col] = false, false
	r.allocateVCs(cycle)
	for m := Module(0); m < numModules; m++ {
		r.allocateSwitch(m, cycle)
	}
}

// drained counts a doomed flit the recovery drain discarded and returns
// its credit upstream.
func (r *Router) drained(vc *router.VC, feeder topology.Direction) {
	r.act.DroppedFlits++
	if feeder.IsCardinal() && r.in[feeder] != nil {
		r.in[feeder].Credit.Write(vc.Index)
	}
}

// allocateVCs runs the two modules' separable VC allocators (they are
// physically independent; one pass covers both since requests never cross
// modules). Requesters come off the needVA bitmap with blocked modules
// masked out; candidate selection intersects the configuration's admit
// mask with the cached downstream alive-and-claimable mask.
func (r *Router) allocateVCs(cycle int64) {
	r.vaFailed = 0
	need := r.Alloc().NeedVA()
	if r.blocked[Row] {
		need &^= rowVCMask
	}
	if r.blocked[Col] {
		need &^= colVCMask
	}
	if need == 0 {
		return
	}
	// Each output's downstream claimable set is fetched once per cycle;
	// nothing claims during request building, so the cached mask is exact,
	// and the grant phase still re-checks through ClaimInputVC.
	var nbrClaim [5]uint64
	var nbrClaimOK [5]bool

	for mm := need; mm != 0; mm &= mm - 1 {
		id := bits.TrailingZeros64(mm)
		vc := r.vcs[id]
		if !vc.FrontReady(cycle) {
			continue
		}
		r.vaBusy[ModuleOfVC(id)] = true
		r.act.VAOps++
		if DebugCollect != nil {
			DebugCollect.Ops[vc.Class]++
		}
		if vc.NextOut() == topology.Invalid {
			r.act.RouteComputations++
		}
		c, nextOut, ok := r.selectDownstreamVC(vc, vc.Front(), &nbrClaim, &nbrClaimOK)
		if !ok {
			// A head flit bound for downstream early ejection needs no
			// channel at all; anything else failed allocation this cycle.
			if !vc.EjectNext() {
				r.vaFailed |= 1 << uint(id)
			}
			continue
		}
		out := vc.OutPort()
		r.targReq[out][c] |= 1 << uint(id)
		r.targUsed[out] |= 1 << uint(c)
		r.vaNext[id] = nextOut
	}

	for _, out := range topology.CardinalDirections {
		used := r.targUsed[out]
		if used == 0 {
			continue
		}
		r.targUsed[out] = 0
		for uc := used; uc != 0; uc &= uc - 1 {
			c := bits.TrailingZeros16(uc)
			reqs := r.targReq[out][c]
			r.targReq[out][c] = 0
			w := r.vaArb[out][c].GrantMask(reqs)
			r.vaFailed |= reqs &^ (1 << uint(w))
			nbr := r.neighbors[out]
			if nbr == nil || !nbr.ClaimInputVC(out.Opposite(), c) {
				r.vaFailed |= 1 << uint(w)
				continue
			}
			vc := r.vcs[w]
			r.books[out].EnqueueGrant(c, w)
			vc.GrantRoute(c, r.vaNext[w])
			r.act.VAGrants++
			if DebugCollect != nil {
				DebugCollect.Grants[vc.Class]++
			}
		}
	}
}

// selectDownstreamVC computes the look-ahead route and picks one candidate
// downstream channel for a head flit (the input stage of the separable VA).
// claim/claimOK lazily cache each output's downstream claimable mask for
// the cycle.
func (r *Router) selectDownstreamVC(vc *router.VC, head *flit.Flit, claim *[5]uint64, claimOK *[5]bool) (int, topology.Direction, bool) {
	out := vc.OutPort()
	nbr := r.neighbors[out]
	book := r.books[out]
	if nbr == nil || book == nil {
		return 0, topology.Invalid, false
	}
	downstream, ok := r.engine.Topology().Neighbor(r.id, out)
	if !ok {
		return 0, topology.Invalid, false
	}
	from := out.Opposite() // the side the flit enters the downstream router on
	nextOut := r.engine.RouteAt(downstream, from, head)
	vc.SetNextOut(nextOut)

	if nextOut == topology.Local {
		if !nbr.CanServe(from, topology.Local) {
			vc.Doom()
			return 0, topology.Invalid, false
		}
		// Early ejection downstream: no channel needed.
		vc.GrantEject()
		return 0, topology.Invalid, false // no arbitration required; not a failure
	}
	if !nbr.CanServe(from, nextOut) {
		// A permanent fault blocks the packet's only route; static fault
		// handling discards it rather than letting the stranded wormhole
		// assert backpressure forever.
		vc.Doom()
		return 0, topology.Invalid, false
	}

	if !claimOK[out] {
		claimOK[out] = true
		claim[out] = nbr.ClaimableMask(from)
	}
	turn := routing.TurnOf(from, nextOut)
	c, ok := r.pickCandidate(book.AliveMask()&claim[out], book, turn, nextOut, head)
	return c, nextOut, ok
}

// pickCandidate returns the least-loaded downstream channel among avail
// (the downstream alive-and-claimable mask) that the packet's class and
// direction discipline admits, spreading back-to-back packets across
// equivalent channels.
func (r *Router) pickCandidate(avail uint64, book *router.OutVCBook, turn routing.Turn, nextOut topology.Direction, head *flit.Flit) (int, bool) {
	best, bestLoad := -1, 0
	for m := r.cfg.AdmitMask(turn, head.Mode, nextOut) & avail; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		if load := book.QueuedGrants(id); best < 0 || load < bestLoad {
			best, bestLoad = id, load
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// allocateSwitch runs one module's Mirroring-Effect switch allocation and
// forwards the winners through its 2x2 crossbar.
func (r *Router) allocateSwitch(m Module, cycle int64) {
	if r.blocked[m] {
		return
	}
	if r.saShared[m] && r.vaBusy[m] {
		// SA fault with resource sharing: the VA arbiters stand in for the
		// broken SA hardware, but only on cycles they are not processing a
		// header (the VA is a per-packet unit; the paper's Figure 7).
		return
	}

	var has [2][2]bool
	var winner [2][2]int
	base := int(m) * 2 * VCsPerSet

	// Figure 3 contention: a crossbar input port requests a direction when
	// it holds a switch-ready flit for it; the request is contended when
	// the module's other port wants the same direction this cycle. The
	// candidate set comes off the saReady bitmap; readyByDir (switch-ready
	// with credits, split per output direction, module-local bits) is
	// computed once and reused by the nomination stage below, which used
	// to evaluate the same predicates a second time.
	var desire [2][2]bool
	var readyByDir [2]uint64
	for mm := (r.Alloc().SAReady() >> uint(base)) & modVCMask; mm != 0; mm &= mm - 1 {
		i := bits.TrailingZeros64(mm)
		vc := r.vcs[base+i]
		if !vc.FrontReady(cycle) {
			continue
		}
		if !r.creditOK(vc) {
			r.act.CreditStalls++
			continue
		}
		d := DirSlot(vc.OutPort())
		readyByDir[d] |= 1 << uint(i)
		desire[i/VCsPerSet][d] = true
	}
	for d := 0; d < 2; d++ {
		n := 0
		for p := 0; p < 2; p++ {
			if desire[p][d] {
				n++
			}
		}
		if n > 0 {
			r.countContention(outsOf(m)[d], n, n > 1)
		}
	}

	// Failed speculation: the parallel SA requests were issued and
	// arbitrated (energy), but a speculative grant has lower priority than
	// any real request and never displaces one (Peh-Dally speculation), so
	// they cannot affect the matching — they are charged as SAOps only.
	var specByDir [2]uint64
	for mm := (r.vaFailed >> uint(base)) & modVCMask; mm != 0; mm &= mm - 1 {
		i := bits.TrailingZeros64(mm)
		if op := r.vcs[base+i].OutPort(); op.IsCardinal() {
			specByDir[DirSlot(op)] |= 1 << uint(i)
		}
	}

	for p := 0; p < 2; p++ {
		for d := 0; d < 2; d++ {
			winner[p][d] = -1
			reqs := (readyByDir[d] >> uint(p*VCsPerSet)) & (1<<VCsPerSet - 1)
			spec := (specByDir[d] >> uint(p*VCsPerSet)) & (1<<VCsPerSet - 1)
			r.act.SAOps += int64(bits.OnesCount64(reqs) + bits.OnesCount64(spec))
			w := r.saArb[m][p][d].GrantMask(reqs)
			if w >= 0 {
				winner[p][d] = base + p*VCsPerSet + w
				has[p][d] = true
			}
		}
	}

	var dec arbiter.MirrorDecision
	if r.disableMirror {
		// Separable fallback: each input port nominates one direction
		// (its local RR pick among candidate directions), then each
		// output arbitrates among nominating ports — the chained
		// allocation the Mirroring Effect replaces.
		var nominated [2]int // direction nominated per port, or -1
		for p := 0; p < 2; p++ {
			nominated[p] = -1
			var reqs uint64
			if has[p][0] {
				reqs |= 1
			}
			if has[p][1] {
				reqs |= 2
			}
			if w := r.outArb[m][p].GrantMask(reqs); w >= 0 {
				nominated[p] = w
			}
		}
		dec.OutWinner = [2]int{-1, -1}
		for d := 0; d < 2; d++ {
			var reqs uint64
			if nominated[0] == d {
				reqs |= 1
			}
			if nominated[1] == d {
				reqs |= 2
			}
			dec.OutWinner[d] = r.outSel[m][d].GrantMask(reqs)
		}
	} else {
		dec = r.mirror[m].Allocate(has)
	}
	outs := outsOf(m)
	for d := 0; d < 2; d++ {
		p := dec.OutWinner[d]
		if p < 0 {
			continue
		}
		r.act.SAGrants++
		r.traverse(outs[d], winner[p][d], cycle)
	}
}

// outsOf returns the module's output directions.
func outsOf(m Module) [2]topology.Direction { return m.Outputs() }

// creditOK reports whether the front flit may stream downstream: buffer
// space exists and the channel's oldest grant belongs to this VC.
func (r *Router) creditOK(vc *router.VC) bool {
	if vc.EjectNext() {
		return true
	}
	book := r.books[vc.OutPort()]
	return book.Credits(vc.OutVC()) > 0 && book.MayStream(vc.OutVC(), vc.Index)
}

// countContention tallies n requests for output out, all of them contended
// when contended is true (Figure 3).
func (r *Router) countContention(out topology.Direction, n int, contended bool) {
	c := 0
	if contended {
		c = n
	}
	switch {
	case out.IsX():
		r.cont.RowRequests += int64(n)
		r.cont.RowFailures += int64(c)
	case out.IsY():
		r.cont.ColRequests += int64(n)
		r.cont.ColFailures += int64(c)
	}
}

// traverse moves a winning flit through its module's crossbar onto the
// output link. RC-unit faults charge the double-routing penalty to the
// departing flit here.
func (r *Router) traverse(out topology.Direction, vcID int, cycle int64) {
	vc := r.vcs[vcID]
	outVC, nextOut, ejectNext, feeder := vc.OutVC(), vc.NextOut(), vc.EjectNext(), vc.Feeder()
	vc.MarkStreamed()
	f := vc.Pop()
	r.act.BufferReads++
	r.act.CrossbarTraversals++
	if feeder.IsCardinal() && r.in[feeder] != nil {
		r.in[feeder].Credit.Write(vcID)
	}
	f.OutPort = nextOut
	if ejectNext {
		f.VC = -1
	} else {
		f.VC = outVC
		r.books[out].Send(outVC, f.Type.IsTail())
	}
	f.ReadyAt = 0
	if r.rcFault {
		f.Penalty = 1
	}
	r.act.LinkFlits++
	r.act.LinkFlitsByDir[out]++
	r.out[out].Flit.Write(f)
}
