// Package pdr implements the Partitioned Dimension-Order Router of the
// paper's related work (Chalasani & Boppana, HPCA'96; May et al., HiPER):
// the router is split into an X-module and a Y-module, each with a 3x3
// crossbar, but — unlike RoCo — the two modules are intertwined: a packet
// that changes dimension (or ejects) must take concatenated switch
// traversals, crossing the X-module's crossbar into an internal transfer
// buffer and then the Y-module's crossbar. The paper contrasts this with
// RoCo's fully decoupled modules; this implementation lets the comparison
// be measured. PDR is a dimension-order design and therefore supports XY
// routing only.
//
// Structure (60 flits of buffering, matching the other routers):
//
//	X-module 3x3: inputs {fromE, fromW, fromPE} -> outputs {E, W, toY}
//	Y-module 3x3: inputs {fromN, fromS, fromX}  -> outputs {N, S, eject}
//
// with 2 VCs of 5-flit buffers per input port.
package pdr

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

const (
	// VCsPerPort is the number of VCs per input port.
	VCsPerPort = 2
	// BufferDepth is the per-VC depth: 6 ports x 2 VCs x 5 flits = 60.
	BufferDepth = 5
	// NumVCs is the router-wide VC namespace.
	NumVCs = 6 * VCsPerPort

	// Input port indexes.
	portFromE  = 0 // X-module: flits traveling West
	portFromW  = 1 // X-module: flits traveling East
	portFromPE = 2 // X-module: injection
	portFromN  = 3 // Y-module: flits traveling South
	portFromS  = 4 // Y-module: flits traveling North
	portFromX  = 5 // Y-module: internal transfer from the X-module
	numPorts   = 6

	// Module-local output slots.
	outE, outW, outToY   = 0, 1, 2
	outN, outS, outEject = 0, 1, 2
	numOutsPerMod        = 3
)

// portOfVC returns the input port owning VC id.
func portOfVC(id int) int { return id / VCsPerPort }

// arrivalPort maps an arrival side to the input port.
func arrivalPort(from topology.Direction) int {
	switch from {
	case topology.East:
		return portFromE
	case topology.West:
		return portFromW
	case topology.North:
		return portFromN
	case topology.South:
		return portFromS
	default:
		panic(fmt.Sprintf("pdr: no arrival port for side %s", from))
	}
}

// Router is the PDR baseline-extension router.
type Router struct {
	router.Recovery

	id     int
	engine *router.RouteEngine
	sink   router.Sink

	in        [5]*router.Conn
	out       [5]*router.Conn
	books     [5]*router.OutVCBook
	neighbors [5]router.Router

	vcs [NumVCs]*router.VC
	// transferBook tracks the internal toY channel's credits/order like an
	// external link book, pointed at the router's own fromX VCs.
	transferBook *router.OutVCBook

	inArb  [numPorts]*arbiter.RoundRobin         // per input port (2:1)
	outArb [2][numOutsPerMod]*arbiter.RoundRobin // per module output (3:1)
	vaArb  [6][]arbiter.RoundRobin               // per (external dir or internal) x downstream vc; value slab

	injVC int

	dead bool
	act  router.Activity
	cont router.Contention

	// Per-cycle request scratch as bitmaps over the router-wide VC ids:
	// vaFailed marks failed VA requesters (speculative SA), targReq[b][c]
	// collects the requesters of downstream channel c through book b (a
	// direction, or 5 for the internal transfer), targUsed[b] marks the c
	// with requesters, and vaNext records each requester's look-ahead
	// route.
	vaFailed uint64
	targReq  [6][NumVCs]uint64
	targUsed [6]uint16
	vaNext   [NumVCs]topology.Direction

	nomOut [numPorts]int // nominated module output slot per port, -1 = none
	nomVC  [numPorts]int
}

// fromXMask covers the internal transfer channels (the fromX port's VCs)
// in the router-wide id namespace.
const fromXMask = uint64(1<<VCsPerPort-1) << uint(portFromX*VCsPerPort)

// New returns a PDR router for the given node. The engine must use XY
// routing: PDR is a dimension-order design.
func New(id int, engine *router.RouteEngine) *Router {
	if engine.Algorithm() != routing.XY {
		panic("pdr: the partitioned dimension-order router supports XY routing only")
	}
	r := &Router{id: id, engine: engine, injVC: -1}
	for v := 0; v < NumVCs; v++ {
		r.vcs[v] = engine.NewVC(v, BufferDepth)
	}
	r.transferBook = router.NewOutVCBook(NumVCs, BufferDepth)
	for v := 0; v < NumVCs; v++ {
		if portOfVC(v) != portFromX {
			r.transferBook.SetDepth(v, 0) // only fromX channels are internal targets
		}
	}
	for p := 0; p < numPorts; p++ {
		r.inArb[p] = arbiter.NewRoundRobin(VCsPerPort)
	}
	for m := 0; m < 2; m++ {
		for o := 0; o < numOutsPerMod; o++ {
			r.outArb[m][o] = arbiter.NewRoundRobin(3)
		}
	}
	for i := range r.vaArb {
		r.vaArb[i] = arbiter.NewRoundRobinSlice(NumVCs, NumVCs)
	}
	r.InitRecovery(id, r.vcs[:], r.grantTarget, r.abortCleanup, r.drained)
	r.SetFeederProbe(func(d topology.Direction, pkt uint64) bool {
		return d.IsCardinal() && r.in[d] != nil && r.in[d].Flit.Carries(pkt)
	})
	return r
}

// grantTarget resolves a VC index to its front packet's grant target. For
// an X-module packet granted the internal transfer leg the target is the
// router's own transfer book and fromX claim (side Local); otherwise it is
// the external link's book and neighbor.
func (r *Router) grantTarget(i int) (router.GrantRef, bool) {
	out := r.vcs[i].OutPort()
	if out == topology.Invalid {
		return router.GrantRef{}, false
	}
	port := portOfVC(i)
	if port <= portFromPE {
		if _, slot := moduleOutOf(port, out); slot == outToY {
			return router.GrantRef{Book: r.transferBook, Claimant: r, Side: topology.Local}, true
		}
	}
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

// ID returns the node this router serves.
func (r *Router) ID() int { return r.id }

// AttachInput wires an arriving link.
func (r *Router) AttachInput(d topology.Direction, c *router.Conn) { r.in[d] = c }

// AttachOutput wires a departing link and sizes its credit book.
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

// ApplyFault blocks the entire node: the PDR modules are intertwined (the
// Y-module depends on the X-module for injection, transfer and ejection),
// so there is no graceful degradation to fall back to. Applied live,
// resident traffic is condemned and drains as drops.
func (r *Router) ApplyFault(fault.Fault) {
	r.NoteFault()
	r.dead = true
	for _, vc := range r.vcs {
		vc.Condemn()
	}
}

// RefreshOutput re-propagates the downstream input-VC depths into output
// d's credit book after a runtime fault changed them.
func (r *Router) RefreshOutput(d topology.Direction, depths []int) {
	b := r.books[d]
	if b == nil {
		return
	}
	for vc, depth := range depths {
		b.SetDepth(vc, depth)
	}
}

// CanServe reports whether traffic can be served; all-or-nothing, except
// that a severed die-to-die port denies only the traffic crossing it.
func (r *Router) CanServe(from, out topology.Direction) bool {
	return !r.dead && !r.Severed(from) && !r.Severed(out)
}

// CongestionCost estimates pressure on output out.
func (r *Router) CongestionCost(out topology.Direction) float64 {
	b := r.books[out]
	if b == nil {
		return 0
	}
	capacity := b.Size() * BufferDepth
	return float64(capacity-b.FreeSlots()) / float64(capacity)
}

// NumInputVCs returns the router-wide VC namespace size.
func (r *Router) NumInputVCs(topology.Direction) int { return NumVCs }

// InputVCDepth returns the usable depth of VC vc for arrivals on side
// from; channels of other ports are unreachable from that link.
func (r *Router) InputVCDepth(from topology.Direction, vc int) int {
	if r.dead || r.Severed(from) || portOfVC(vc) != arrivalPort(from) {
		return 0
	}
	return r.vcs[vc].Capacity()
}

// InputVCClaimable reports whether VC vc can take a new packet.
func (r *Router) InputVCClaimable(from topology.Direction, vc int) bool {
	return !r.dead && !r.Severed(from) && portOfVC(vc) == arrivalPort(from) && r.vcs[vc].Claimable(from)
}

// ClaimableMask returns the claimable VCs for arrivals on side from as a
// bitmap over the router-wide id namespace (only the arrival port's
// channels can be claimed over a given link).
func (r *Router) ClaimableMask(from topology.Direction) uint64 {
	if r.dead || r.Severed(from) {
		return 0
	}
	return r.Alloc().Claimable(from) & (uint64(1<<VCsPerPort-1) << uint(arrivalPort(from)*VCsPerPort))
}

// ClaimInputVC reserves VC vc for an inbound packet.
func (r *Router) ClaimInputVC(from topology.Direction, vc int) bool {
	if !r.InputVCClaimable(from, vc) {
		return false
	}
	r.vcs[vc].Claim(from)
	return true
}

// ReleaseInputVC returns a claim whose packet will never arrive. Side
// Local means an internal transfer claim on a fromX channel.
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

// SkipCycles replays n idle ticks: only the activity cycle counter moves
// (idle round-robin arbiters hold still), and only on a live node.
func (r *Router) SkipCycles(n int64) {
	if !r.dead {
		r.act.Cycles += n
	}
}

// TryInject offers the next flit of the PE's current packet. All injection
// enters through the X-module's PE port (dimension order starts in X).
func (r *Router) TryInject(f *flit.Flit, cycle int64) bool {
	if r.dead {
		return false
	}
	if f.Type.IsHead() && f.OutPort == topology.Local {
		r.sink(f, cycle)
		if !f.Type.IsTail() {
			r.injVC = -2
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
		for v := portFromPE * VCsPerPort; v < (portFromPE+1)*VCsPerPort; v++ {
			vc := r.vcs[v]
			if vc.Claimable(topology.Local) && vc.HasRoom() {
				f.ReadyAt = cycle + 1
				vc.Claim(topology.Local)
				vc.PushFrom(f, topology.Local)
				r.act.BufferWrites++
				if !f.Type.IsTail() {
					r.injVC = v
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

// moduleOutOf returns (module, output slot) for a packet in port with the
// given route at this router.
func moduleOutOf(port int, outPort topology.Direction) (int, int) {
	if port <= portFromPE { // X-module
		switch outPort {
		case topology.East:
			return 0, outE
		case topology.West:
			return 0, outW
		default:
			// N, S or Local: transfer into the Y-module first.
			return 0, outToY
		}
	}
	switch outPort { // Y-module
	case topology.North:
		return 1, outN
	case topology.South:
		return 1, outS
	case topology.Local:
		return 1, outEject
	default:
		panic(fmt.Sprintf("pdr: Y-module packet routed %s", outPort))
	}
}

// Tick advances the router one cycle.
func (r *Router) Tick(cycle int64) {
	if r.dead {
		r.tickDead(cycle)
		return
	}
	r.act.Cycles++

	for _, d := range topology.CardinalDirections {
		if r.out[d] == nil {
			continue
		}
		for _, vc := range r.out[d].Credit.Read() {
			r.books[d].ReturnCredit(vc)
		}
	}

	for _, d := range topology.CardinalDirections {
		if r.in[d] == nil {
			continue
		}
		f := r.in[d].Flit.Read()
		if f == nil {
			continue
		}
		if r.Severed(d) {
			// The die-to-die interface is dead in both directions: drop the
			// arrival and return no credit (the upstream port is severed too).
			r.act.DroppedFlits++
			r.DropFlit(f, cycle, trace.DropInFlight)
			continue
		}
		f.Hops++
		f.ReadyAt = cycle + 1 + f.Penalty
		if f.Penalty > 0 {
			r.act.RouteComputations++
			f.Penalty = 0
		}
		if f.Rec != nil {
			f.Rec.Visit(r.id, cycle, trace.Arrived)
		}
		r.vcs[f.VC].PushFrom(f, d)
		r.act.BufferWrites++
	}

	// Fast path: with every channel dormant the phases below are all
	// no-ops (the same argument that makes SkipCycles sound), so a
	// router woken only to absorb returning credits skips them.
	if r.SkipTick() {
		return
	}

	r.Recover(cycle, false)
	r.allocateVCs(cycle)
	r.allocateSwitch(cycle)
}

// tickDead is the Tick of a faulted node: arrivals already in flight are
// dropped (with their credits returned so upstream books stay balanced),
// condemned resident traffic drains as drops, and returning credits are
// discarded.
func (r *Router) tickDead(cycle int64) {
	for d := 0; d < 5; d++ {
		if r.in[d] != nil {
			if f := r.in[d].Flit.Read(); f != nil {
				r.act.DroppedFlits++
				r.DropFlit(f, cycle, trace.DropDeadNode)
				if f.VC >= 0 {
					r.in[d].Credit.Write(f.VC)
				}
			}
		}
		if r.out[d] != nil {
			r.out[d].Credit.Read()
		}
	}
	r.RetireDoomed(cycle)
}

// drained counts a doomed flit the recovery drain discarded and returns
// its credit upstream; a drained internal transfer channel also returns
// its transfer-book credit.
func (r *Router) drained(vc *router.VC, feeder topology.Direction) {
	r.act.DroppedFlits++
	if feeder.IsCardinal() && r.in[feeder] != nil {
		r.in[feeder].Credit.Write(vc.Index)
	}
	if portOfVC(vc.Index) == portFromX {
		r.transferBook.ReturnCredit(vc.Index)
	}
}

// allocateVCs handles both allocation legs: external links (downstream
// router channels) and the internal X-to-Y transfer (local fromX
// channels). Requesters come off the needVA bitmap; candidates are bitmap
// intersections of the alive and claimable masks.
func (r *Router) allocateVCs(cycle int64) {
	r.vaFailed = 0
	need := r.Alloc().NeedVA()
	if need == 0 {
		return
	}
	// Each external output's downstream claimable set is fetched once per
	// cycle; nothing claims during request building, so the cached mask is
	// exact, and the grant phase still re-checks through ClaimInputVC.
	var nbrClaim [5]uint64
	var nbrClaimOK [5]bool

	for m := need; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		vc := r.vcs[id]
		if !vc.FrontReady(cycle) {
			continue
		}
		r.act.VAOps++
		port := portOfVC(id)
		_, slot := moduleOutOf(port, vc.OutPort())

		if port <= portFromPE && slot == outToY {
			// Internal leg: claim a local fromX channel. The feeder for
			// internal transfers is recorded as Local (no link credits).
			// No claimable channel means no request — and, as before, no
			// speculative SA either.
			if avail := r.Alloc().Claimable(topology.Local) & fromXMask; avail != 0 {
				c := bits.TrailingZeros64(avail)
				r.targReq[5][c] |= 1 << uint(id)
				r.targUsed[5] |= 1 << uint(c)
				r.vaNext[id] = vc.OutPort()
			}
			continue
		}
		if vc.OutPort() == topology.Local {
			// Y-module ejection: the PE interface always has room.
			vc.GrantEject()
			continue
		}

		out := vc.OutPort()
		nbr := r.neighbors[out]
		book := r.books[out]
		if nbr == nil || book == nil {
			continue
		}
		downstream, ok := r.engine.Topology().Neighbor(r.id, out)
		if !ok {
			continue
		}
		from := out.Opposite()
		nextOut := r.engine.RouteAt(downstream, from, vc.Front())
		vc.SetNextOut(nextOut)
		if !nbr.CanServe(from, nextOut) {
			vc.Doom()
			continue
		}
		if !nbrClaimOK[out] {
			nbrClaimOK[out] = true
			nbrClaim[out] = nbr.ClaimableMask(from)
		}
		// Candidates: the downstream VCs of the arrival port for this link.
		target := arrivalPort(from)
		rangeMask := uint64(1<<VCsPerPort-1) << uint(target*VCsPerPort)
		if avail := book.AliveMask() & nbrClaim[out] & rangeMask; avail != 0 {
			c := bits.TrailingZeros64(avail)
			r.targReq[out][c] |= 1 << uint(id)
			r.targUsed[out] |= 1 << uint(c)
			r.vaNext[id] = nextOut
		} else {
			r.vaFailed |= 1 << uint(id)
		}
	}

	for bookIdx := 0; bookIdx < 6; bookIdx++ {
		used := r.targUsed[bookIdx]
		if used == 0 {
			continue
		}
		r.targUsed[bookIdx] = 0
		for uc := used; uc != 0; uc &= uc - 1 {
			c := bits.TrailingZeros16(uc)
			reqs := r.targReq[bookIdx][c]
			r.targReq[bookIdx][c] = 0
			w := r.vaArb[bookIdx][c].GrantMask(reqs)
			r.vaFailed |= reqs &^ (1 << uint(w))
			vc := r.vcs[w]
			if bookIdx == 5 {
				// Internal transfer grant.
				if !r.vcs[c].Claimable(topology.Local) {
					r.vaFailed |= 1 << uint(w)
					continue
				}
				r.vcs[c].Claim(topology.Local)
				r.transferBook.EnqueueGrant(c, w)
				vc.GrantRoute(c, r.vaNext[w])
				r.act.VAGrants++
				continue
			}
			out := topology.Direction(bookIdx)
			nbr := r.neighbors[out]
			if nbr == nil || !nbr.ClaimInputVC(out.Opposite(), c) {
				r.vaFailed |= 1 << uint(w)
				continue
			}
			r.books[out].EnqueueGrant(c, w)
			vc.GrantRoute(c, r.vaNext[w])
			r.act.VAGrants++
		}
	}
}

// creditOK reports whether the front flit may stream toward its target
// (external link or internal transfer channel).
func (r *Router) creditOK(id int, vc *router.VC) bool {
	if vc.EjectNext() {
		return true
	}
	port := portOfVC(id)
	_, slot := moduleOutOf(port, vc.OutPort())
	if port <= portFromPE && slot == outToY {
		return r.transferBook.Credits(vc.OutVC()) > 0 && r.transferBook.MayStream(vc.OutVC(), id)
	}
	if vc.OutPort() == topology.Local {
		return true
	}
	book := r.books[vc.OutPort()]
	return book.Credits(vc.OutVC()) > 0 && book.MayStream(vc.OutVC(), id)
}

// allocateSwitch runs the two 3x3 separable switch allocations and
// forwards winners (externally, internally, or to the PE). Candidates come
// off the saReady bitmap; readyOK (switch-ready, not doomed, with credits)
// is computed once and reused by the contention tally and stage 1, which
// used to evaluate the same predicates twice per channel.
func (r *Router) allocateSwitch(cycle int64) {
	saReady := r.Alloc().SAReady()
	if saReady == 0 && r.vaFailed == 0 {
		return
	}

	// Contention accounting (Figure 3 definition): desire overlap per
	// module output.
	var readyOK uint64
	var desire [numPorts][numOutsPerMod]bool
	for m := saReady; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		vc := r.vcs[id]
		if !vc.FrontReady(cycle) || vc.Doomed() {
			continue
		}
		if !r.creditOK(id, vc) {
			r.act.CreditStalls++
			continue
		}
		readyOK |= 1 << uint(id)
		port := portOfVC(id)
		_, slot := moduleOutOf(port, vc.OutPort())
		desire[port][slot] = true
	}
	for m := 0; m < 2; m++ {
		for o := 0; o < numOutsPerMod; o++ {
			n := 0
			for p := m * 3; p < m*3+3; p++ {
				if desire[p][o] {
					n++
				}
			}
			if n > 0 {
				r.countContention(m, o, n)
			}
		}
	}

	// Stage 1: one nomination per input port. Heads whose VA failed this
	// cycle are charged as speculative arbitration work.
	for p := 0; p < numPorts; p++ {
		r.nomOut[p] = -1
		r.nomVC[p] = -1
		ready := (readyOK >> uint(p*VCsPerPort)) & (1<<VCsPerPort - 1)
		spec := (r.vaFailed >> uint(p*VCsPerPort)) & (1<<VCsPerPort - 1) &^ ready
		r.act.SAOps += int64(bits.OnesCount64(ready) + bits.OnesCount64(spec))
		if ready == 0 {
			continue
		}
		w := r.inArb[p].GrantMask(ready)
		id := p*VCsPerPort + w
		_, slot := moduleOutOf(p, r.vcs[id].OutPort())
		r.nomOut[p] = slot
		r.nomVC[p] = id
	}

	// Stage 2: per module output, arbitrate among its three ports.
	for m := 0; m < 2; m++ {
		for o := 0; o < numOutsPerMod; o++ {
			var reqs uint64
			for i := 0; i < 3; i++ {
				if r.nomOut[m*3+i] == o {
					reqs |= 1 << uint(i)
				}
			}
			w := r.outArb[m][o].GrantMask(reqs)
			if w < 0 {
				continue
			}
			r.act.SAGrants++
			r.traverse(m, o, r.nomVC[m*3+w], cycle)
		}
	}
}

// countContention maps module outputs to Figure 3's row/column split.
func (r *Router) countContention(module, slot, n int) {
	contended := n > 1
	c := 0
	if contended {
		c = n
	}
	if module == 0 && slot != outToY {
		r.cont.RowRequests += int64(n)
		r.cont.RowFailures += int64(c)
	} else if module == 1 && slot != outEject {
		r.cont.ColRequests += int64(n)
		r.cont.ColFailures += int64(c)
	}
}

// traverse moves a winning flit through its module's crossbar: onto the
// external link, into the internal transfer channel (the concatenated
// traversal), or to the PE.
func (r *Router) traverse(module, slot, vcID int, cycle int64) {
	vc := r.vcs[vcID]
	outVC, nextOut, ejectNext, feeder := vc.OutVC(), vc.NextOut(), vc.EjectNext(), vc.Feeder()
	outPort := vc.OutPort()
	vc.MarkStreamed()
	f := vc.Pop()
	r.act.BufferReads++
	r.act.CrossbarTraversals++
	if feeder.IsCardinal() && r.in[feeder] != nil {
		r.in[feeder].Credit.Write(vcID)
	}
	if portOfVC(vcID) == portFromX {
		// The flit leaves an internal transfer channel: return its credit
		// to the X-module side.
		r.transferBook.ReturnCredit(vcID)
	}

	if module == 0 && slot == outToY {
		// Concatenated traversal: the flit lands in a Y-module channel of
		// this same router, route state intact, and re-arbitrates there.
		r.transferBook.Send(outVC, f.Type.IsTail())
		f.ReadyAt = cycle + 1
		target := r.vcs[outVC]
		target.PushFrom(f, topology.Local)
		r.act.BufferWrites++
		return
	}
	if module == 1 && slot == outEject {
		// One extra cycle models the crossbar-to-PE interface latch, as in
		// the generic router.
		r.act.Ejections++
		r.sink(f, cycle+1)
		return
	}

	f.OutPort = nextOut
	if ejectNext {
		f.VC = -1
	} else {
		f.VC = outVC
		r.books[outPort].Send(outVC, f.Type.IsTail())
	}
	f.ReadyAt = 0
	r.act.LinkFlits++
	r.act.LinkFlitsByDir[outPort]++
	r.out[outPort].Flit.Write(f)
}
