// Package pathsensitive implements the paper's second baseline: the
// Path-Sensitive router of Kim et al. (DAC 2005). Arriving flits are
// grouped into four quadrant path sets (NE, NW, SE, SW) by the position of
// their destination relative to the router; each set holds three VCs of
// 5-flit buffers (60 flits total) and is wired to only its two productive
// outputs through a decomposed 4x4 crossbar with half the connections of a
// full crossbar. The router uses look-ahead routing and early ejection
// like RoCo, but its switch allocation has chained dependencies between
// the quadrant sets (each set nominates a single candidate that may target
// either of its outputs), which is why its non-blocking probability is
// 0.125 against RoCo's 0.25 (paper Table 2).
//
// Deadlock freedom is structural: all minimal moves of a packet stay
// within one quadrant, and quadrant moves are monotone in x+y (or x-y), so
// every channel dependency chain strictly advances across the mesh — no
// cycles, under all three routing algorithms.
package pathsensitive

import (
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
	// VCsPerSet is the number of VCs per quadrant path set.
	VCsPerSet = 3
	// BufferDepth is the per-VC depth: 4 sets x 3 VCs x 5 flits = 60.
	BufferDepth = 5
	// NumVCs is the router-wide VC namespace.
	NumVCs = 4 * VCsPerSet

	numSets = 4
)

// setOfVC returns the quadrant path set owning VC id.
func setOfVC(id int) routing.Quadrant { return routing.Quadrant(id / VCsPerSet) }

// groupFor returns the VC group within a quadrant set for an arrival side:
// each set's three VCs hold "flits from possible directions from the
// previous router" (DAC'05) — one group per incoming link of the quadrant
// plus one for local injection. The injection group being dedicated keeps
// transit traffic from starving the PE.
func groupFor(q routing.Quadrant, from topology.Direction) int {
	outs := q.Outputs()
	switch from {
	case outs[0].Opposite():
		return 0
	case outs[1].Opposite():
		return 1
	default:
		return 2 // local injection
	}
}

// Router is the Path-Sensitive baseline.
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

	setArb [numSets]*arbiter.RoundRobin // SA stage 1: one 3:1 arbiter per set
	outArb [5]*arbiter.RoundRobin       // SA stage 2: 2:1 per output
	vaArb  [5][]arbiter.RoundRobin      // per (output, downstream vc); value slab

	injVC int

	dead bool
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

	setReqOut [numSets]topology.Direction
	setReqVC  [numSets]int
}

// New returns a Path-Sensitive router for the given node.
func New(id int, engine *router.RouteEngine) *Router {
	r := &Router{id: id, engine: engine, injVC: -1}
	for v := 0; v < NumVCs; v++ {
		r.vcs[v] = engine.NewVC(v, BufferDepth)
	}
	for s := 0; s < numSets; s++ {
		r.setArb[s] = arbiter.NewRoundRobin(VCsPerSet)
	}
	for _, d := range topology.CardinalDirections {
		r.outArb[d] = arbiter.NewRoundRobin(numSets)
		r.vaArb[d] = arbiter.NewRoundRobinSlice(NumVCs, NumVCs)
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

// ApplyFault blocks the entire node: like the generic router, the
// path-sensitive design has no independent modules to degrade into (paper
// Section 5.4 treats both baselines this way). Applied live, resident
// traffic is condemned and drains as drops.
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

// CanServe reports whether traffic entering on from and leaving through
// out can be served; the router is all-or-nothing, except that a severed
// die-to-die port denies only the traffic crossing it.
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

// InputVCDepth returns the usable depth of VC vc.
func (r *Router) InputVCDepth(from topology.Direction, vc int) int {
	if r.dead || r.Severed(from) {
		return 0
	}
	return r.vcs[vc].Capacity()
}

// InputVCClaimable reports whether VC vc can take a new packet arriving
// over link from.
func (r *Router) InputVCClaimable(from topology.Direction, vc int) bool {
	return !r.dead && !r.Severed(from) && r.vcs[vc].Claimable(from)
}

// ClaimableMask returns every claimable VC as a bitmap over the
// router-wide id namespace (any arriving link can feed any quadrant set).
func (r *Router) ClaimableMask(from topology.Direction) uint64 {
	if r.dead || r.Severed(from) {
		return 0
	}
	return r.Alloc().Claimable(from)
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

// SkipCycles replays n idle ticks: only the activity cycle counter moves
// (idle round-robin arbiters hold still), and only on a live node.
func (r *Router) SkipCycles(n int64) {
	if !r.dead {
		r.act.Cycles += n
	}
}

// packetQuadrant returns the path set a packet travels in: the quadrant of
// its destination relative to its source, fixed for the whole journey.
func (r *Router) packetQuadrant(f *flit.Flit) routing.Quadrant {
	topo := r.engine.Topology()
	return routing.PacketQuadrant(topo.Coord(f.Src), topo.Coord(f.Dst))
}

// TryInject offers the next flit of the PE's current packet.
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
		q := r.packetQuadrant(f)
		{
			id := int(q)*VCsPerSet + groupFor(q, topology.Local)
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
		if f.OutPort == topology.Local {
			r.act.EarlyEjections++
			r.sink(f, cycle)
			continue
		}
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
// its credit upstream.
func (r *Router) drained(vc *router.VC, feeder topology.Direction) {
	r.act.DroppedFlits++
	if feeder.IsCardinal() && r.in[feeder] != nil {
		r.in[feeder].Credit.Write(vc.Index)
	}
}

// allocateVCs runs the separable VC allocation pass: each head flit
// requests a channel in the downstream router's quadrant set for its
// destination. Requesters come off the needVA bitmap; the single
// deterministic candidate is checked with one bit test against the cached
// alive-and-claimable mask.
func (r *Router) allocateVCs(cycle int64) {
	r.vaFailed = 0
	need := r.Alloc().NeedVA()
	if need == 0 {
		return
	}
	// Each output's downstream claimable set is fetched once per cycle;
	// nothing claims during request building, so the cached mask is exact,
	// and the grant phase still re-checks through ClaimInputVC.
	var nbrClaim [5]uint64
	var nbrClaimOK [5]bool

	for m := need; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		vc := r.vcs[id]
		if !vc.FrontReady(cycle) {
			continue
		}
		r.act.VAOps++
		if vc.NextOut() == topology.Invalid {
			r.act.RouteComputations++
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
		head := vc.Front()
		nextOut := r.engine.RouteAt(downstream, from, head)
		vc.SetNextOut(nextOut)
		if nextOut == topology.Local {
			if nbr.CanServe(from, topology.Local) {
				vc.GrantEject()
			} else {
				vc.Doom()
			}
			continue
		}
		if !nbr.CanServe(from, nextOut) {
			// Static fault handling: discard rather than clog.
			vc.Doom()
			continue
		}
		if !nbrClaimOK[out] {
			nbrClaimOK[out] = true
			nbrClaim[out] = nbr.ClaimableMask(from)
		}
		q := r.packetQuadrant(head)
		c := int(q)*VCsPerSet + groupFor(q, from)
		if book.AliveMask()&nbrClaim[out]&(1<<uint(c)) != 0 {
			r.targReq[out][c] |= 1 << uint(id)
			r.targUsed[out] |= 1 << uint(c)
			r.vaNext[id] = nextOut
		} else {
			r.vaFailed |= 1 << uint(id)
		}
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
			r.books[out].EnqueueGrant(c, w)
			r.vcs[w].GrantRoute(c, r.vaNext[w])
			r.act.VAGrants++
		}
	}
}

// allocateSwitch runs the chained two-stage allocation over the decomposed
// crossbar: stage 1 nominates one VC per quadrant set, stage 2 arbitrates
// each output between its two adjacent sets.
func (r *Router) allocateSwitch(cycle int64) {
	saReady := r.Alloc().SAReady()
	if saReady == 0 && r.vaFailed == 0 {
		return
	}

	// Figure 3 contention: a path set requests an output when it holds a
	// switch-ready flit for it; the request is contended when the other
	// adjacent set wants the same output this cycle. readyOK (switch-ready
	// with credits) is computed once and reused by stage 1, which used to
	// evaluate the same predicates a second time.
	var readyOK uint64
	var desire [numSets][5]bool
	for m := saReady; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		vc := r.vcs[id]
		if !vc.FrontReady(cycle) {
			continue
		}
		if r.creditOK(vc) {
			readyOK |= 1 << uint(id)
			desire[id/VCsPerSet][vc.OutPort()] = true
		} else {
			r.act.CreditStalls++
		}
	}
	for _, out := range topology.CardinalDirections {
		n := 0
		for s := 0; s < numSets; s++ {
			if desire[s][out] {
				n++
			}
		}
		if n > 0 {
			r.countContention(out, n, n > 1)
		}
	}

	for s := 0; s < numSets; s++ {
		r.setReqOut[s] = topology.Invalid
		r.setReqVC[s] = -1
		ready := (readyOK >> uint(s*VCsPerSet)) & (1<<VCsPerSet - 1)
		// Heads whose VA failed are charged as low-priority speculative
		// arbitration work.
		spec := (r.vaFailed >> uint(s*VCsPerSet)) & (1<<VCsPerSet - 1) &^ ready
		r.act.SAOps += int64(bits.OnesCount64(ready) + bits.OnesCount64(spec))
		if ready == 0 {
			continue
		}
		w := r.setArb[s].GrantMask(ready)
		r.setReqOut[s] = r.vcs[s*VCsPerSet+w].OutPort()
		r.setReqVC[s] = s*VCsPerSet + w
	}

	for _, out := range topology.CardinalDirections {
		var reqs uint64
		for s := 0; s < numSets; s++ {
			if r.setReqOut[s] == out {
				reqs |= 1 << uint(s)
			}
		}
		w := r.outArb[out].GrantMask(reqs)
		if w < 0 {
			continue
		}
		r.act.SAGrants++
		r.traverse(out, r.setReqVC[w], cycle)
	}
}

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

// traverse moves a winning flit through the decomposed crossbar.
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
	r.act.LinkFlits++
	r.act.LinkFlitsByDir[out]++
	r.out[out].Flit.Write(f)
}
