// Package generic implements the paper's first baseline: a conventional
// two-stage, five-port virtual-channel wormhole router (Figure 1a). All
// five input ports (N/E/S/W/PE) hold 3 VCs of 4-flit-deep buffers (60 flits
// per router), a monolithic 5x5 crossbar connects every input to every
// output, and allocation is separable and speculative: head flits perform
// VA and SA in parallel, wasting the switch slot when speculation fails.
//
// Flits destined for the local PE traverse the crossbar to the PE port like
// any other flit — the two extra cycles the RoCo router's early ejection
// saves.
package generic

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
	// VCsPerPort is the number of virtual channels per input port.
	VCsPerPort = 3
	// BufferDepth is the per-VC buffer depth in flits. 5 ports x 3 VCs x 4
	// flits = 60 flits per router, the paper's generic configuration.
	BufferDepth = 4

	numPorts  = 5
	numReqs   = numPorts * VCsPerPort
	xFirstVC  = 0 // XY-YX routing: VCs 0 and 2 carry X-first packets
	yFirstVC  = 1 // XY-YX routing: VC 1 carries Y-first packets
	xFirstVC2 = 2
)

// Router is the generic 5-port baseline.
type Router struct {
	router.Recovery

	id     int
	engine *router.RouteEngine
	torus  topology.Toroidal // non-nil when running a torus (flat or multi-chip)
	sink   router.Sink

	in    [numPorts]*router.Conn
	out   [numPorts]*router.Conn
	ports [numPorts][]*router.VC
	books [numPorts]*router.OutVCBook

	neighbors [numPorts]router.Router

	inArb  [numPorts]*arbiter.RoundRobin
	outArb [numPorts]*arbiter.RoundRobin
	vaArb  [numPorts][]arbiter.RoundRobin // value slab, not boxed

	injVC int // Local-port VC owned by the packet being injected, or -1

	dead bool
	act  router.Activity
	cont router.Contention

	// scratch state reused across cycles. Request sets are uint64 bitmaps
	// over the flat grantee-index namespace (port*VCsPerPort + vc):
	// vaFailed marks channels whose VA failed this cycle (speculative SA
	// requests), targReq[out][c] collects the requesters of downstream
	// channel c through output out, targUsed[out] marks which c have
	// requesters, and vaNext records each requester's look-ahead route
	// (its chosen channel is the targReq key itself).
	vaRotate [numPorts][VCsPerPort]int
	vaFailed uint64
	saReqOut [numPorts]topology.Direction
	saReqVC  [numPorts]int
	targReq  [numPorts][VCsPerPort]uint64
	targUsed [numPorts]uint8
	vaNext   [numReqs]topology.Direction
}

// New returns a generic router for the given node.
func New(id int, engine *router.RouteEngine) *Router {
	r := &Router{id: id, engine: engine, injVC: -1}
	if tor, ok := engine.Topology().(topology.Toroidal); ok {
		if engine.Algorithm() != routing.XY {
			panic("generic: the torus extension supports XY routing only")
		}
		r.torus = tor
	}
	for p := 0; p < numPorts; p++ {
		r.ports[p] = make([]*router.VC, VCsPerPort)
		for v := 0; v < VCsPerPort; v++ {
			r.ports[p][v] = engine.NewVC(v, BufferDepth)
		}
		r.inArb[p] = arbiter.NewRoundRobin(VCsPerPort)
		r.outArb[p] = arbiter.NewRoundRobin(numPorts)
		r.vaArb[p] = arbiter.NewRoundRobinSlice(VCsPerPort, numReqs)
	}
	// Recovery indexes channels in port-major order, matching the flat
	// grantee IDs used in the output books.
	flat := make([]*router.VC, 0, numReqs)
	for p := 0; p < numPorts; p++ {
		flat = append(flat, r.ports[p]...)
	}
	r.InitRecovery(id, flat, r.grantTarget, r.abortCleanup, r.drained)
	r.SetFeederProbe(func(d topology.Direction, pkt uint64) bool {
		return d.IsCardinal() && r.in[d] != nil && r.in[d].Flit.Carries(pkt)
	})
	return r
}

// grantTarget resolves a flat VC index to its front packet's grant target.
func (r *Router) grantTarget(i int) (router.GrantRef, bool) {
	out := r.ports[i/VCsPerPort][i%VCsPerPort].OutPort()
	if !out.IsCardinal() {
		return router.GrantRef{}, false
	}
	return router.GrantRef{Book: r.books[out], Claimant: r.neighbors[out], Side: out.Opposite()}, true
}

// abortCleanup releases the injection channel if the aborted packet was
// the one being injected.
func (r *Router) abortCleanup(i int) {
	if i/VCsPerPort == int(topology.Local) && r.injVC == i%VCsPerPort {
		r.injVC = -1
	}
}

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

// SetNeighbor records the router reached through output d, for the fault
// and congestion handshake.
func (r *Router) SetNeighbor(d topology.Direction, n router.Router) { r.neighbors[d] = n }

// SetSink installs the PE delivery callback.
func (r *Router) SetSink(s router.Sink) { r.sink = s }

// Activity returns the per-component event counters.
func (r *Router) Activity() *router.Activity { return &r.act }

// Contention returns the switch-conflict tallies.
func (r *Router) Contention() *router.Contention { return &r.cont }

// ApplyFault blocks the entire node: the generic router's operation is
// unified across its components, so any permanent fault takes the whole
// router off-line (paper Section 4). Applied live, the node condemns its
// resident traffic: buffered wormholes drain as drops and later arrivals
// are discarded with their credits returned, so the network around the
// dead node keeps flowing.
func (r *Router) ApplyFault(fault.Fault) {
	r.NoteFault()
	r.dead = true
	for p := range r.ports {
		for _, vc := range r.ports[p] {
			vc.Condemn()
		}
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

// CanServe reports whether traffic entering on from and leaving through out
// can be served. The generic router is all-or-nothing for intra-router
// faults; severed D2D ports additionally deny their own side.
func (r *Router) CanServe(from, out topology.Direction) bool {
	return !r.dead && !r.Severed(from) && !r.Severed(out)
}

// CongestionCost estimates pressure on output out as the buffer occupancy
// of the downstream input port (consumed credits).
func (r *Router) CongestionCost(out topology.Direction) float64 {
	b := r.books[out]
	if b == nil {
		return 0
	}
	capacity := b.Size() * BufferDepth
	return float64(capacity-b.FreeSlots()) / float64(capacity)
}

// NumInputVCs returns the per-port VC namespace size (flit.VC on any
// arriving link indexes the 3 VCs of that input port).
func (r *Router) NumInputVCs(from topology.Direction) int { return VCsPerPort }

// InputVCClaimable reports whether input VC vc on side from is free for a
// new packet.
func (r *Router) InputVCClaimable(from topology.Direction, vc int) bool {
	return !r.dead && !r.Severed(from) && r.ports[from][vc].Claimable(from)
}

// ClaimableMask returns the claimable VCs of input port from as a bitmap
// over the port's 3-channel namespace.
func (r *Router) ClaimableMask(from topology.Direction) uint64 {
	if r.dead || r.Severed(from) {
		return 0
	}
	return (r.Alloc().Claimable(from) >> uint(int(from)*VCsPerPort)) & (1<<VCsPerPort - 1)
}

// ClaimInputVC reserves input VC vc on side from for an inbound packet.
func (r *Router) ClaimInputVC(from topology.Direction, vc int) bool {
	if !r.InputVCClaimable(from, vc) {
		return false
	}
	r.ports[from][vc].Claim(from)
	return true
}

// ReleaseInputVC returns a claim whose packet will never arrive.
func (r *Router) ReleaseInputVC(from topology.Direction, vc int) {
	if r.Severed(from) {
		// SeverPort already purged unbacked claims on the dead interface;
		// honoring the upstream's withdrawal would double-release.
		return
	}
	r.ports[from][vc].ReleaseClaim()
}

// InputVCDepth returns the usable depth of input VC vc on side from (0
// when the node is dead).
func (r *Router) InputVCDepth(from topology.Direction, vc int) int {
	if r.dead || r.Severed(from) {
		return 0
	}
	return r.ports[from][vc].Capacity()
}

// Quiescent reports whether no flit is buffered anywhere in the router.
func (r *Router) Quiescent() bool {
	for p := range r.ports {
		for _, vc := range r.ports[p] {
			if vc.Len() > 0 {
				return false
			}
		}
	}
	return true
}

// SkipCycles replays n idle ticks. A live idle tick only advances the
// activity cycle counter (round-robin arbiters do not move without
// requests); a dead router's tick never counts cycles at all.
func (r *Router) SkipCycles(n int64) {
	if !r.dead {
		r.act.Cycles += n
	}
}

// TryInject offers the next flit of the PE's current packet.
func (r *Router) TryInject(f *flit.Flit, cycle int64) bool {
	if r.dead {
		return false
	}
	local := r.ports[topology.Local]
	if f.Type.IsHead() {
		if r.injVC >= 0 {
			return false // previous packet's tail not yet accepted
		}
		for _, v := range r.injectionVCs(f) {
			vc := local[v]
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
	vc := local[r.injVC]
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

// injectionVCs returns the Local-port VC indexes a new packet may start in,
// respecting the deadlock class discipline of the routing algorithm.
func (r *Router) injectionVCs(f *flit.Flit) []int {
	if r.engine.Algorithm() == routing.XYYX {
		if f.Mode == flit.YFirst {
			return []int{yFirstVC}
		}
		return []int{xFirstVC, xFirstVC2}
	}
	// XY is acyclic on any channel; adaptive routing is deadlock-free via
	// the odd-even turn model, so all channels are freely usable.
	return []int{0, 1, 2}
}

// Shared candidate sets for candidateVCs: the callers only iterate, so
// handing out the same read-only slices keeps VC allocation off the heap.
var (
	vcsDateline    = []int{1}
	vcsPreDateline = []int{0, 2}
	vcsYFirst      = []int{yFirstVC}
	vcsXFirst      = []int{xFirstVC, xFirstVC2}
	vcsAny         = []int{0, 1, 2}
)

// candidateVCs returns the downstream VC indexes a head flit may be
// allocated for a hop leaving through out, respecting the class
// discipline: mode classes under XY-YX, dateline classes on a torus.
// The returned slice is shared and must not be mutated.
func (r *Router) candidateVCs(f *flit.Flit, out topology.Direction) []int {
	if r.torus != nil {
		// Dateline discipline: VCs 0 and 2 carry packets that have not
		// crossed their current dimension's dateline; VC 1 carries packets
		// that have (including this very hop). The class switch breaks the
		// ring's channel-dependency cycle.
		crossed := f.CrossedY
		if out.IsX() {
			crossed = f.CrossedX
		}
		crossed = crossed || routing.TorusHopWraps(r.torus.Width(), r.torus.Height(), r.torus.Coord(r.id), out)
		if crossed {
			return vcsDateline
		}
		return vcsPreDateline
	}
	if r.engine.Algorithm() == routing.XYYX {
		if f.Mode == flit.YFirst {
			return vcsYFirst
		}
		return vcsXFirst
	}
	return vcsAny
}

// Tick advances the router one cycle.
func (r *Router) Tick(cycle int64) {
	if r.dead {
		r.tickDead(cycle)
		return
	}
	r.act.Cycles++

	// 1. Credits from downstream.
	for d := 0; d < numPorts; d++ {
		if r.out[d] == nil {
			continue
		}
		for _, vc := range r.out[d].Credit.Read() {
			r.books[d].ReturnCredit(vc)
		}
	}

	// 2. Arriving flits into their upstream-allocated VCs.
	for d := 0; d < numPorts; d++ {
		if r.in[d] == nil {
			continue
		}
		f := r.in[d].Flit.Read()
		if f == nil {
			continue
		}
		if r.Severed(topology.Direction(d)) {
			// The boundary link was cut with this flit in flight; it never
			// reaches the buffers and its wormhole breaks (no credit either
			// — the interface is dead in both directions).
			r.act.DroppedFlits++
			r.DropFlit(f, cycle, trace.DropInFlight)
			continue
		}
		f.Hops++
		f.ReadyAt = cycle + 1 + f.Penalty
		if f.Penalty > 0 {
			// Double routing: this node performs the current-node route
			// computation the faulty upstream RC unit skipped.
			r.act.RouteComputations++
			f.Penalty = 0
		}
		if f.Rec != nil {
			f.Rec.Visit(r.id, cycle, trace.Arrived)
		}
		r.ports[d][f.VC].PushFrom(f, topology.Direction(d))
		r.act.BufferWrites++
	}

	// Fast path: with every channel dormant the sweep, drain, reap and
	// allocator phases below are all no-ops (the same argument that makes
	// SkipCycles sound), so a router woken only to absorb returning
	// credits skips the channel scans.
	if r.SkipTick() {
		return
	}

	r.Recover(cycle, false)

	// 3. VA: separable, one iteration per cycle, speculative with SA.
	r.allocateVCs(cycle)

	// 4+5. SA and switch traversal.
	r.allocateSwitch(cycle)
}

// tickDead runs the blocked node's cycle: arrivals are discarded with
// their credits returned (flow control upstream must not wedge on a node
// that died with traffic in flight), condemned resident wormholes drain
// as drops, and orphaned states retire. The node does no allocation and
// burns no activity.
func (r *Router) tickDead(cycle int64) {
	for d := 0; d < numPorts; d++ {
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

// allocateVCs runs the input-then-output separable VC allocation pass.
// Requesters come straight off the router's needVA bitmap; the only
// per-channel predicate left to check live is the front flit's ReadyAt.
func (r *Router) allocateVCs(cycle int64) {
	r.vaFailed = 0
	need := r.Alloc().NeedVA()
	if need == 0 {
		return
	}
	// Each output's downstream claimable set is fetched once per cycle:
	// nothing claims during request building, so the cached mask matches
	// what per-candidate InputVCClaimable probes would have returned. The
	// grant phase still claims through ClaimInputVC, which re-checks.
	var nbrClaim [numPorts]uint64
	var nbrClaimOK [numPorts]bool

	for m := need; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		p, v := id/VCsPerPort, id%VCsPerPort
		vc := r.ports[p][v]
		if !vc.FrontReady(cycle) {
			continue
		}
		if vc.OutPort() == topology.Local {
			// Ejection at this router: the PE interface always has
			// room, so allocation succeeds immediately.
			vc.GrantEject()
			continue
		}
		r.act.VAOps++
		if vc.NextOut() == topology.Invalid {
			r.act.RouteComputations++
		}
		out := vc.OutPort()
		book := r.books[out]
		nbr := r.neighbors[out]
		if book == nil {
			continue // routed off the mesh edge: simulator bug upstream
		}
		downstream, ok := r.engine.Topology().Neighbor(r.id, out)
		if !ok {
			continue
		}
		head := vc.Front()
		nextOut := r.engine.RouteAt(downstream, out.Opposite(), head)
		vc.SetNextOut(nextOut)
		if nbr != nil && !nbr.CanServe(out.Opposite(), nextOut) {
			// Static fault handling: the packet's only route is dead;
			// discard it instead of letting it clog the network.
			vc.Doom()
			continue
		}
		if !nbrClaimOK[out] {
			nbrClaimOK[out] = true
			if nbr != nil {
				nbrClaim[out] = nbr.ClaimableMask(out.Opposite())
			}
		}
		usable := book.AliveMask() & nbrClaim[out]
		// Input stage: nominate one usable channel with a rotating
		// start. The generic VA's wide (5v:1) arbiters make smarter
		// selection impractical at speed (the paper charges the
		// design with iterative re-arbitration); rotating first-fit
		// avoids pathological pile-up while keeping the collision
		// behavior of a plain separable allocator.
		cands := r.candidateVCs(head, out)
		start := r.vaRotate[p][v] % len(cands)
		r.vaRotate[p][v]++
		best := -1
		for i := range cands {
			c := cands[(start+i)%len(cands)]
			if usable&(1<<uint(c)) != 0 {
				best = c
				break
			}
		}
		if best >= 0 {
			r.targReq[out][best] |= 1 << uint(id)
			r.targUsed[out] |= 1 << uint(best)
			r.vaNext[id] = nextOut
		} else {
			r.vaFailed |= 1 << uint(id)
		}
	}

	for out := 0; out < numPorts; out++ {
		used := r.targUsed[out]
		if used == 0 {
			continue
		}
		r.targUsed[out] = 0
		for uc := used; uc != 0; uc &= uc - 1 {
			c := bits.TrailingZeros8(uc)
			reqs := r.targReq[out][c]
			r.targReq[out][c] = 0
			w := r.vaArb[out][c].GrantMask(reqs)
			r.vaFailed |= reqs &^ (1 << uint(w))
			nbr := r.neighbors[out]
			if nbr == nil || !nbr.ClaimInputVC(topology.Direction(out).Opposite(), c) {
				// Another upstream router claimed the channel earlier
				// this cycle; retry next cycle.
				r.vaFailed |= 1 << uint(w)
				continue
			}
			r.books[out].EnqueueGrant(c, w)
			r.ports[w/VCsPerPort][w%VCsPerPort].GrantRoute(c, r.vaNext[w])
			r.act.VAGrants++
		}
	}
}

// allocateSwitch runs the separable, speculative switch allocation and
// forwards the winners. The candidate set comes off the saReady bitmap;
// readyOK (switch-ready with credits) is computed once and reused by the
// contention tally and the input stage — the loops it replaces evaluated
// SwitchReady/creditOK twice per channel with identical results.
func (r *Router) allocateSwitch(cycle int64) {
	saReady := r.Alloc().SAReady()
	if saReady == 0 && r.vaFailed == 0 {
		return
	}

	// Figure 3's contention probability: per cycle, an input port
	// "requests" output o when it holds a switch-ready flit for o; the
	// request is contended when another input port wants the same output
	// in the same cycle.
	var readyOK uint64
	var desire [numPorts][numPorts]bool
	for m := saReady; m != 0; m &= m - 1 {
		id := bits.TrailingZeros64(m)
		vc := r.ports[id/VCsPerPort][id%VCsPerPort]
		if !vc.FrontReady(cycle) {
			continue
		}
		if r.creditOK(vc, id) {
			readyOK |= 1 << uint(id)
			desire[id/VCsPerPort][vc.OutPort()] = true
		} else {
			r.act.CreditStalls++
		}
	}
	for o := 0; o < numPorts; o++ {
		n := 0
		for p := 0; p < numPorts; p++ {
			if desire[p][o] {
				n++
			}
		}
		if n > 0 {
			r.countContention(topology.Direction(o), n, n > 1)
		}
	}

	// Input stage: each port nominates one switch-ready VC. Heads whose VA
	// failed this cycle issued speculative SA requests in parallel; they
	// are charged as arbitration work but hold lower priority than any
	// real request and never displace one (Peh-Dally speculation).
	for p := 0; p < numPorts; p++ {
		r.saReqOut[p] = topology.Invalid
		r.saReqVC[p] = -1
		ready := (readyOK >> uint(p*VCsPerPort)) & (1<<VCsPerPort - 1)
		spec := (r.vaFailed >> uint(p*VCsPerPort)) & (1<<VCsPerPort - 1) &^ ready
		r.act.SAOps += int64(bits.OnesCount64(ready) + bits.OnesCount64(spec))
		if ready == 0 {
			continue
		}
		w := r.inArb[p].GrantMask(ready)
		r.saReqOut[p] = r.ports[p][w].OutPort()
		r.saReqVC[p] = w
	}

	// Output stage: each output picks among the nominating ports.
	for out := 0; out < numPorts; out++ {
		var portReq uint64
		for p := 0; p < numPorts; p++ {
			if r.saReqOut[p] == topology.Direction(out) {
				portReq |= 1 << uint(p)
			}
		}
		w := r.outArb[out].GrantMask(portReq)
		if w < 0 {
			continue
		}
		r.act.SAGrants++
		r.traverse(topology.Direction(out), w, r.saReqVC[w], cycle)
	}
}

// creditOK reports whether the front flit of vc may stream downstream:
// buffer space exists and the channel's oldest grant belongs to this VC
// (ejections and downstream-early-ejections need neither).
func (r *Router) creditOK(vc *router.VC, grantee int) bool {
	if vc.EjectNext() {
		return true
	}
	book := r.books[vc.OutPort()]
	return book.Credits(vc.OutVC()) > 0 && book.MayStream(vc.OutVC(), grantee)
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

// traverse moves the winning flit through the crossbar onto its output.
func (r *Router) traverse(out topology.Direction, port, vcIdx int, cycle int64) {
	vc := r.ports[port][vcIdx]
	// Capture the packet's routing state before Pop: popping a tail flit
	// retires the packet and shifts the channel to the next one.
	outVC, nextOut, ejectNext := vc.OutVC(), vc.NextOut(), vc.EjectNext()
	vc.MarkStreamed()
	f := vc.Pop()
	r.act.BufferReads++
	r.act.CrossbarTraversals++
	if topology.Direction(port) != topology.Local && r.in[port] != nil {
		r.in[port].Credit.Write(vcIdx)
	}
	if out == topology.Local {
		// One extra cycle models the crossbar-to-PE interface latch; early
		// ejection in the RoCo router is what removes this (and the SA
		// cycle) at the destination.
		r.act.Ejections++
		r.sink(f, cycle+1)
		return
	}
	f.OutPort = nextOut
	if r.torus != nil && routing.TorusHopWraps(r.torus.Width(), r.torus.Height(), r.torus.Coord(r.id), out) {
		if out.IsX() {
			f.CrossedX = true
		} else {
			f.CrossedY = true
		}
	}
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
