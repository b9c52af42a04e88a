// Activity-gated kernel: the software analog of the paper's clock gating,
// and the default cycle loop. Only routers in the active set tick; a
// ticked router that ends the cycle idle falls out of the set, and
// sleepers are woken by staged link/credit traffic, accepted injections,
// retransmission launches, and fault installation. Skipped ticks are pure
// no-ops except for the effects Router.SkipCycles replays at wake-up, and
// only pipes with staged traffic advance.
//
// The kernel's per-router state is packed. Every channel's occupancy and
// dormancy is mirrored into the shared router.HotState arrays, and the
// active sets are uint64 bitsets, so the per-color tick scan is a
// word-wise sweep of activeBits∧colorMask and the post-tick wake scan
// reads one packed int32 per router instead of virtually dispatching into
// its channel objects. Link traffic is pushed, not polled: a pipe half's
// first write of a cycle appends its conn to the writer's shard list
// (router.Conn.LogWrites), so the pipe pass touches only the conns that
// carry something.
//
// Results are bit-identical to the reference kernel because:
//
//   - The tick order is canonical: within a color phase the bitset sweep
//     visits ids ascending, which is precisely the order sched[c][s]
//     lists them in and the reference kernel ticks them in.
//   - The sleep decision is exact: HotState.RouterBusy(id) mirrors
//     !router.Idle(), because every router kind's Idle is
//     router.Recovery.Idle ("all channels dormant") and every channel
//     queue/states mutation updates the mirror inline (router.VC.syncHot).
//   - No work is skipped: every pipe write logs its conn, so the staged
//     lists name every conn with a staged flit or credit, and the merge
//     wakes its reader for the cycle it becomes readable.
//
// Snapshots stay kernel-canonical: the hot state is derived, never
// serialized, and LoadState rebuilds it with HotState.Resync after the
// routers restore (see snapshot.go).
package network

import (
	"github.com/rocosim/roco/internal/flit"
	"github.com/rocosim/roco/internal/router"
)

// initGated builds the gated kernel's state after the mesh is wired: the
// per-shard flit pools, ticked lists and staged-conn lists, the sleep
// clocks, the channel hot-state mirror, the activity bitsets, the
// per-color schedule masks, and the shard id ranges.
func (n *Network) initGated(nodes int) {
	n.pools = make([]*flit.Pool, n.shards)
	for i := range n.pools {
		n.pools[i] = &flit.Pool{}
	}
	n.shardTicked = make([][]int, n.shards)
	n.lastRun = make([]int64, nodes)
	for id := range n.lastRun {
		n.lastRun[id] = -1
	}
	n.connMark = make([]int64, len(n.conns))
	for i := range n.connMark {
		n.connMark[i] = -1
	}
	// Each half-channel logs into its writer's shard list: flits are
	// written by the upstream router, credits by the downstream one.
	n.staged = make([][]int32, n.shards)
	for i, l := range n.links {
		n.conns[i].LogWrites(int32(i), &n.staged[n.shardOf[l.up]], &n.staged[n.shardOf[l.down]])
	}

	n.hot = router.NewHotState(nodes)
	for _, r := range n.routers {
		r.BindHot(n.hot)
	}
	n.activeBits = router.NewBitset(nodes)
	n.nextActiveBits = router.NewBitset(nodes)

	// colorMask[c] holds every router of color c; shards are contiguous
	// ascending-id ranges, so masking a color against [shardLo[s],
	// shardLo[s+1]) reproduces sched[c][s] exactly.
	n.colorMask = make([]router.Bitset, len(n.sched))
	for c := range n.sched {
		m := router.NewBitset(nodes)
		for s := range n.sched[c] {
			for _, id := range n.sched[c][s] {
				m.Set(id)
			}
		}
		n.colorMask[c] = m
	}
	n.shardLo = make([]int, n.shards+1)
	n.shardLo[n.shards] = nodes
	for v := nodes - 1; v >= 0; v-- {
		n.shardLo[n.shardOf[v]] = v
	}
}

// gatedKernel reports whether this network runs the activity-gated loop
// rather than the reference loop.
func (n *Network) gatedKernel() bool { return !n.cfg.ReferenceKernel }

// wakeNext marks router id active for the next cycle. No-op under the
// reference kernel, which ticks everything anyway.
func (n *Network) wakeNext(id int) {
	if n.nextActiveBits != nil {
		n.nextActiveBits.Set(id)
	}
}

// wakeNow marks router id active for the current cycle (fault
// installation wakes routers mid-Step, before the tick phases).
func (n *Network) wakeNow(id int) {
	if n.activeBits != nil {
		n.activeBits.Set(id)
	}
}

// HotState exposes the gated kernel's channel mirror (nil under the
// reference kernel); tests assert its transition invariants against the
// routers' own state.
func (n *Network) HotState() *router.HotState { return n.hot }

// stepGated is the activity-gated cycle loop. Phase order matches
// stepReference — faults, generation, retransmission, color-phased ticks,
// injection, pipe advance — with the wake scan, active-set swap and
// graveyard recycling in place of advancing every pipe.
func (n *Network) stepGated() {
	n.installDueFaults()
	n.generate()
	n.retransmitDue()
	t := n.cycle

	n.tickColors(t)

	n.inject()

	// Wake scan: a ticked router stays active while any of its channels
	// is non-dormant (one packed counter read).
	for s := range n.shardTicked {
		for _, id := range n.shardTicked[s] {
			if n.hot.RouterBusy(id) {
				n.nextActiveBits.Set(id)
			}
		}
		n.shardTicked[s] = n.shardTicked[s][:0]
	}
	// Pipe pass: merge the per-shard staged-conn lists. connMark drops the
	// second entry of a conn whose flit and credit halves were both
	// written; a staged flit wakes the downstream node, a staged credit
	// the upstream one. The merge order is immaterial (bit sets,
	// independent pipe advances) but deterministic anyway.
	for s := range n.staged {
		for _, c32 := range n.staged[s] {
			c := int(c32)
			if n.connMark[c] == t {
				continue
			}
			n.connMark[c] = t
			conn := n.conns[c]
			if n.isLong != nil && n.isLong[c] {
				// Multi-cycle D2D pipe: staged traffic moves it onto the
				// persistent advance list instead of the one-shot path;
				// the long pass below wakes the readers when traffic
				// actually lands.
				if !n.longOn[c] {
					n.longOn[c] = true
					n.longActive = append(n.longActive, c)
				}
				continue
			}
			if conn.Flit.Busy() {
				n.nextActiveBits.Set(n.links[c].down)
			}
			if conn.Credit.Pending() {
				n.nextActiveBits.Set(n.links[c].up)
			}
			conn.Advance()
		}
		n.staged[s] = n.staged[s][:0]
	}
	n.advanceLongConns()

	n.activeBits.CopyFrom(n.nextActiveBits)
	n.nextActiveBits.ClearAll()

	// Recycle the flits that died this cycle into their source shard's
	// pool. Deferred to here because delivery and drop sinks run mid-cycle
	// while callers still hold (and in places read) the pointers.
	for i, f := range n.graveyard {
		n.pools[n.shardOf[f.Src]].Put(f)
		n.graveyard[i] = nil
	}
	n.graveyard = n.graveyard[:0]

	n.finishCycle()
}

// advanceLongConns steps every multi-cycle D2D pipe with traffic in
// transit, waking the reader halves for the next cycle whenever a flit or
// credit lands. A pipe leaves the list only when quiescent, so
// gap-recovering serializers and mid-transit flits keep advancing even
// while both endpoint routers sleep. No-op on single-die topologies.
func (n *Network) advanceLongConns() {
	if len(n.longActive) == 0 {
		return
	}
	w := 0
	for _, c := range n.longActive {
		conn := n.conns[c]
		conn.Advance()
		if conn.Flit.Readable() {
			n.nextActiveBits.Set(n.links[c].down)
		}
		if conn.Credit.Readable() {
			n.nextActiveBits.Set(n.links[c].up)
		}
		if conn.Quiescent() {
			n.longOn[c] = false
		} else {
			n.longActive[w] = c
			w++
		}
	}
	n.longActive = n.longActive[:w]
}

// settleTo replays router id's skipped idle cycles through upTo, so its
// activity counters and tick-invariant arbitration state match a router
// that was ticked every cycle.
func (n *Network) settleTo(id int, upTo int64) {
	if gap := upTo - n.lastRun[id]; gap > 0 {
		n.routers[id].SkipCycles(gap)
		n.lastRun[id] = upTo
	}
}
