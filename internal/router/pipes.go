// Package router provides the shared microarchitectural building blocks
// the three router implementations (generic, path-sensitive, RoCo) are
// assembled from: 1-cycle link and credit pipes, virtual-channel buffers,
// output-side credit/allocation bookkeeping, activity counters for the
// energy model, and the Router interface the network fabric drives.
package router

import (
	"fmt"

	"github.com/rocosim/roco/internal/flit"
)

// FlitPipe is a one-cycle link latch: a flit written during cycle t becomes
// readable during cycle t+1, after the network advances all pipes at the
// cycle boundary. At most one flit per cycle models the single-flit-wide
// physical channel.
//
// Die-to-die boundary links extend the latch into a short pipeline
// (SetD2D): a written flit spends latency cycles in transit, and the
// serialization gap rate-limits delivery to one flit per gap cycles — the
// narrower off-chip channel re-serializes each flit over several link
// cycles. Ordinary on-die links never touch the extension and keep the
// plain two-field latch behavior.
type FlitPipe struct {
	cur, next *flit.Flit

	// long selects the multi-cycle path; latency/gap are the D2D pipe
	// parameters (both >= 1), inflight the in-transit FIFO (remaining
	// cycles per flit), and gapLeft the serializer's recovery timer.
	long     bool
	latency  int32
	gap      int32
	gapLeft  int32
	inflight []delayedFlit

	// staged is the writer router's staged-conn list (gated kernel only;
	// nil otherwise) and conn this link's index in it: see Conn.LogWrites.
	staged *[]int32
	conn   int32
}

// delayedFlit is one in-transit flit of a multi-cycle pipe.
type delayedFlit struct {
	f   *flit.Flit
	rem int32 // cycles until it reaches the far end
}

// setD2D turns the latch into a latency-cycle pipe delivering at most one
// flit per gap cycles. Conn.SetD2D is the public entry point.
func (p *FlitPipe) setD2D(latency, gap int) {
	if latency < 1 || gap < 1 {
		panic(fmt.Sprintf("router: d2d flit pipe needs latency and gap >= 1, got %d/%d", latency, gap))
	}
	p.long = latency > 1 || gap > 1
	p.latency = int32(latency)
	p.gap = int32(gap)
}

// Write stages f for delivery next cycle. Writing twice in one cycle
// panics: it means an allocator granted the same link to two flits, which
// is a simulator bug, never a legal outcome.
func (p *FlitPipe) Write(f *flit.Flit) {
	if p.next != nil {
		panic(fmt.Sprintf("router: link written twice in one cycle (%v then %v)", p.next, f))
	}
	p.next = f
	if p.staged != nil {
		*p.staged = append(*p.staged, p.conn)
	}
}

// Read consumes the flit delivered this cycle, or nil.
func (p *FlitPipe) Read() *flit.Flit {
	f := p.cur
	p.cur = nil
	return f
}

// Busy reports whether the pipe already carries a flit for next cycle.
func (p *FlitPipe) Busy() bool { return p.next != nil }

// Readable reports whether a flit is deliverable this cycle (Read would
// return non-nil). The gated kernel uses it to wake the downstream router
// exactly when a multi-cycle pipe completes a transfer.
func (p *FlitPipe) Readable() bool { return p.cur != nil }

// Occupancy counts the flits held by the pipe (current, staged, and — on a
// multi-cycle pipe — in transit); the network's flit-conservation auditor
// uses it to account for link flits.
func (p *FlitPipe) Occupancy() int {
	n := len(p.inflight)
	if p.cur != nil {
		n++
	}
	if p.next != nil {
		n++
	}
	return n
}

// Carries reports whether any flit of the packet is held by the pipe
// (staged, in transit, or deliverable). The orphan reaper probes the link
// feeding a doomed fragment state: while the pipe still carries the
// packet, a straggler can lawfully arrive — possibly many cycles out on a
// serialized die-to-die link, queued behind other packets' flits — so the
// state must not be retired yet.
func (p *FlitPipe) Carries(id uint64) bool {
	if p.cur != nil && p.cur.PacketID == id {
		return true
	}
	if p.next != nil && p.next.PacketID == id {
		return true
	}
	for i := range p.inflight {
		if p.inflight[i].f.PacketID == id {
			return true
		}
	}
	return false
}

// quiescent reports that advancing the pipe is a pure no-op: nothing held
// anywhere and the serializer's recovery timer expired.
func (p *FlitPipe) quiescent() bool {
	return p.cur == nil && p.next == nil && len(p.inflight) == 0 && p.gapLeft == 0
}

// Advance moves staged values into view. The network calls it once per
// cycle boundary. An unconsumed flit is a protocol violation: credit-based
// flow control guarantees the receiver always has room.
func (p *FlitPipe) Advance() {
	if p.cur != nil {
		panic(fmt.Sprintf("router: flit %v was never consumed", p.cur))
	}
	if p.long {
		p.advanceLong()
		return
	}
	p.cur, p.next = p.next, nil
}

// advanceLong steps the multi-cycle pipe: in-transit flits approach the far
// end, the serializer timer runs down, the staged flit enters transit, and
// the front flit lands once its transit is done and the serializer has
// recovered. Delivery order is FIFO; flits queue at the far end behind the
// serializer when gap exceeds 1.
func (p *FlitPipe) advanceLong() {
	for i := range p.inflight {
		if p.inflight[i].rem > 0 {
			p.inflight[i].rem--
		}
	}
	if p.gapLeft > 0 {
		p.gapLeft--
	}
	if p.next != nil {
		p.inflight = append(p.inflight, delayedFlit{f: p.next, rem: p.latency - 1})
		p.next = nil
	}
	if len(p.inflight) > 0 && p.inflight[0].rem == 0 && p.gapLeft == 0 {
		p.cur = p.inflight[0].f
		p.inflight[0].f = nil
		p.inflight = p.inflight[:copy(p.inflight, p.inflight[1:])]
		// The timer is decremented at the top of the NEXT advance before the
		// delivery check runs, so gap (not gap-1) yields one flit per gap
		// cycles. Gap 1 needs no recovery at all.
		if p.gap > 1 {
			p.gapLeft = p.gap
		}
	}
}

// CreditPipe carries credits upstream with a one-cycle delay. Several
// credits may be emitted in one cycle (e.g. an early ejection draining
// multiple VCs is impossible on one link, but tail-release and regular
// forwarding can coincide across VC indexes).
type CreditPipe struct {
	// cur and next ping-pong between two backing arrays that live for the
	// pipe's lifetime, so steady-state Writes never touch the heap. Read
	// hands out cur without surrendering the header; Writes only ever
	// append to next, which keeps the lease sound until the next Advance.
	cur, next []int
	readable  bool // cur carries this cycle's credits, not yet consumed

	// long selects the multi-cycle path of a D2D boundary link: credits
	// spend latency cycles in transit (no serialization gap — a credit is
	// a few bits, not a flit). inflight holds them with remaining cycles.
	long     bool
	latency  int32
	inflight []delayedCredit

	// staged and conn: as on FlitPipe.
	staged *[]int32
	conn   int32
}

// delayedCredit is one in-transit credit of a multi-cycle pipe.
type delayedCredit struct {
	vc  int32
	rem int32
}

// setD2D turns the latch into a latency-cycle credit pipe.
func (p *CreditPipe) setD2D(latency int) {
	if latency < 1 {
		panic(fmt.Sprintf("router: d2d credit pipe needs latency >= 1, got %d", latency))
	}
	p.long = latency > 1
	p.latency = int32(latency)
}

// Write stages a credit for VC index vc. Only the cycle's first credit
// logs the conn; later ones ride the same advance.
func (p *CreditPipe) Write(vc int) {
	if len(p.next) == 0 && p.staged != nil {
		*p.staged = append(*p.staged, p.conn)
	}
	p.next = append(p.next, vc)
}

// Read consumes the credits delivered this cycle, or nil. The returned
// slice is only valid until the next Advance.
func (p *CreditPipe) Read() []int {
	if !p.readable {
		return nil
	}
	p.readable = false
	return p.cur
}

// Pending reports whether credits are staged for next cycle.
func (p *CreditPipe) Pending() bool { return len(p.next) > 0 }

// Readable reports whether credits are deliverable this cycle; the gated
// kernels use it to wake the upstream router when a multi-cycle pipe
// completes a transfer.
func (p *CreditPipe) Readable() bool { return p.readable }

// quiescent reports that advancing the pipe is a pure no-op.
func (p *CreditPipe) quiescent() bool {
	return len(p.next) == 0 && len(p.inflight) == 0 && !p.readable
}

// Advance moves staged credits into view.
func (p *CreditPipe) Advance() {
	if p.long {
		p.advanceLong()
		return
	}
	p.cur, p.next = p.next, p.cur[:0]
	p.readable = len(p.cur) > 0
}

// advanceLong steps the multi-cycle credit pipe: in-transit credits
// approach the far end, staged credits enter transit, and every credit
// whose transit completed lands in cur (several may land together — the
// sideband is not flit-serialized).
func (p *CreditPipe) advanceLong() {
	for i := range p.inflight {
		if p.inflight[i].rem > 0 {
			p.inflight[i].rem--
		}
	}
	for _, vc := range p.next {
		p.inflight = append(p.inflight, delayedCredit{vc: int32(vc), rem: p.latency - 1})
	}
	p.next = p.next[:0]
	p.cur = p.cur[:0]
	n := 0
	for n < len(p.inflight) && p.inflight[n].rem == 0 {
		p.cur = append(p.cur, int(p.inflight[n].vc))
		n++
	}
	if n > 0 {
		p.inflight = p.inflight[:copy(p.inflight, p.inflight[n:])]
	}
	p.readable = len(p.cur) > 0
}

// Conn bundles the two half-channels of one directed router-to-router
// link: flits flowing downstream and credits flowing back upstream.
type Conn struct {
	Flit   FlitPipe
	Credit CreditPipe
}

// SetD2D configures the link as a die-to-die boundary crossing: flits take
// latency cycles and at most one flit leaves per gap cycles (the off-chip
// serializer); credits take the same latency back but are not
// flit-serialized. The network calls it at wiring time, before any
// traffic.
func (c *Conn) SetD2D(latency, gap int) {
	c.Flit.setD2D(latency, gap)
	c.Credit.setD2D(latency)
}

// LogWrites makes each half-channel append conn to a staged list on its
// first write of a cycle: flits to flitLog (the upstream writer's list),
// credits to creditLog (the downstream writer's). The gated kernel keeps
// one list per shard and, after the tick phases, advances exactly the
// logged conns; each half has one writer router, so shards never append
// to the same list concurrently.
func (c *Conn) LogWrites(conn int32, flitLog, creditLog *[]int32) {
	c.Flit.staged, c.Flit.conn = flitLog, conn
	c.Credit.staged, c.Credit.conn = creditLog, conn
}

// Long reports whether the link is a multi-cycle D2D pipe. Long conns are
// excluded from the gated kernel's one-shot advance path and instead stay
// on a persistent advance list until Quiescent.
func (c *Conn) Long() bool { return c.Flit.long || c.Credit.long }

// Quiescent reports that advancing the conn is a pure no-op: both pipes
// empty and all timers expired. The gated kernel retires a long conn from
// the advance list only when it is quiescent, so pipes in every non-trivial
// state advance exactly once per cycle — the same as under the reference
// kernel.
func (c *Conn) Quiescent() bool { return c.Flit.quiescent() && c.Credit.quiescent() }

// Advance advances both pipes.
func (c *Conn) Advance() {
	c.Flit.Advance()
	c.Credit.Advance()
}
