package router

import (
	"testing"

	"github.com/rocosim/roco/internal/topology"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130) // 3 words, last one partial
	if b.Any() || b.Count() != 0 {
		t.Fatal("fresh bitset should be empty")
	}
	for _, i := range []int{0, 63, 64, 127, 128, 129} {
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("Set(%d) not observed by Test", i)
		}
	}
	if b.Count() != 6 || !b.Any() {
		t.Fatalf("count = %d, want 6", b.Count())
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 5 {
		t.Fatal("Clear(64) did not remove the member")
	}

	dst := NewBitset(130)
	dst.CopyFrom(b)
	if dst.Count() != 5 || !dst.Test(129) {
		t.Fatal("CopyFrom did not reproduce the set")
	}
	dst.ClearAll()
	if dst.Any() {
		t.Fatal("ClearAll left members behind")
	}
	if b.Count() != 5 {
		t.Fatal("clearing the copy disturbed the source")
	}
}

func TestBitsetSetFirst(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		b := NewBitset(130)
		b.SetFirst(n)
		if b.Count() != n {
			t.Fatalf("SetFirst(%d): count = %d", n, b.Count())
		}
		if n > 0 && !b.Test(n-1) {
			t.Fatalf("SetFirst(%d): member %d missing", n, n-1)
		}
		if n < 130 && b.Test(n) {
			t.Fatalf("SetFirst(%d): member %d present", n, n)
		}
	}
}

func TestBitsetForEachIn(t *testing.T) {
	b := NewBitset(256)
	members := []int{3, 63, 64, 65, 127, 128, 200, 255}
	for _, i := range members {
		b.Set(i)
	}
	cases := []struct {
		lo, hi int
		want   []int
	}{
		{0, 256, members},
		{63, 65, []int{63, 64}},       // straddles a word boundary
		{64, 128, []int{64, 65, 127}}, // word-aligned lo, boundary hi
		{65, 66, []int{65}},           // single-member window
		{4, 63, nil},                  // gap inside the first word
		{128, 128, nil},               // empty range
		{200, 100, nil},               // inverted range
		{129, 256, []int{200, 255}},   // tail words, hi at capacity
	}
	for _, c := range cases {
		var got []int
		b.ForEachIn(c.lo, c.hi, func(i int) { got = append(got, i) })
		if len(got) != len(c.want) {
			t.Fatalf("ForEachIn(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ForEachIn(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
			}
		}
	}
}

// bindTestRouters builds a hot state with two routers of two channels each
// and returns it alongside the channels, slot-ordered.
func bindTestRouters(t *testing.T) (*HotState, []*VC) {
	t.Helper()
	hs := NewHotState(2)
	vcs := []*VC{newVC(0, 4), newVC(1, 4), newVC(0, 4), newVC(1, 4)}
	hs.BindRouter(0, vcs[:2])
	hs.BindRouter(1, vcs[2:])
	if hs.Routers() != 2 || hs.Slots() != 4 {
		t.Fatalf("bound %d routers / %d slots, want 2 / 4", hs.Routers(), hs.Slots())
	}
	return hs, vcs
}

// TestHotStateActivityTransitions is the table-driven edge check of the
// dormancy mirror: each step mutates one bound channel through its public
// mutators and asserts the packed busy counters and occupancy observe
// exactly the transition the routers' own Dormant()/Idle() sweep would.
func TestHotStateActivityTransitions(t *testing.T) {
	hs, vcs := bindTestRouters(t)
	p1 := makePacketFlits(1, 2, topology.East)
	p2 := makePacketFlits(2, 1, topology.West)

	steps := []struct {
		name     string
		op       func()
		busy     [2]bool // expected RouterBusy per router
		buffered [2]int  // expected buffered flits per router
	}{
		{"initial", func() {}, [2]bool{false, false}, [2]int{0, 0}},
		// A claim reserves a slot but leaves the channel dormant: no work
		// exists until the claiming packet's first flit lands.
		{"claim alone stays dormant", func() { vcs[0].Claim(topology.West) },
			[2]bool{false, false}, [2]int{0, 0}},
		{"head push wakes router 0", func() { vcs[0].PushFrom(p1[0], topology.West) },
			[2]bool{true, false}, [2]int{1, 0}},
		{"second flit leaves it awake", func() { vcs[0].PushFrom(p1[1], topology.West) },
			[2]bool{true, false}, [2]int{2, 0}},
		{"second channel wakes router 1", func() {
			vcs[3].Claim(topology.North)
			vcs[3].PushFrom(p2[0], topology.North)
		}, [2]bool{true, true}, [2]int{2, 1}},
		{"partial pop keeps router 0 awake", func() { vcs[0].Pop() },
			[2]bool{true, true}, [2]int{1, 1}},
		{"tail pop drains router 0 dormant", func() { vcs[0].Pop() },
			[2]bool{false, true}, [2]int{0, 1}},
		{"tail pop drains router 1 dormant", func() { vcs[3].Pop() },
			[2]bool{false, false}, [2]int{0, 0}},
	}
	for _, s := range steps {
		s.op()
		for id := 0; id < 2; id++ {
			if got := hs.RouterBusy(id); got != s.busy[id] {
				t.Fatalf("%s: RouterBusy(%d) = %v, want %v", s.name, id, got, s.busy[id])
			}
			// The mirror must agree with the channels' own virtual answer.
			dormant, buffered := true, 0
			for _, vc := range vcs[id*2 : id*2+2] {
				dormant = dormant && vc.Dormant()
				buffered += vc.Len()
			}
			if hs.RouterBusy(id) == dormant {
				t.Fatalf("%s: mirror disagrees with Dormant() sweep on router %d", s.name, id)
			}
			if buffered != s.buffered[id] {
				t.Fatalf("%s: router %d buffers %d flits, want %d", s.name, id, buffered, s.buffered[id])
			}
		}
		if got, want := hs.TotalBuffered(), int64(s.buffered[0]+s.buffered[1]); got != want {
			t.Fatalf("%s: TotalBuffered = %d, want %d", s.name, got, want)
		}
	}
	if hs.TotalBuffered() != 0 {
		t.Fatalf("total buffered = %d after full drain", hs.TotalBuffered())
	}
}

// TestHotStateAbortFrontSleeps covers the recovery-path transition: a
// front packet whose flits all drained elsewhere is aborted, and the
// channel must fall dormant through the same mirror hook as a tail pop.
func TestHotStateAbortFrontSleeps(t *testing.T) {
	hs, vcs := bindTestRouters(t)
	vc := vcs[2] // router 1, first channel
	vc.Claim(topology.South)
	head := makePacketFlits(9, 2, topology.East)[0]
	vc.PushFrom(head, topology.South)
	if !hs.RouterBusy(1) {
		t.Fatal("pushed head did not wake router 1")
	}
	// The head streams out; the tail was dropped upstream and will never
	// arrive, so recovery aborts the stranded state.
	vc.Pop()
	if !hs.RouterBusy(1) {
		t.Fatal("resident packet state must keep the router awake after its flits drain")
	}
	vc.AbortFront()
	if hs.RouterBusy(1) {
		t.Fatal("AbortFront did not put router 1 to sleep")
	}
	if !vc.Dormant() || hs.TotalBuffered() != 0 {
		t.Fatal("aborted channel should be dormant and empty")
	}
}

// TestHotStateResync pins the snapshot-restore contract: channel internals
// mutated behind the mirror's back (as VC.LoadState does) are reconciled
// by one Resync call.
func TestHotStateResync(t *testing.T) {
	hs, vcs := bindTestRouters(t)
	// Simulate a snapshot load: write the buffers directly, bypassing the
	// syncHot mutator hooks.
	f := makePacketFlits(5, 1, topology.East)[0]
	vcs[1].queue = append(vcs[1].queue, f)
	vcs[1].states = append(vcs[1].states, pktState{packetID: 5})
	vcs[1].claims = 1
	if hs.RouterBusy(0) {
		t.Fatal("mirror saw a bypassing write; test is vacuous")
	}
	hs.Resync()
	if !hs.RouterBusy(0) || hs.RouterBusy(1) || hs.TotalBuffered() != 1 {
		t.Fatal("Resync did not rebuild the mirror from channel state")
	}
	// Drain through the public mutator: hooks and Resync must compose.
	vcs[1].Pop()
	if hs.RouterBusy(0) || hs.TotalBuffered() != 0 {
		t.Fatal("post-Resync mutation left the mirror stale")
	}
}

func TestHotStateBindPanics(t *testing.T) {
	t.Run("out of order", func(t *testing.T) {
		hs := NewHotState(2)
		defer func() {
			if recover() == nil {
				t.Error("binding router 1 first should panic")
			}
		}()
		hs.BindRouter(1, nil)
	})
	t.Run("beyond declared nodes", func(t *testing.T) {
		hs := NewHotState(1)
		hs.BindRouter(0, nil)
		defer func() {
			if recover() == nil {
				t.Error("binding past the declared node count should panic")
			}
		}()
		hs.BindRouter(1, nil)
	})
	t.Run("double bind", func(t *testing.T) {
		hs := NewHotState(2)
		vc := newVC(0, 2)
		hs.BindRouter(0, []*VC{vc})
		defer func() {
			if recover() == nil {
				t.Error("binding one channel twice should panic")
			}
		}()
		hs.BindRouter(1, []*VC{vc})
	})
}

// TestVCArenaLazyBuffers pins the memory-diet contract: an arena channel
// is born with nil backing arrays, allocates the flit queue at full depth
// and the packet-state array at a small starting capacity on the first
// push, and then behaves as an ordinary channel.
func TestVCArenaLazyBuffers(t *testing.T) {
	var a VCArena
	vc := a.NewVC(2, 4)
	if vc.queue != nil || vc.states != nil {
		t.Fatal("arena channel should defer buffer allocation")
	}
	if !vc.Dormant() || !vc.Claimable(topology.East) {
		t.Fatal("lazy channel must act as an idle channel")
	}
	vc.Claim(topology.East)
	fl := makePacketFlits(1, 2, topology.East)
	vc.PushFrom(fl[0], topology.East)
	if cap(vc.queue) != 4 || cap(vc.states) != lazyStateCap {
		t.Fatalf("first push must allocate queue at depth, states at lazyStateCap: queue %d/%d, states %d/%d",
			cap(vc.queue), 4, cap(vc.states), lazyStateCap)
	}
	vc.PushFrom(fl[1], topology.East)
	if vc.Pop().PacketID != 1 || vc.Pop().PacketID != 1 || !vc.Idle() {
		t.Fatal("arena channel FIFO broken")
	}
}

func TestVCArenaChunking(t *testing.T) {
	var a VCArena
	first := a.NewVC(0, 2)
	for i := 1; i < arenaChunk; i++ {
		a.NewVC(i, 2)
	}
	next := a.NewVC(arenaChunk, 2) // forces a fresh slab
	if first == next {
		t.Fatal("slab rollover returned an aliased channel")
	}
	if next.Index != arenaChunk || next.Depth != 2 || next.claimFeeder != topology.Invalid {
		t.Fatal("post-rollover channel not initialized")
	}
	defer func() {
		if recover() == nil {
			t.Error("arena NewVC with depth 0 should panic")
		}
	}()
	a.NewVC(0, 0)
}
