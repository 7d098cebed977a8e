package sim

import (
	"testing"

	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
)

func TestRunAllProcsExecute(t *testing.T) {
	e := New(8, 1)
	ran := make([]bool, 8)
	e.Run(func(p rt.Proc) {
		ran[p.ID()] = true
	})
	for i, r := range ran {
		if !r {
			t.Fatalf("proc %d did not run", i)
		}
	}
}

func TestTickAdvancesClockAndBills(t *testing.T) {
	e := New(1, 1)
	e.Run(func(p rt.Proc) {
		p.Tick(stats.Useful, 100)
		p.Tick(stats.Index, 50)
		if p.Now() != 150 {
			t.Errorf("now = %d, want 150", p.Now())
		}
	})
	bd := e.Proc(0).Stats()
	if bd.Get(stats.Useful) != 100 || bd.Get(stats.Index) != 50 {
		t.Fatalf("breakdown = %d/%d, want 100/50", bd.Get(stats.Useful), bd.Get(stats.Index))
	}
}

// TestSyncOrdersAccesses verifies the core simulation invariant: shared
// accesses preceded by Sync happen in simulated-time order across cores.
func TestSyncOrdersAccesses(t *testing.T) {
	e := New(4, 1)
	var order []int
	e.Run(func(p rt.Proc) {
		// Core i works for (4-i)*100 cycles, then appends. Expected
		// append order is by completion time: core 3 first.
		p.Tick(stats.Useful, uint64(4-p.ID())*100)
		p.Sync(stats.Useful, 0)
		order = append(order, p.ID())
	})
	want := []int{3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSyncTieBreakByID(t *testing.T) {
	e := New(4, 1)
	var order []int
	e.Run(func(p rt.Proc) {
		p.Tick(stats.Useful, 100) // all tie at t=100
		p.Sync(stats.Useful, 0)
		order = append(order, p.ID())
	})
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie order = %v, want ascending ids", order)
		}
	}
}

func TestParkUnpark(t *testing.T) {
	e := New(2, 1)
	var woke bool
	e.Run(func(p rt.Proc) {
		if p.ID() == 0 {
			p.Park(stats.Wait)
			woke = true
			if p.Now() < 1000 {
				t.Errorf("woken at %d, want >= 1000 (waker's clock)", p.Now())
			}
		} else {
			p.Tick(stats.Useful, 1000)
			p.Sync(stats.Useful, 0)
			e.Unpark(p, e.Proc(0))
		}
	})
	if !woke {
		t.Fatal("proc 0 never woke")
	}
	if e.Proc(0).Stats().Get(stats.Wait) == 0 {
		t.Fatal("wait time not billed")
	}
}

func TestUnparkBeforeParkLeavesPermit(t *testing.T) {
	e := New(2, 1)
	e.Run(func(p rt.Proc) {
		if p.ID() == 1 {
			// Runs first at t=0 tie-broken... id 0 runs first; ensure
			// permit order: proc 1 unparks proc 0 before it parks.
			e.Unpark(p, e.Proc(0))
			return
		}
		// Give proc 1 a chance to run first.
		p.Tick(stats.Useful, 500)
		p.Sync(stats.Useful, 0)
		p.Park(stats.Wait) // must consume the pending permit immediately
		if p.Now() > 600 {
			t.Errorf("park blocked despite pending permit (now=%d)", p.Now())
		}
	})
}

func TestParkTimeoutExpires(t *testing.T) {
	e := New(1, 1)
	e.Run(func(p rt.Proc) {
		woken := p.ParkTimeout(stats.Wait, 250)
		if woken {
			t.Error("ParkTimeout reported wakeup with no waker")
		}
		if p.Now() != 250 {
			t.Errorf("resumed at %d, want 250", p.Now())
		}
	})
}

func TestParkTimeoutWokenEarly(t *testing.T) {
	e := New(2, 1)
	e.Run(func(p rt.Proc) {
		if p.ID() == 0 {
			woken := p.ParkTimeout(stats.Wait, 1_000_000)
			if !woken {
				t.Error("expected wakeup before timeout")
			}
			if p.Now() >= 1_000_000 {
				t.Errorf("resumed at %d, after the timeout", p.Now())
			}
		} else {
			p.Tick(stats.Useful, 100)
			p.Sync(stats.Useful, 0)
			e.Unpark(p, e.Proc(0))
		}
	})
}

func TestLatchMutualExclusionAndFIFO(t *testing.T) {
	e := New(8, 1)
	l := e.NewLatch(1)
	depth := 0
	var grants []int
	e.Run(func(p rt.Proc) {
		p.Tick(stats.Useful, uint64(p.ID())) // stagger arrival
		l.Acquire(p, stats.Manager)
		depth++
		if depth != 1 {
			t.Errorf("latch held by %d procs simultaneously", depth)
		}
		grants = append(grants, p.ID())
		p.Sync(stats.Useful, 100) // hold across a yield
		depth--
		l.Release(p, stats.Manager)
	})
	if len(grants) != 8 {
		t.Fatalf("grants = %v", grants)
	}
	for i := range grants {
		if grants[i] != i {
			t.Fatalf("grant order %v not FIFO by arrival", grants)
		}
	}
}

// TestLatchFIFOAcrossLatches: contended procs acquire a latch in arrival
// order, then queue on a second latch carved from the same slab chunk in
// a different order (0, then n-1 down to 1). Proc 1 ends the second queue
// but sat mid-queue on the first, so a nextWaiter link left over from the
// first hand-off would pass the second latch on to a proc that is not
// waiting for it.
func TestLatchFIFOAcrossLatches(t *testing.T) {
	const n = 8
	e := New(n, 1)
	a, b := e.NewLatch(1), e.NewLatch(2)
	var first, second []int
	e.Run(func(p rt.Proc) {
		id := p.ID()
		p.Tick(stats.Useful, uint64(id)) // arrive at a in id order
		a.Acquire(p, stats.Manager)
		first = append(first, id)
		p.Sync(stats.Useful, 100) // hold across a yield
		a.Release(p, stats.Manager)

		arrive := uint64(100_000)
		if id > 0 {
			arrive += uint64(n-id) * 10
		}
		p.Tick(stats.Useful, arrive-p.Now())
		b.Acquire(p, stats.Manager)
		second = append(second, id)
		p.Sync(stats.Useful, 100)
		b.Release(p, stats.Manager)
	})
	wantSecond := []int{0}
	for id := n - 1; id > 0; id-- {
		wantSecond = append(wantSecond, id)
	}
	for i := 0; i < n; i++ {
		if len(first) != n || first[i] != i {
			t.Fatalf("first latch grant order %v, want arrival order 0..%d", first, n-1)
		}
		if len(second) != n || second[i] != wantSecond[i] {
			t.Fatalf("second latch grant order %v, want arrival order %v", second, wantSecond)
		}
	}
	id := func(p *Proc) int {
		if p == nil {
			return -1
		}
		return p.id
	}
	for i, l := range []rt.Latch{a, b} {
		if l := l.(*latch); l.holder != nil || l.head != nil || l.tail != nil {
			t.Errorf("latch %d left held by proc %d with queue %d..%d", i, id(l.holder), id(l.head), id(l.tail))
		}
	}
	for i := 0; i < n; i++ {
		if next := e.Proc(i).nextWaiter; next != nil {
			t.Errorf("proc %d still links to waiter %d", i, next.id)
		}
	}
}

// TestLatchMisusePanics: re-acquiring a held latch and releasing one held
// by another proc are protocol bugs and panic.
func TestLatchMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		body func(l rt.Latch, p rt.Proc) // runs on proc 1 while proc 0 holds l
		want string
	}{
		{"reentrant acquire", func(l rt.Latch, p rt.Proc) {
			l.Acquire(p, stats.Manager)
			l.Acquire(p, stats.Manager)
		}, "sim: latch is not reentrant"},
		{"release by non-holder", func(l rt.Latch, p rt.Proc) {
			l.Release(p, stats.Manager)
		}, "sim: latch released by non-holder"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(2, 1)
			l := e.NewLatch(1)
			var got any
			e.Run(func(p rt.Proc) {
				if p.ID() == 0 {
					l.Acquire(p, stats.Manager)
					p.Sync(stats.Useful, 10_000)
					l.Release(p, stats.Manager)
					return
				}
				p.Tick(stats.Useful, 5_000) // while proc 0 holds l
				defer func() { got = recover() }()
				c.body(l, p)
			})
			if got != c.want {
				t.Fatalf("panic = %v, want %q", got, c.want)
			}
		})
	}
}

func TestCounterAtomicity(t *testing.T) {
	e := New(16, 1)
	c := e.NewCounter(2)
	seen := make(map[uint64]bool)
	e.Run(func(p rt.Proc) {
		for i := 0; i < 10; i++ {
			v := c.Add(p, stats.TsAlloc, 1)
			if seen[v] {
				t.Errorf("duplicate counter value %d", v)
			}
			seen[v] = true
		}
	})
	if len(seen) != 160 {
		t.Fatalf("got %d unique values, want 160", len(seen))
	}
	if got := c.(*counter).value; got != 160 {
		t.Fatalf("final counter value = %d, want 160", got)
	}
}

// TestCounterSerializationThroughput verifies the coherence model: N cores
// hammering one atomic counter complete in time ~N*transfer, not ~N*1.
func TestCounterSerializationThroughput(t *testing.T) {
	const n, ops = 64, 50
	e := New(n, 1)
	c := e.NewCounter(3)
	var maxEnd uint64
	e.Run(func(p rt.Proc) {
		for i := 0; i < ops; i++ {
			c.Add(p, stats.TsAlloc, 1)
		}
		if p.Now() > maxEnd {
			maxEnd = p.Now()
		}
	})
	total := uint64(n * ops)
	// Average cost per op must reflect line transfers (>= a few cycles),
	// not local L1 hits.
	if avg := maxEnd / total; avg < 4 {
		t.Fatalf("avg cycles per contended atomic = %d, too cheap: line serialization not modeled", avg)
	}
}

func TestHardwareCounterFasterThanAtomicUnderContention(t *testing.T) {
	const n, ops = 256, 20
	run := func(mk func(e *Engine) rt.Counter) uint64 {
		e := New(n, 1)
		c := mk(e)
		var maxEnd uint64
		e.Run(func(p rt.Proc) {
			for i := 0; i < ops; i++ {
				c.Add(p, stats.TsAlloc, 1)
			}
			if p.Now() > maxEnd {
				maxEnd = p.Now()
			}
		})
		return maxEnd
	}
	atomicEnd := run(func(e *Engine) rt.Counter { return e.NewCounter(4) })
	hwEnd := run(func(e *Engine) rt.Counter { return e.NewHardwareCounter(5) })
	if hwEnd >= atomicEnd {
		t.Fatalf("hardware counter (%d cycles) not faster than atomic (%d cycles) at %d cores", hwEnd, atomicEnd, n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := New(32, 42)
		c := e.NewCounter(6)
		l := e.NewLatch(7)
		ends := make([]uint64, 32)
		e.Run(func(p rt.Proc) {
			for i := 0; i < 20; i++ {
				p.Tick(stats.Useful, uint64(p.Rand().Intn(50)))
				c.Add(p, stats.TsAlloc, 1)
				l.Acquire(p, stats.Manager)
				p.Sync(stats.Useful, 10)
				l.Release(p, stats.Manager)
			}
			ends[p.ID()] = p.Now()
		})
		return ends
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: proc %d ended at %d vs %d", i, a[i], b[i])
		}
	}
}

func TestGlobalStallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on global stall")
		}
	}()
	e := New(2, 1)
	e.Run(func(p rt.Proc) {
		p.Park(stats.Wait) // both park forever: lost-wakeup bug
	})
}

func TestMemAccessCosts(t *testing.T) {
	e := New(64, 1)
	e.Run(func(p rt.Proc) {
		if p.ID() != 0 {
			return
		}
		t0 := p.Now()
		p.MemRead(stats.Useful, 12345, 100)
		small := p.Now() - t0
		t0 = p.Now()
		p.MemRead(stats.Useful, 12345, 100000)
		big := p.Now() - t0
		if big <= small {
			t.Errorf("large read (%d cycles) not more expensive than small (%d)", big, small)
		}
	})
}

func TestRunTwicePanics(t *testing.T) {
	e := New(1, 1)
	e.Run(func(p rt.Proc) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Run")
		}
	}()
	e.Run(func(p rt.Proc) {})
}

func TestClockMonotonic(t *testing.T) {
	e := New(16, 7)
	e.Run(func(p rt.Proc) {
		prev := p.Now()
		for i := 0; i < 100; i++ {
			switch p.Rand().Intn(3) {
			case 0:
				p.Tick(stats.Useful, uint64(p.Rand().Intn(20)))
			case 1:
				p.Sync(stats.Manager, uint64(p.Rand().Intn(20)))
			case 2:
				p.ParkTimeout(stats.Wait, uint64(p.Rand().Intn(100)+1))
			}
			if p.Now() < prev {
				t.Errorf("clock went backwards: %d -> %d", prev, p.Now())
			}
			prev = p.Now()
		}
	})
}
