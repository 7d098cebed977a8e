// Package sim implements the many-core machine simulator that substitutes
// for Graphite (§3.1 of the paper). It executes up to 1024 logical cores as
// cooperatively scheduled goroutines over a deterministic discrete-event
// engine: exactly one core's goroutine runs at any moment, and the engine
// always resumes the runnable core with the smallest (cycle, id) pair, so
// every access to shared DBMS state happens in simulated-time order.
//
// Consequences of this design:
//
//   - No Go-level data races: the DBMS's shared structures are mutated by
//     one goroutine at a time, always between ordering points.
//   - Determinism: given a seed, a run produces bit-identical results —
//     Go's garbage collector and scheduler cannot perturb simulated time,
//     which is exactly the distortion the reproduction banding warned about.
//   - Faithful contention: latches and atomic counters serialize through
//     mesh.Line occupancy windows, reproducing the coherence bottlenecks
//     (timestamp allocation, mutex convoys, lock thrashing) that drive the
//     paper's results.
//
// The engine's hot path is allocation-free. Pending resumptions live in an
// intrusive indexed heap (eventQueue) whose minimum is always live, so an
// ordering point where the running core still owns the smallest (cycle, id)
// pair — the common case — costs one comparison against the queue head
// instead of a push + park + resume round trip through the Go scheduler.
// Scheduling order is identical to the naive push-then-pop engine: the fast
// path fires exactly when popping would have returned the pushing core.
package sim

import (
	"fmt"
	"math/rand"

	"abyss1000/internal/mem"
	"abyss1000/internal/mesh"
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
)

// wakeLatencyBase is the fixed cost, beyond mesh traversal, of delivering a
// wakeup (an inter-processor interrupt / monitor write on the target line).
const wakeLatencyBase = mesh.LineOpCycles

// Engine is the discrete-event scheduler for one simulated chip.
type Engine struct {
	chip  *mesh.Chip
	procs []*Proc
	queue eventQueue
	seed  int64

	doneCount int
	doneCh    chan struct{}
	started   bool
	stalled   bool

	// latches and counters back NewLatch/NewCounter: a database creates
	// one latch per row and per index bucket, so each is carved from a
	// slab rather than allocated on its own.
	latches  mem.Slab[latch]
	counters mem.Slab[counter]
}

// New creates an engine simulating n cores with the given RNG seed.
func New(n int, seed int64) *Engine {
	e := &Engine{
		chip:   mesh.NewChip(n),
		doneCh: make(chan struct{}),
		seed:   seed,
	}
	e.queue.h = make([]*Proc, 0, n)
	e.procs = make([]*Proc, n)
	for i := 0; i < n; i++ {
		e.procs[i] = &Proc{
			id:      i,
			eng:     e,
			heapIdx: -1,
			resume:  make(chan struct{}, 1),
			rng:     rand.New(rand.NewSource(seed + int64(i)*0x9e3779b9)),
		}
	}
	return e
}

// Chip exposes the simulated chip's topology (for allocators that need
// tile distances, e.g. clock-based timestamp allocation costs).
func (e *Engine) Chip() *mesh.Chip { return e.chip }

// NumProcs implements rt.Runtime.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Frequency implements rt.Runtime: the target runs at 1 GHz.
func (e *Engine) Frequency() float64 { return mesh.Frequency }

// Proc returns simulated core i (useful in tests).
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// schedule pops the next pending event and prepares its proc for
// resumption, returning nil when every proc has finished or when the
// simulation has globally stalled (live procs exist but none is scheduled —
// a protocol bug such as a lost wakeup or an undetected deadlock; Run
// panics in that case, on its caller's goroutine).
func (e *Engine) schedule() *Proc {
	if e.queue.len() > 0 {
		p := e.queue.popMin()
		p.resumeAt = p.eventAt
		return p
	}
	if e.doneCount != len(e.procs) {
		e.stalled = true
	}
	return nil
}

// handoff transfers the baton from p to the next scheduled proc. p must
// have already scheduled its own next event if it expects to run again.
func (e *Engine) handoff(p *Proc) {
	next := e.schedule()
	if next == p {
		p.now = p.resumeAt
		return
	}
	if next != nil {
		next.resume <- struct{}{}
	} else {
		close(e.doneCh)
		if e.stalled {
			// The simulation is wedged; this goroutine represents a
			// proc parked forever. Run's caller will panic with the
			// diagnostic. Block here (the test/process is aborting).
			select {}
		}
	}
	if p.done {
		return
	}
	<-p.resume
	p.now = p.resumeAt
}

// Run implements rt.Runtime: it executes body on every simulated core and
// returns when all cores have finished. Run may be called once per Engine.
func (e *Engine) Run(body func(p rt.Proc)) {
	if e.started {
		panic("sim: Engine.Run called twice")
	}
	e.started = true
	for _, p := range e.procs {
		e.queue.schedule(p, p.now)
	}
	for _, p := range e.procs {
		p := p
		go func() {
			<-p.resume
			p.now = p.resumeAt
			body(p)
			p.done = true
			e.queue.remove(p) // drop any leftover deadline entry
			e.doneCount++
			e.handoff(p)
		}()
	}
	// Kick off the first core from the caller's goroutine, then wait.
	first := e.schedule()
	if first == nil {
		close(e.doneCh)
	} else {
		first.resume <- struct{}{}
	}
	<-e.doneCh
	if e.stalled {
		panic(fmt.Sprintf("sim: global stall: %d/%d procs finished, remainder parked forever (lost wakeup or undetected deadlock)", e.doneCount, len(e.procs)))
	}
}

// Proc is one simulated core. It implements rt.Proc.
type Proc struct {
	id  int
	eng *Engine
	now uint64
	rng *rand.Rand
	bd  stats.Breakdown

	// pend batches cycles billed by Tick/Sync/Park so the per-cycle path
	// touches one flat array instead of Breakdown's attempt bookkeeping.
	// It is flushed into bd by Stats(), which is how all attempt
	// transitions (Begin/Commit/AbortAttempt) and breakdown reads reach
	// the Breakdown — so every flushed cycle lands under the same
	// in-attempt state it was billed under, and totals are bit-identical
	// to unbatched accounting.
	pend [stats.NumComponents]uint64

	resume   chan struct{}
	resumeAt uint64

	// eventAt/heapIdx are the proc's intrusive slot in the engine's
	// eventQueue; heapIdx is -1 while the proc has no pending event.
	eventAt uint64
	heapIdx int32
	done    bool

	// Parking state (permit semantics, see rt.Proc).
	parked      bool
	parkedAt    uint64
	permit      bool
	wakePending bool

	// nextWaiter links the proc into the FIFO of the one latch it is
	// parked on; nil when it is last in line or not waiting.
	nextWaiter *Proc
}

var _ rt.Proc = (*Proc)(nil)

// ID implements rt.Proc.
func (p *Proc) ID() int { return p.id }

// Now implements rt.Proc.
func (p *Proc) Now() uint64 { return p.now }

// Rand implements rt.Proc.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// Stats implements rt.Proc. It flushes the batched cycle accounting first,
// so callers always observe (and mutate attempt state against) an
// up-to-date Breakdown.
func (p *Proc) Stats() *stats.Breakdown {
	p.bd.AddPending(&p.pend)
	return &p.bd
}

// Tick implements rt.Proc: advance the local clock without yielding. Use
// for core-local work (application logic, private-buffer copies).
func (p *Proc) Tick(c stats.Component, cycles uint64) {
	p.now += cycles
	p.pend[c] += cycles
}

// Sync implements rt.Proc: advance the clock and yield so that the engine
// can run any core whose clock is behind ours. Code performing an access to
// shared simulation state calls Sync first; the access then occurs in
// global simulated-time order.
//
// Fast path: if the queue's live minimum is after (p.now, p.id), no other
// core could legally run before p, so pushing p and immediately popping it
// back would be a no-op — Sync returns without touching the queue. This is
// exact, not heuristic: the eventQueue holds no stale entries, so the
// comparison against its head decides precisely what the push-then-pop
// engine would have decided.
func (p *Proc) Sync(c stats.Component, cycles uint64) {
	p.now += cycles
	p.pend[c] += cycles
	e := p.eng
	if e.queue.len() == 0 {
		return
	}
	if m := e.queue.min(); m.eventAt > p.now || (m.eventAt == p.now && m.id > p.id) {
		return
	}
	e.queue.schedule(p, p.now)
	e.handoff(p)
}

// MemRead implements rt.Proc: a NUCA L2 access to the slice homing key,
// plus pipeline cycles proportional to the bytes moved.
func (p *Proc) MemRead(c stats.Component, key uint64, bytes uint64) {
	home := p.eng.chip.HomeTile(key)
	p.Tick(c, p.eng.chip.L2Access(p.id, home)+bytes/16)
}

// MemWrite implements rt.Proc. Writes pay the same NUCA traversal (the line
// must be fetched for ownership) plus the store bandwidth.
func (p *Proc) MemWrite(c stats.Component, key uint64, bytes uint64) {
	home := p.eng.chip.HomeTile(key)
	p.Tick(c, p.eng.chip.L2Access(p.id, home)+bytes/8)
}

// Park implements rt.Proc.
func (p *Proc) Park(c stats.Component) {
	if p.permit {
		p.permit = false
		p.Tick(c, mesh.L1Cycles)
		return
	}
	p.parked = true
	p.parkedAt = p.now
	p.wakePending = false
	p.eng.queue.remove(p) // no deadline: only an Unpark may reschedule us
	p.eng.handoff(p)
	// Resumed by an Unpark: resumeAt was set by schedule().
	p.parked = false
	p.wakePending = false
	p.pend[c] += p.now - p.parkedAt
}

// ParkTimeout implements rt.Proc.
func (p *Proc) ParkTimeout(c stats.Component, cycles uint64) bool {
	if p.permit {
		p.permit = false
		p.Tick(c, mesh.L1Cycles)
		return true
	}
	p.parked = true
	p.parkedAt = p.now
	p.wakePending = false
	p.eng.queue.schedule(p, p.now+cycles) // deadline entry
	p.eng.handoff(p)
	woken := p.wakePending
	p.parked = false
	p.wakePending = false
	p.pend[c] += p.now - p.parkedAt
	return woken
}

// Unpark implements rt.Runtime's wakeup on behalf of waker. If target is
// parked it is scheduled at max(parkedAt, waker.Now()+delivery); otherwise a
// permit is left for target's next Park. A pending ParkTimeout deadline is
// superseded in place (decrease- or increase-key) rather than shadowed by a
// second entry.
func (e *Engine) Unpark(waker rt.Proc, target rt.Proc) {
	t := target.(*Proc)
	if !t.parked {
		t.permit = true
		return
	}
	if t.wakePending {
		return // a wake is already in flight; permits are binary
	}
	var wakeAt uint64
	if waker != nil {
		w := waker.(*Proc)
		lat := uint64(wakeLatencyBase + mesh.HopCycles*e.chip.Hops(w.id, t.id))
		wakeAt = w.now + lat
	}
	if wakeAt < t.parkedAt {
		wakeAt = t.parkedAt
	}
	t.wakePending = true
	e.queue.schedule(t, wakeAt)
}

// latch is the simulated rt.Latch: a test-and-set word on a shared cache
// line with a FIFO waiter queue. Contended acquisition parks the caller;
// release hands the latch directly to the head waiter (no thundering herd).
//
// The queue is intrusive: head and tail point at parked procs, linked
// through Proc.nextWaiter. A parked proc waits on exactly one latch, so one
// link per proc suffices and queueing allocates nothing. With the cache
// line embedded by value, a latch is one 48-byte slab entry.
type latch struct {
	line       mesh.Line
	holder     *Proc
	head, tail *Proc
}

// NewLatch implements rt.Runtime.
func (e *Engine) NewLatch(key uint64) rt.Latch {
	l := e.latches.New()
	l.line = mesh.MakeLine(e.chip, key)
	return l
}

// Acquire implements rt.Latch.
func (l *latch) Acquire(p rt.Proc, c stats.Component) {
	sp := p.(*Proc)
	sp.Sync(c, 0) // ordering point: run any core whose clock is behind
	done := l.line.Exclusive(sp.id, sp.now)
	sp.Tick(c, done-sp.now)
	if l.holder == nil {
		l.holder = sp
		return
	}
	if l.holder == sp {
		panic("sim: latch is not reentrant")
	}
	if l.tail == nil {
		l.head = sp
	} else {
		l.tail.nextWaiter = sp
	}
	l.tail = sp
	sp.Park(c)
	// The releaser made us the holder before unparking us.
}

// Release implements rt.Latch.
func (l *latch) Release(p rt.Proc, c stats.Component) {
	sp := p.(*Proc)
	if l.holder != sp {
		panic("sim: latch released by non-holder")
	}
	done := l.line.Exclusive(sp.id, sp.now)
	sp.Tick(c, done-sp.now)
	next := l.head
	l.holder = next
	if next == nil {
		return
	}
	l.head = next.nextWaiter
	if l.head == nil {
		l.tail = nil
	}
	next.nextWaiter = nil
	sp.eng.Unpark(sp, next)
}

// counter is the simulated rt.Counter: an atomic fetch-add word on a shared
// cache line. Every Add pays the coherence transfer from the previous owner
// tile and serializes through the line's occupancy window — with 1024 cores
// the cross-chip round trip caps throughput near 10M ops/s at 1 GHz,
// reproducing the paper's Fig. 6 arithmetic.
type counter struct {
	line  mesh.Line
	value uint64
}

// NewCounter implements rt.Runtime.
func (e *Engine) NewCounter(key uint64) rt.Counter {
	c := e.counters.New()
	c.line = mesh.MakeLine(e.chip, key)
	return c
}

// Add implements rt.Counter.
func (c *counter) Add(p rt.Proc, comp stats.Component, delta uint64) uint64 {
	sp := p.(*Proc)
	sp.Sync(comp, 0)
	done := c.line.Exclusive(sp.id, sp.now)
	sp.Tick(comp, done-sp.now)
	c.value += delta
	return c.value
}

// Load implements rt.Counter.
func (c *counter) Load(p rt.Proc, comp stats.Component) uint64 {
	sp := p.(*Proc)
	sp.Sync(comp, 0)
	done := c.line.Read(sp.id, sp.now)
	sp.Tick(comp, done-sp.now)
	return c.value
}

// Store implements rt.Counter.
func (c *counter) Store(p rt.Proc, comp stats.Component, v uint64) {
	sp := p.(*Proc)
	sp.Sync(comp, 0)
	done := c.line.Exclusive(sp.id, sp.now)
	sp.Tick(comp, done-sp.now)
	c.value = v
}

// hwCounter is the paper's proposed hardware fetch-add unit at the chip
// center (§4.3): requests travel the mesh, are serviced in one cycle, and
// return. No cache line ping-pongs, so throughput reaches ~1 ts/cycle.
type hwCounter struct {
	svc   *mesh.CenterService
	value uint64
}

// NewHardwareCounter implements rt.Runtime.
func (e *Engine) NewHardwareCounter(key uint64) rt.Counter {
	return &hwCounter{svc: mesh.NewCenterService(e.chip)}
}

// Add implements rt.Counter.
func (c *hwCounter) Add(p rt.Proc, comp stats.Component, delta uint64) uint64 {
	sp := p.(*Proc)
	sp.Sync(comp, 0)
	done := c.svc.Request(sp.id, sp.now)
	sp.Tick(comp, done-sp.now)
	c.value += delta
	return c.value
}

// Load implements rt.Counter.
func (c *hwCounter) Load(p rt.Proc, comp stats.Component) uint64 {
	sp := p.(*Proc)
	sp.Sync(comp, 0)
	done := c.svc.Request(sp.id, sp.now)
	sp.Tick(comp, done-sp.now)
	return c.value
}

// Store implements rt.Counter.
func (c *hwCounter) Store(p rt.Proc, comp stats.Component, v uint64) {
	sp := p.(*Proc)
	sp.Sync(comp, 0)
	done := c.svc.Request(sp.id, sp.now)
	sp.Tick(comp, done-sp.now)
	c.value = v
}

var _ rt.Runtime = (*Engine)(nil)
