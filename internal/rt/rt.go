// Package rt defines the runtime abstraction that lets the same DBMS and
// concurrency-control code execute on two very different substrates:
//
//   - internal/sim: a deterministic discrete-event simulator of a tiled
//     many-core CPU (the stand-in for the Graphite simulator the paper used),
//     scaling to 1024 simulated cores on a laptop; and
//   - internal/native: real goroutines with real sync primitives, used for
//     the paper's Fig. 3 "simulator vs. real hardware" comparison.
//
// The contract: DBMS code never uses sync/atomic directly. All shared
// mutable state is accessed only while holding an rt.Latch, all shared
// monotonic counters are rt.Counter, and blocking uses Park/Unpark with
// binary-permit semantics (an Unpark delivered before Park is not lost).
// Under the simulator these primitives advance a simulated cycle clock and
// enforce a global simulated-time order; under the native runtime they map
// to sync.Mutex, atomic.AddUint64 and channel-based parking.
package rt

import (
	"math/rand"

	"abyss1000/internal/stats"
)

// Proc is a logical core / worker thread. Exactly one transaction executes
// on a Proc at a time (the paper's DBMS maps one worker thread per core).
//
// Tick and Sync both bill cycles to a stats component and advance the local
// clock. The difference matters only under simulation: Sync additionally
// establishes a global ordering point, guaranteeing that any shared-state
// access performed after Sync returns happens in simulated-time order with
// respect to all other cores' Sync'd accesses. Latch/Counter operations Sync
// internally, so plain DBMS code only needs explicit Sync when it touches
// shared state outside a latch (which it should not).
type Proc interface {
	// ID returns the core/worker id in [0, Runtime.NumProcs()).
	ID() int

	// Now returns the local clock in cycles (simulated) or an
	// implementation-defined monotonic value (native).
	Now() uint64

	// Tick advances the local clock by cycles, billing them to c.
	Tick(c stats.Component, cycles uint64)

	// Sync is Tick plus a global ordering point (see type comment).
	//
	// Implementations may elide the yield when no other Proc could
	// legally run before the caller (under simulation: when the live
	// event-queue minimum is after the caller's (cycle, id) pair). The
	// elision is unobservable — the schedule, and therefore every
	// simulated result, is identical to always yielding — so callers
	// must not rely on Sync giving other Procs a turn unless one is
	// actually due.
	Sync(c stats.Component, cycles uint64)

	// Park blocks until another Proc calls Runtime.Unpark on this Proc.
	// If a permit is already pending, Park consumes it and returns
	// immediately. Blocked time is billed to c.
	Park(c stats.Component)

	// ParkTimeout is Park with a deadline, and reports whether the Proc
	// was unparked (true) or timed out (false). A pending permit after a
	// timeout is left in place for the next Park to consume (callers that
	// re-check state under a latch are immune to the race either way).
	ParkTimeout(c stats.Component, cycles uint64) bool

	// Rand returns this Proc's private deterministic RNG.
	Rand() *rand.Rand

	// Stats returns this Proc's time breakdown. Implementations batch
	// the cycles billed by Tick/Sync/Park between Stats calls and flush
	// them here, so all reads of the breakdown — and all attempt
	// transitions (BeginAttempt/CommitAttempt/AbortAttempt) — must go
	// through Stats rather than a cached *stats.Breakdown.
	Stats() *stats.Breakdown

	// MemRead models reading bytes of shared data homed at key (a NUCA
	// L2 access whose latency grows with mesh distance under simulation;
	// negligible under the native runtime). It never blocks: correctness
	// of the data read is the concurrency-control scheme's business.
	MemRead(c stats.Component, key uint64, bytes uint64)

	// MemWrite models writing bytes of shared data homed at key.
	MemWrite(c stats.Component, key uint64, bytes uint64)
}

// Latch is a short-duration mutual-exclusion lock protecting shared state
// (per-tuple CC metadata, index buckets, partition queues). Latches are not
// reentrant. Holders must not Park while holding a latch.
type Latch interface {
	// Acquire blocks until the latch is held, billing acquisition cost
	// and any contention stall to c.
	Acquire(p Proc, c stats.Component)
	// Release releases the latch. The billed cost is implementation
	// defined (typically a store + line transfer on the simulator).
	Release(p Proc, c stats.Component)
}

// Counter is a shared word supporting atomic fetch-add, the primitive
// behind the "atomic addition" timestamp allocator and the paper's Fig. 6
// micro-benchmark. It also supports plain stores (used for per-worker
// published values such as MVCC's active-transaction timestamps).
type Counter interface {
	// Add atomically adds delta and returns the new value, billing the
	// operation (including coherence stalls under simulation) to c.
	Add(p Proc, c stats.Component, delta uint64) uint64
	// Load returns the current value. Under simulation this is a read of
	// a (possibly remote) cache line.
	Load(p Proc, c stats.Component) uint64
	// Store overwrites the value.
	Store(p Proc, c stats.Component, v uint64)
}

// Runtime creates Procs and shared primitives and executes worker bodies.
type Runtime interface {
	// NumProcs returns the number of logical cores.
	NumProcs() int

	// NewLatch returns a new latch. key identifies the protected object
	// (the simulator uses it to place the latch's cache line on a home
	// tile deterministically).
	//
	// Latches and counters are carved from slabs the runtime owns and
	// live as long as the runtime: callers must not expect separate heap
	// objects (no finalizers, no per-latch freeing). Construction
	// happens at set-up time and is not safe for concurrent use.
	NewLatch(key uint64) Latch

	// NewCounter returns a new shared counter placed by key, carved from
	// a runtime-owned slab like NewLatch.
	NewCounter(key uint64) Counter

	// NewHardwareCounter allocates the paper's proposed center-of-chip
	// hardware counter: a fetch-add that serializes for a single cycle at
	// a central location (§4.3). Under the native runtime this is an
	// ordinary atomic counter.
	NewHardwareCounter(key uint64) Counter

	// Unpark delivers a wakeup permit to target. waker is the Proc on
	// whose behalf the wake occurs (it pays the signalling cost); it may
	// be nil for external wakes.
	Unpark(waker Proc, target Proc)

	// Run executes body on every Proc concurrently (in simulated or real
	// time) and returns when all bodies have returned.
	Run(body func(p Proc))

	// Frequency returns simulated core frequency in Hz (cycles per
	// second) used to convert cycle counts into txn/s figures.
	Frequency() float64
}
