// Package twopl implements the paper's three two-phase-locking variants
// (§2.1) over per-tuple lock queues (§4.1 "Lock Table": "instead of having
// a centralized lock table ... we implemented these data structures in a
// per-tuple fashion where each transaction only latches the tuples that it
// needs"):
//
//	DL_DETECT — waiting with decentralized deadlock detection (and the
//	            Fig. 5 wait-timeout knob; 100 µs default as in §4.2).
//	NO_WAIT   — non-waiting deadlock prevention: a denied lock request
//	            aborts the requester immediately.
//	WAIT_DIE  — a requester older than every conflicting holder waits;
//	            a younger one dies (timestamps make deadlock impossible).
//
// All variants implement strict 2PL: locks are held to transaction end,
// writes are in-place with undo images, and both commit and abort release
// every lock (waking compatible waiters FIFO).
package twopl

import (
	"sort"

	"abyss1000/internal/core"
	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/waitgraph"
)

// Variant selects the deadlock-handling strategy.
type Variant int

const (
	// DLDetect is 2PL with deadlock detection.
	DLDetect Variant = iota
	// NoWait is 2PL with non-waiting deadlock prevention.
	NoWait
	// WaitDie is 2PL with wait-and-die deadlock prevention.
	WaitDie
	// Adaptive is the §6.1 hybrid: per-worker switching between
	// DL_DETECT (low contention) and NO_WAIT (thrashing). See
	// adaptive.go.
	Adaptive
)

func (v Variant) String() string {
	switch v {
	case DLDetect:
		return "DL_DETECT"
	case NoWait:
		return "NO_WAIT"
	case WaitDie:
		return "WAIT_DIE"
	case Adaptive:
		return "ADAPTIVE"
	default:
		return "2PL(?)"
	}
}

// NoTimeout disables DL_DETECT's wait timeout (wait until granted or a
// deadlock is detected).
const NoTimeout = ^uint64(0)

// DefaultTimeout is the paper's chosen DL_DETECT timeout (§4.2: "we
// evaluate DL_DETECT with its timeout threshold set to 100µs"), in cycles
// at 1 GHz.
const DefaultTimeout = 100_000

// Options tunes a 2PL instance.
type Options struct {
	// Timeout is the maximum wait before a DL_DETECT transaction aborts
	// itself (Fig. 5's sweep). 0 aborts immediately on any wait
	// (equivalent to NO_WAIT, as the paper notes); NoTimeout waits
	// indefinitely. Ignored by NO_WAIT and WAIT_DIE.
	Timeout uint64

	// DisableDetection turns off the deadlock detector, used by the
	// Fig. 4 lock-thrashing experiment where transactions acquire locks
	// in primary-key order and detection is unnecessary.
	DisableDetection bool

	// TsMethod is the timestamp allocator used by WAIT_DIE (other
	// variants allocate no timestamps).
	TsMethod tsalloc.Method
}

type lockMode byte

const (
	modeFree lockMode = iota
	modeShared
	modeExcl
)

// holder is one transaction holding the lock.
type holder struct {
	st *txnState
}

// waiter is one queued request.
type waiter struct {
	st      *txnState
	mode    lockMode
	upgrade bool
}

// lockEntry is the per-tuple lock word plus sharer/waiter metadata — the
// "several bytes" of per-tuple overhead the paper trades for scalability.
type lockEntry struct {
	latch   rt.Latch
	mode    lockMode
	holders []holder
	waiters []waiter
}

// heldLock records a lock for release at transaction end.
type heldLock struct {
	e    *lockEntry
	mode lockMode
}

// undoRec is a before-image for in-place writes.
type undoRec struct {
	t    *storage.Table
	slot int
	img  []byte
}

// txnState is the reusable per-worker transaction state.
type txnState struct {
	w   *core.Worker
	seq uint64 // waits-for graph sequence
	ts  uint64 // WAIT_DIE age (stable for the transaction's lifetime)

	held []heldLock
	undo []undoRec

	// Wait handshake: set by a granter under the tuple latch.
	granted bool

	edgeBuf []waitgraph.Edge
}

// TwoPL is one of the three 2PL schemes, selected by Variant.
type TwoPL struct {
	variant Variant
	opts    Options
	db      *core.DB
	alloc   tsalloc.Allocator
	graph   *waitgraph.Graph
	meta    [][]lockEntry // [table id][slot]
	adapt   []adaptState  // per-worker controllers (Adaptive variant)
}

// New creates a 2PL scheme.
func New(v Variant, opts Options) *TwoPL {
	if v == DLDetect && opts.Timeout == 0 {
		// Timeout 0 is a legitimate Fig. 5 setting, but the zero value
		// of Options should mean "the paper's default".
		opts.Timeout = DefaultTimeout
	}
	return &TwoPL{variant: v, opts: opts}
}

// NewWithTimeout creates a DL_DETECT instance with an explicit timeout,
// including 0 ("abort as soon as a lock is denied") for the Fig. 5 sweep.
func NewWithTimeout(timeout uint64, disableDetection bool) *TwoPL {
	return &TwoPL{
		variant: DLDetect,
		opts:    Options{Timeout: timeout, DisableDetection: disableDetection},
	}
}

// Name implements core.Scheme.
func (s *TwoPL) Name() string { return s.variant.String() }

// Setup implements core.Scheme.
func (s *TwoPL) Setup(db *core.DB) {
	s.db = db
	tables := db.Catalog.Tables()
	s.meta = make([][]lockEntry, len(tables))
	for _, t := range tables {
		entries := make([]lockEntry, t.Capacity())
		// Pre-size each holder list so a tuple's first lock grants never
		// allocate on the access path. All lists share one backing array;
		// the full slice expression caps row i's list at its own two
		// slots, so growing it reallocates instead of overwriting row i+1.
		hs := make([]holder, 2*len(entries))
		for i := range entries {
			entries[i].latch = db.RT.NewLatch(uint64(t.ID)<<44 | 0x2B<<36 | uint64(i))
			entries[i].holders = hs[2*i : 2*i : 2*i+2]
		}
		s.meta[t.ID] = entries
	}
	if (s.variant == DLDetect || s.variant == Adaptive) && !s.opts.DisableDetection {
		s.graph = waitgraph.New(db.RT)
	}
	if s.variant == WaitDie {
		s.alloc = tsalloc.New(s.opts.TsMethod, db.RT)
	}
	if s.variant == Adaptive {
		s.adapt = make([]adaptState, db.RT.NumProcs())
	}
}

// NewTxnState implements core.Scheme.
func (s *TwoPL) NewTxnState(w *core.Worker) interface{} {
	return &txnState{w: w}
}

// Begin implements core.Scheme.
func (s *TwoPL) Begin(tx *core.TxnCtx) {
	st := tx.State.(*txnState)
	st.held = st.held[:0]
	st.undo = st.undo[:0]
	st.granted = false
	if s.graph != nil {
		st.seq = s.graph.BeginTxn(tx.P)
	}
	if s.variant == WaitDie {
		tx.TS = s.alloc.Next(tx.P)
		st.ts = tx.TS
	}
	if s.variant == Adaptive {
		s.adaptTick(tx.P, st)
	}
	tx.P.Tick(stats.Manager, costs.ManagerOp)
}

func (s *TwoPL) entry(t *storage.Table, slot int) *lockEntry {
	return &s.meta[t.ID][slot]
}

// heldMode returns the mode st already holds on e, or modeFree.
func (st *txnState) heldMode(e *lockEntry) lockMode {
	for i := range st.held {
		if st.held[i].e == e {
			return st.held[i].mode
		}
	}
	return modeFree
}

func (st *txnState) promote(e *lockEntry) {
	for i := range st.held {
		if st.held[i].e == e {
			st.held[i].mode = modeExcl
			return
		}
	}
}

// Read implements core.Scheme: acquire a shared lock and read in place.
func (s *TwoPL) Read(tx *core.TxnCtx, t *storage.Table, slot int) ([]byte, error) {
	if err := s.lock(tx, t, slot, modeShared); err != nil {
		return nil, err
	}
	// History capture: the shared lock excludes committers, fixing the
	// version this read observes.
	tx.CaptureRead(t, slot)
	tx.P.MemRead(stats.Useful, t.MemKey(slot), uint64(t.Schema.RowSize()))
	return t.Row(slot), nil
}

// WriteRow implements core.Scheme: acquire an exclusive lock, capture an
// undo image, and hand back the live row for in-place mutation. The row
// stays exclusively locked until transaction end, so the caller's writes
// after return are isolated.
func (s *TwoPL) WriteRow(tx *core.TxnCtx, t *storage.Table, slot int) ([]byte, error) {
	if err := s.lock(tx, t, slot, modeExcl); err != nil {
		return nil, err
	}
	// History capture: a write is a read-modify-write of the current
	// committed version (first declaration only; see captureRead).
	tx.CaptureRead(t, slot)
	st := tx.State.(*txnState)
	row := t.Row(slot)
	// One undo image per (table, slot) suffices; repeated writes by the
	// same transaction keep the oldest image.
	have := false
	for i := range st.undo {
		if st.undo[i].t == t && st.undo[i].slot == slot {
			have = true
			break
		}
	}
	if !have {
		img := tx.Alloc.Alloc(tx.P, stats.Manager, len(row))
		copy(img, row)
		tx.P.Tick(stats.Manager, costs.CopyCost(uint64(len(row))))
		st.undo = append(st.undo, undoRec{t: t, slot: slot, img: img})
	}
	tx.P.MemWrite(stats.Useful, t.MemKey(slot), uint64(len(row)))
	return row, nil
}

// lock acquires (or upgrades to) the requested mode on (t, slot).
func (s *TwoPL) lock(tx *core.TxnCtx, t *storage.Table, slot int, want lockMode) error {
	st := tx.State.(*txnState)
	e := s.entry(t, slot)

	switch st.heldMode(e) {
	case modeExcl:
		return nil // X covers everything
	case modeShared:
		if want == modeShared {
			return nil
		}
		return s.upgrade(tx, st, e)
	}

	e.latch.Acquire(tx.P, stats.Manager)
	tx.P.Tick(stats.Manager, costs.ManagerOp)
	if compatible(e, want) {
		e.holders = append(e.holders, holder{st: st})
		e.mode = want
		st.held = append(st.held, heldLock{e: e, mode: want})
		e.latch.Release(tx.P, stats.Manager)
		return nil
	}
	return s.conflict(tx, st, e, want, false)
}

// upgrade promotes st's shared lock to exclusive.
func (s *TwoPL) upgrade(tx *core.TxnCtx, st *txnState, e *lockEntry) error {
	e.latch.Acquire(tx.P, stats.Manager)
	tx.P.Tick(stats.Manager, costs.ManagerOp)
	if len(e.holders) == 1 && e.holders[0].st == st {
		e.mode = modeExcl
		st.promote(e)
		e.latch.Release(tx.P, stats.Manager)
		return nil
	}
	return s.conflict(tx, st, e, modeExcl, true)
}

// compatible reports whether a new request of mode `want` can be granted
// immediately (FIFO fairness: not if anyone is already queued).
func compatible(e *lockEntry, want lockMode) bool {
	if len(e.waiters) > 0 {
		return false
	}
	switch e.mode {
	case modeFree:
		return true
	case modeShared:
		return want == modeShared
	default:
		return false
	}
}

// conflict handles a denied request per the variant's policy. Called with
// the tuple latch held; always releases it.
func (s *TwoPL) conflict(tx *core.TxnCtx, st *txnState, e *lockEntry, want lockMode, upgrade bool) error {
	variant := s.variant
	if variant == Adaptive {
		// §6.1 hybrid: behave as NO_WAIT while this worker observes
		// thrashing, as DL_DETECT otherwise.
		if s.adaptiveNoWait(tx.P) {
			variant = NoWait
		} else {
			variant = DLDetect
		}
	}
	switch variant {
	case NoWait:
		e.latch.Release(tx.P, stats.Manager)
		return core.ErrAbort

	case WaitDie:
		// A lock upgrade with co-holders dies immediately: letting it
		// wait would break the old-waits-for-young invariant that
		// makes WAIT_DIE deadlock-free.
		if upgrade {
			e.latch.Release(tx.P, stats.Manager)
			return core.ErrAbort
		}
		// Wait only if strictly older (smaller timestamp) than every
		// conflicting holder; otherwise die. Holder timestamps are
		// read through their txnState, which is stable for the
		// holder's lifetime and ordered by the tuple latch.
		for i := range e.holders {
			h := e.holders[i].st
			if tx.TS >= h.ts {
				e.latch.Release(tx.P, stats.Manager)
				return core.ErrAbort
			}
		}
		return s.wait(tx, st, e, want, upgrade, NoTimeout)

	default: // DLDetect
		if s.opts.Timeout == 0 {
			e.latch.Release(tx.P, stats.Manager)
			return core.ErrAbort
		}
		return s.wait(tx, st, e, want, upgrade, s.opts.Timeout)
	}
}

// wait enqueues st and blocks until granted, a deadlock is found, or the
// timeout expires. Called with the tuple latch held; releases it.
func (s *TwoPL) wait(tx *core.TxnCtx, st *txnState, e *lockEntry, want lockMode, upgrade bool, timeout uint64) error {
	p := tx.P
	st.granted = false
	w := waiter{st: st, mode: want, upgrade: upgrade}
	switch {
	case s.variant == WaitDie:
		// Keep the queue youngest-first (descending timestamp) and
		// grant from the head: remaining (older) waiters then wait on
		// younger holders, preserving WAIT_DIE's old-waits-for-young
		// invariant across grants — the property that guarantees
		// freedom from deadlock.
		pos := len(e.waiters)
		for i := range e.waiters {
			if st.ts > e.waiters[i].st.ts {
				pos = i
				break
			}
		}
		e.waiters = append(e.waiters, waiter{})
		copy(e.waiters[pos+1:], e.waiters[pos:])
		e.waiters[pos] = w
	case upgrade:
		// Upgrades go to the head so a sole-holder promotion is never
		// starved behind incompatible requests. Shift in place rather
		// than rebuilding the slice, keeping the wait path allocation-
		// free once the queue's capacity has grown.
		e.waiters = append(e.waiters, waiter{})
		copy(e.waiters[1:], e.waiters)
		e.waiters[0] = w
	default:
		e.waiters = append(e.waiters, w)
	}

	// Publish waits-for edges for the deadlock detector.
	if s.graph != nil {
		st.edgeBuf = st.edgeBuf[:0]
		for i := range e.holders {
			h := e.holders[i].st
			if h == st {
				continue
			}
			st.edgeBuf = append(st.edgeBuf, waitgraph.Edge{Worker: h.w.P.ID(), Seq: h.seq})
		}
		// Other queued waiters may hold the lock before we do.
		for i := range e.waiters {
			wt := e.waiters[i].st
			if wt == st {
				continue
			}
			st.edgeBuf = append(st.edgeBuf, waitgraph.Edge{Worker: wt.w.P.ID(), Seq: wt.seq})
		}
	}
	e.latch.Release(p, stats.Manager)

	if s.graph != nil {
		s.graph.SetEdges(p, st.edgeBuf)
		if s.deadlockVictim(tx) {
			return s.cancelWait(tx, st, e)
		}
	}

	deadline := NoTimeout
	if timeout != NoTimeout {
		deadline = p.Now() + timeout
	}
	for {
		interval := uint64(costs.WaitCheckInterval)
		if deadline != NoTimeout {
			now := p.Now()
			if now >= deadline {
				return s.cancelWait(tx, st, e)
			}
			if r := deadline - now; r < interval {
				interval = r
			}
		}
		p.ParkTimeout(stats.Wait, interval)

		e.latch.Acquire(p, stats.Manager)
		if st.granted {
			e.latch.Release(p, stats.Manager)
			if s.graph != nil {
				s.graph.ClearEdges(p)
			}
			return nil
		}
		e.latch.Release(p, stats.Manager)

		// Re-run detection: a cycle may have formed after we started
		// waiting (the paper: a deadlock missed by one pass "is
		// guaranteed to be found on subsequent passes").
		if s.graph != nil && s.deadlockVictim(tx) {
			return s.cancelWait(tx, st, e)
		}
	}
}

// deadlockVictim reports whether tx sits on a waits-for cycle AND is the
// cycle's designated victim. Every member of a cycle computes the same
// victim (the largest worker id in the membership), so one deadlock costs
// one abort; non-victims keep waiting for the victim's rollback to free
// the queue.
func (s *TwoPL) deadlockVictim(tx *core.TxnCtx) bool {
	cycle := s.graph.FindCycle(tx.P, tx.P.ID(), tx.State.(*txnState).seq)
	if cycle == nil {
		return false
	}
	victim := cycle[0]
	for _, w := range cycle[1:] {
		if w > victim {
			victim = w
		}
	}
	return victim == tx.P.ID()
}

// cancelWait removes st from e's wait queue and aborts. If the grant
// raced ahead of the cancellation, the lock is accepted and released by
// the abort path.
func (s *TwoPL) cancelWait(tx *core.TxnCtx, st *txnState, e *lockEntry) error {
	p := tx.P
	e.latch.Acquire(p, stats.Manager)
	if !st.granted {
		for i := range e.waiters {
			if e.waiters[i].st == st {
				e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
				break
			}
		}
	}
	e.latch.Release(p, stats.Manager)
	if s.graph != nil {
		s.graph.ClearEdges(p)
	}
	// If granted anyway, the lock is in st.held only if it was an
	// upgrade; fresh grants record membership here so Abort releases it.
	if st.granted {
		st.granted = false
		// grantLocked already appended to holders and set the entry
		// mode; mirror it in our held list unless it is an upgrade
		// (already present).
		if st.heldMode(e) == modeFree {
			st.held = append(st.held, heldLock{e: e, mode: e.mode})
		}
	}
	return core.ErrAbort
}

// grantLocked grants as many queued requests as compatibility allows.
// Caller holds e.latch.
func (s *TwoPL) grantLocked(p rt.Proc, e *lockEntry) {
	for len(e.waiters) > 0 {
		w := e.waiters[0]
		if w.upgrade {
			// Grantable only when w's transaction is the sole holder.
			if len(e.holders) == 1 && e.holders[0].st == w.st {
				e.mode = modeExcl
				w.st.promote(e)
				e.waiters = append(e.waiters[:0], e.waiters[1:]...)
				w.st.granted = true
				s.db.RT.Unpark(p, w.st.w.P)
				continue
			}
			return
		}
		switch w.mode {
		case modeShared:
			if e.mode == modeExcl {
				return
			}
		case modeExcl:
			if len(e.holders) > 0 {
				return
			}
		}
		e.holders = append(e.holders, holder{st: w.st})
		e.mode = w.mode
		w.st.held = append(w.st.held, heldLock{e: e, mode: w.mode})
		e.waiters = append(e.waiters[:0], e.waiters[1:]...)
		w.st.granted = true
		s.db.RT.Unpark(p, w.st.w.P)
		if w.mode == modeExcl {
			return
		}
	}
}

// releaseAll releases every lock st holds, granting waiters.
func (s *TwoPL) releaseAll(tx *core.TxnCtx, st *txnState) {
	p := tx.P
	for i := range st.held {
		h := st.held[i]
		e := h.e
		e.latch.Acquire(p, stats.Manager)
		p.Tick(stats.Manager, costs.ManagerOp)
		for j := range e.holders {
			if e.holders[j].st == st {
				e.holders = append(e.holders[:j], e.holders[j+1:]...)
				break
			}
		}
		if len(e.holders) == 0 {
			e.mode = modeFree
		} else {
			e.mode = modeShared
		}
		s.grantLocked(p, e)
		e.latch.Release(p, stats.Manager)
	}
	st.held = st.held[:0]
}

// Commit implements core.Scheme: strict 2PL just releases.
func (s *TwoPL) Commit(tx *core.TxnCtx) error {
	st := tx.State.(*txnState)
	// Commit point: the log record is appended while the write locks are
	// still held, so log order is consistent with lock order.
	tx.LogCommit()
	s.releaseAll(tx, st)
	st.undo = st.undo[:0]
	return nil
}

// Abort implements core.Scheme: restore undo images, then release.
func (s *TwoPL) Abort(tx *core.TxnCtx) {
	st := tx.State.(*txnState)
	for i := len(st.undo) - 1; i >= 0; i-- {
		u := &st.undo[i]
		copy(u.t.Row(u.slot), u.img)
		tx.P.MemWrite(stats.Abort, u.t.MemKey(u.slot), uint64(len(u.img)))
		tx.P.Tick(stats.Abort, costs.CopyCost(uint64(len(u.img))))
	}
	st.undo = st.undo[:0]
	s.releaseAll(tx, st)
}

// InitTuple implements core.Scheme: fresh tuples start unlocked; the
// zero-value lockEntry (with its pre-built latch) is already correct.
func (s *TwoPL) InitTuple(tx *core.TxnCtx, t *storage.Table, slot int) {}

// SortSlots orders slot ids ascending — used by the Fig. 4 thrashing
// workload variant that acquires locks in primary-key order.
func SortSlots(slots []int) { sort.Ints(slots) }

var _ core.Scheme = (*TwoPL)(nil)
