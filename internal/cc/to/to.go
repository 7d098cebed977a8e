// Package to implements the basic timestamp-ordering scheme (TIMESTAMP in
// the paper, §2.2): every transaction carries a unique monotonically
// increasing timestamp; per-tuple read/write timestamps reject operations
// that arrive "too late" for the serialization order the timestamps fix a
// priori. As in the paper's implementation:
//
//   - the scheduler is decentralized (per-tuple latches, no global
//     critical section);
//   - reads make a private copy of the tuple to guarantee repeatable
//     reads without holding locks — the copy cost is why TIMESTAMP trails
//     the 2PL schemes on read-heavy workloads (Fig. 8);
//   - writes are *prewritten* (reserved) at execution time and installed
//     at commit: a reader or writer whose timestamp exceeds a pending
//     prewrite waits for it to resolve — the paper's WAIT component for
//     T/O ("wait ... for a tuple whose value is not ready yet") — so a
//     validated writer can never be invalidated later;
//   - waits always point from larger to smaller timestamps, so they are
//     deadlock-free;
//   - an aborted transaction receives a NEW timestamp when it restarts
//     (§2.2: "it is assigned a new timestamp and then restarted").
package to

import (
	"abyss1000/internal/core"
	"abyss1000/internal/costs"
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
)

// pend is a pending prewrite: a reservation of the tuple at ts.
type pend struct {
	ts  uint64
	st  *txnState
	buf []byte
}

// tupleTS is the per-tuple timestamp metadata.
type tupleTS struct {
	latch   rt.Latch
	wts     uint64 // timestamp of the last installed write
	rts     uint64 // timestamp of the last read
	pends   []pend // outstanding prewrites, ascending ts
	waiters []rt.Proc
}

// writeRec tracks one of the transaction's prewrites.
type writeRec struct {
	t    *storage.Table
	slot int
	buf  []byte
}

// txnState is the reusable per-worker transaction state.
type txnState struct {
	writes []writeRec
}

// TO is the TIMESTAMP scheme.
type TO struct {
	method tsalloc.Method
	db     *core.DB
	alloc  tsalloc.Allocator
	meta   [][]tupleTS
}

// New creates a TIMESTAMP scheme drawing timestamps via method m.
func New(m tsalloc.Method) *TO { return &TO{method: m} }

// Name implements core.Scheme.
func (s *TO) Name() string { return "TIMESTAMP" }

// Setup implements core.Scheme.
func (s *TO) Setup(db *core.DB) {
	s.db = db
	s.alloc = tsalloc.New(s.method, db.RT)
	tables := db.Catalog.Tables()
	s.meta = make([][]tupleTS, len(tables))
	for _, t := range tables {
		entries := make([]tupleTS, t.Capacity())
		// Pre-size each prewrite list so a tuple's first reservation
		// never allocates on the access path. All lists share one backing
		// array; the full slice expression caps row i's list at its own
		// slot, so growing it reallocates instead of overwriting row i+1.
		ps := make([]pend, len(entries))
		for i := range entries {
			entries[i].latch = db.RT.NewLatch(uint64(t.ID)<<44 | 0x70<<36 | uint64(i))
			entries[i].pends = ps[i : i : i+1]
		}
		s.meta[t.ID] = entries
	}
}

// NewTxnState implements core.Scheme.
func (s *TO) NewTxnState(w *core.Worker) interface{} { return &txnState{} }

// Begin implements core.Scheme.
func (s *TO) Begin(tx *core.TxnCtx) {
	st := tx.State.(*txnState)
	st.writes = st.writes[:0]
	tx.TS = s.alloc.Next(tx.P)
	tx.P.Tick(stats.Manager, costs.ManagerOp)
}

func (s *TO) entry(t *storage.Table, slot int) *tupleTS {
	return &s.meta[t.ID][slot]
}

// findWrite returns the transaction's own prewrite buffer, if any.
func (st *txnState) findWrite(t *storage.Table, slot int) *writeRec {
	for i := range st.writes {
		if st.writes[i].t == t && st.writes[i].slot == slot {
			return &st.writes[i]
		}
	}
	return nil
}

// blockedBy reports whether e has a pending prewrite from another
// transaction that precedes ts in the serialization order. Caller holds
// e.latch.
func blockedBy(e *tupleTS, ts uint64) bool {
	for i := range e.pends {
		if e.pends[i].ts < ts {
			return true
		}
		break // ascending: first entry is the minimum
	}
	return false
}

// wakeAll unparks every waiter. Caller holds e.latch.
func (s *TO) wakeAll(p rt.Proc, e *tupleTS) {
	for _, w := range e.waiters {
		s.db.RT.Unpark(p, w)
	}
	e.waiters = e.waiters[:0]
}

// Read implements core.Scheme. Basic T/O read rule: reject if ts < wts;
// wait behind earlier pending writes; otherwise bump rts and copy.
func (s *TO) Read(tx *core.TxnCtx, t *storage.Table, slot int) ([]byte, error) {
	st := tx.State.(*txnState)
	if w := st.findWrite(t, slot); w != nil {
		return w.buf, nil // read own prewrite
	}
	e := s.entry(t, slot)
	for {
		e.latch.Acquire(tx.P, stats.Manager)
		tx.P.Tick(stats.Manager, costs.ManagerOp)
		if tx.TS < e.wts {
			e.latch.Release(tx.P, stats.Manager)
			return nil, core.ErrAbort
		}
		if blockedBy(e, tx.TS) {
			e.waiters = append(e.waiters, tx.P)
			e.latch.Release(tx.P, stats.Manager)
			tx.P.ParkTimeout(stats.Wait, costs.WaitCheckInterval)
			continue
		}
		if e.rts < tx.TS {
			e.rts = tx.TS
		}
		// History capture: under the latch, with earlier pending writes
		// resolved, the live row is the committed version stamped e.wts.
		tx.CaptureReadVer(t, slot, e.wts)
		n := t.Schema.RowSize()
		buf := tx.Alloc.Alloc(tx.P, stats.Manager, n)
		tx.P.MemRead(stats.Useful, t.MemKey(slot), uint64(n))
		copy(buf, t.Row(slot))
		tx.P.Tick(stats.Manager, costs.CopyCost(uint64(n)))
		e.latch.Release(tx.P, stats.Manager)
		return buf, nil
	}
}

// WriteRow implements core.Scheme: an update is a read-modify-write, so
// the read rule applies too; passing both rules installs a prewrite that
// later operations must respect. The returned buffer is the transaction's
// private prewrite image (seeded with the tuple's current contents); the
// caller mutates it in place and Commit installs it. No other transaction
// can observe the buffer before then — readers and writers ordered after
// this prewrite wait for its resolution, earlier ones read older state.
func (s *TO) WriteRow(tx *core.TxnCtx, t *storage.Table, slot int) ([]byte, error) {
	st := tx.State.(*txnState)
	if w := st.findWrite(t, slot); w != nil {
		tx.P.Tick(stats.Useful, costs.CopyCost(uint64(len(w.buf))))
		return w.buf, nil
	}
	e := s.entry(t, slot)
	for {
		e.latch.Acquire(tx.P, stats.Manager)
		tx.P.Tick(stats.Manager, costs.ManagerOp)
		if tx.TS < e.wts || tx.TS < e.rts {
			e.latch.Release(tx.P, stats.Manager)
			return nil, core.ErrAbort
		}
		if blockedBy(e, tx.TS) {
			// Our RMW must observe the earlier pending write.
			e.waiters = append(e.waiters, tx.P)
			e.latch.Release(tx.P, stats.Manager)
			tx.P.ParkTimeout(stats.Wait, costs.WaitCheckInterval)
			continue
		}
		// Reserve: no later reader or writer can now invalidate us.
		if e.rts < tx.TS {
			e.rts = tx.TS // the RMW reads the tuple
		}
		// History capture: the RMW reads the committed version e.wts
		// before overwriting it.
		tx.CaptureReadVer(t, slot, e.wts)
		n := t.Schema.RowSize()
		buf := tx.Alloc.Alloc(tx.P, stats.Manager, n)
		tx.P.MemRead(stats.Useful, t.MemKey(slot), uint64(n))
		copy(buf, t.Row(slot))
		tx.P.Tick(stats.Manager, costs.CopyCost(uint64(n)))
		// Insert in ascending ts order (ours is the max outstanding:
		// anything larger would have waited on us... but an earlier
		// prewrite may still arrive only if its ts > rts — impossible
		// now that rts >= tx.TS — so appending keeps order).
		e.pends = append(e.pends, pend{ts: tx.TS, st: st, buf: buf})
		e.latch.Release(tx.P, stats.Manager)
		st.writes = append(st.writes, writeRec{t: t, slot: slot, buf: buf})
		return buf, nil
	}
}

// Commit implements core.Scheme: install prewrites in timestamp order.
// Installation cannot fail — prewrites reserved their place — but it may
// wait for earlier pending writers on the same tuples.
func (s *TO) Commit(tx *core.TxnCtx) error {
	st := tx.State.(*txnState)
	// Commit point: under T/O the serialization order IS the timestamp
	// order, so the record (which carries tx.TS as its replay version)
	// can be appended before the installs below; replay keeps the
	// highest-timestamp image per slot regardless of append interleaving.
	tx.LogCommit()
	for i := range st.writes {
		w := &st.writes[i]
		e := s.entry(w.t, w.slot)
		for {
			e.latch.Acquire(tx.P, stats.Manager)
			tx.P.Tick(stats.Manager, costs.ManagerOp)
			if blockedBy(e, tx.TS) {
				e.waiters = append(e.waiters, tx.P)
				e.latch.Release(tx.P, stats.Manager)
				tx.P.ParkTimeout(stats.Wait, costs.WaitCheckInterval)
				continue
			}
			copy(w.t.Row(w.slot), w.buf)
			tx.P.MemWrite(stats.Useful, w.t.MemKey(w.slot), uint64(len(w.buf)))
			if e.wts < tx.TS {
				e.wts = tx.TS
			}
			s.removePend(e, st)
			s.wakeAll(tx.P, e)
			e.latch.Release(tx.P, stats.Manager)
			break
		}
	}
	st.writes = st.writes[:0]
	return nil
}

// removePend deletes st's prewrite from e. Caller holds e.latch.
func (s *TO) removePend(e *tupleTS, st *txnState) {
	for i := range e.pends {
		if e.pends[i].st == st {
			e.pends = append(e.pends[:i], e.pends[i+1:]...)
			return
		}
	}
}

// Abort implements core.Scheme: withdraw prewrites, wake waiters.
func (s *TO) Abort(tx *core.TxnCtx) {
	st := tx.State.(*txnState)
	for i := range st.writes {
		w := &st.writes[i]
		e := s.entry(w.t, w.slot)
		e.latch.Acquire(tx.P, stats.Abort)
		tx.P.Tick(stats.Abort, costs.ManagerOp)
		s.removePend(e, st)
		s.wakeAll(tx.P, e)
		e.latch.Release(tx.P, stats.Abort)
	}
	st.writes = st.writes[:0]
}

// InitTuple implements core.Scheme: a fresh tuple is born with the
// inserting transaction's write timestamp.
func (s *TO) InitTuple(tx *core.TxnCtx, t *storage.Table, slot int) {
	e := s.entry(t, slot)
	e.wts = tx.TS
}

// TSOrderedCommits marks T/O for the WAL: same-slot outcomes follow
// timestamp order, so commit records replay by version, not log position.
func (s *TO) TSOrderedCommits() {}

var (
	_ core.Scheme          = (*TO)(nil)
	_ core.TSOrderedScheme = (*TO)(nil)
)
