package twopl

import (
	"testing"

	"abyss1000/internal/cctest"
	"abyss1000/internal/core"
	"abyss1000/internal/rt"
	"abyss1000/internal/stats"
)

// TestHolderListsDoNotAlias: Setup carves every row's two-slot holder list
// from one backing array. Three shared holders on row 0 outgrow its slots;
// the append must move row 0's list, not spill into row 1's, where a
// writer holds the exclusive lock.
func TestHolderListsDoNotAlias(t *testing.T) {
	f := cctest.NewFixture(4, 8, 1)
	s := New(NoWait, Options{})
	s.Setup(f.DB)
	rows := s.meta[f.Table.ID]
	var writer *txnState
	f.Engine.Run(func(p rt.Proc) {
		w := core.NewWorker(p, f.DB, s)
		err := w.ExecOnce(&cctest.Txn{Body: func(tx *core.TxnCtx) error {
			if p.ID() == 3 {
				writer = tx.State.(*txnState)
				if err := f.Bump(tx, 1, 1); err != nil {
					return err
				}
			} else {
				p.Tick(stats.Useful, 1_000) // lock row 0 after the writer
				if _, err := f.ReadVal(tx, 0); err != nil {
					return err
				}
			}
			tx.P.Sync(stats.Useful, 20_000) // all four locks held at once
			if p.ID() == 3 {
				if n := len(rows[0].holders); n != 3 {
					t.Errorf("row 0 has %d shared holders, want 3", n)
				}
				if len(rows[1].holders) != 1 || rows[1].holders[0].st != writer {
					t.Errorf("row 1 holders = %v, want only the writer %p", rows[1].holders, writer)
				}
			}
			return nil
		}})
		if err != nil {
			t.Errorf("proc %d: %v", p.ID(), err)
		}
	})
	if got := f.Get(1); got != 1 {
		t.Fatalf("row 1 = %d after the writer committed, want 1", got)
	}
}
