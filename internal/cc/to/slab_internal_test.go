package to

import (
	"testing"

	"abyss1000/internal/cctest"
	"abyss1000/internal/tsalloc"
)

// TestPrewriteListsDoNotAlias: Setup carves every row's one-slot prewrite
// list from one backing array. Two prewrites on row 0 outgrow its slot;
// the append must move row 0's list, not spill into row 1's.
func TestPrewriteListsDoNotAlias(t *testing.T) {
	f := cctest.NewFixture(1, 8, 1)
	s := New(tsalloc.Atomic)
	s.Setup(f.DB)
	rows := s.meta[f.Table.ID]
	held := &txnState{}
	rows[1].pends = append(rows[1].pends, pend{ts: 1, st: held})
	for ts := uint64(2); ts <= 3; ts++ {
		rows[0].pends = append(rows[0].pends, pend{ts: ts, st: &txnState{}})
	}
	if len(rows[0].pends) != 2 || rows[0].pends[0].ts != 2 || rows[0].pends[1].ts != 3 {
		t.Errorf("row 0 prewrites = %v, want ts 2 and 3", rows[0].pends)
	}
	if len(rows[1].pends) != 1 || rows[1].pends[0].st != held || rows[1].pends[0].ts != 1 {
		t.Errorf("row 1 prewrites = %v, want only ts 1 of %p", rows[1].pends, held)
	}
}
