package mvcc

import (
	"testing"

	"abyss1000/internal/cctest"
	"abyss1000/internal/tsalloc"
)

// TestVersionChainsDoNotAlias: Setup carves every row's two-slot version
// chain from one backing array. Three versions on row 0 outgrow its
// slots; the append must move row 0's chain, not spill into row 1's.
func TestVersionChainsDoNotAlias(t *testing.T) {
	f := cctest.NewFixture(1, 8, 1)
	s := New(tsalloc.Atomic)
	s.Setup(f.DB)
	rows := s.meta[f.Table.ID]
	rows[1].versions = append(rows[1].versions, version{wts: 1, data: []byte{1}})
	for ts := uint64(2); ts <= 4; ts++ {
		rows[0].versions = append(rows[0].versions, version{wts: ts, data: []byte{byte(ts)}})
	}
	for i, v := range rows[0].versions {
		if want := uint64(i + 2); v.wts != want {
			t.Errorf("row 0 version %d has wts %d, want %d", i, v.wts, want)
		}
	}
	if len(rows[0].versions) != 3 {
		t.Errorf("row 0 chain has %d versions, want 3", len(rows[0].versions))
	}
	if len(rows[1].versions) != 1 || rows[1].versions[0].wts != 1 || rows[1].versions[0].data[0] != 1 {
		t.Errorf("row 1 chain = %v, want only the wts-1 version", rows[1].versions)
	}
}
