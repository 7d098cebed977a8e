package abyss1000_test

import (
	"testing"

	"abyss1000/internal/cc/hstore"
	"abyss1000/internal/cc/mvcc"
	"abyss1000/internal/cc/occ"
	"abyss1000/internal/cc/to"
	"abyss1000/internal/cc/twopl"
	"abyss1000/internal/core"
	"abyss1000/internal/index"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/workload/tpcc"
	"abyss1000/internal/workload/ycsb"
)

// Transaction-path benchmarks: one committed transaction per iteration on
// the native runtime, exercising the DBMS access path (index probe, scheme
// read/write, commit) without simulator overhead. Run with -benchmem: the
// headline number is allocs/op, which must stay ~0 after warm-up — the
// paper's §4.1 finding is that per-access memory allocation is the first
// scalability wall of a main-memory DBMS, and the access path is designed
// to be steady-state allocation-free (closure-free scheme API, arena
// buffers, reused read/write sets, inline index bucket storage). CI runs
// these with -benchtime=1x and fails if allocs/op exceeds a small budget
// (see .github/workflows/ci.yml).
//
// One worker keeps the measurement free of contention effects: aborts and
// waits are concurrency-control behaviour, not access-path cost. txnWarmup
// transactions run before the timer starts so one-time growth (arena
// doubling, slice capacities, zeta memoization) is excluded, exactly like
// the warm-up window of the simulated experiments.
//
// The workers are bound to their workloads (BindWorkload), so every
// completed transaction also records into the latency histogram and the
// per-transaction-type counters — the alloc budget is enforced with the
// full observability path live, proving it adds zero steady-state
// allocations.

const txnWarmup = 500

// txnSchemes returns one instance of each of the six concurrency-control
// implementations (2PL here represented by DL_DETECT; the three 2PL
// variants share the same access path and differ only on conflicts, which
// a single worker never hits).
func txnSchemes() []struct {
	name string
	mk   func() core.Scheme
} {
	return []struct {
		name string
		mk   func() core.Scheme
	}{
		{"DL_DETECT", func() core.Scheme { return twopl.New(twopl.DLDetect, twopl.Options{}) }},
		{"ADAPTIVE", func() core.Scheme { return twopl.NewAdaptive(twopl.Options{}) }},
		{"TIMESTAMP", func() core.Scheme { return to.New(tsalloc.Atomic) }},
		{"OCC", func() core.Scheme { return occ.New(tsalloc.Atomic) }},
		{"MVCC", func() core.Scheme { return mvcc.New(tsalloc.Atomic) }},
		{"HSTORE", func() core.Scheme { return hstore.New(tsalloc.Atomic) }},
	}
}

// driveTxns completes n transactions (commit or program-logic rollback;
// CC aborts retry, though a single worker never conflicts).
func driveTxns(b *testing.B, w *core.Worker, wl core.Workload, n int) {
	b.Helper()
	p := w.P
	for i := 0; i < n; i++ {
		for {
			err := w.ExecOnce(wl.Next(p))
			if err == nil || err == core.ErrUserAbort {
				break
			}
			if err != core.ErrAbort {
				b.Fatalf("unexpected transaction error: %v", err)
			}
		}
	}
}

// BenchmarkTxnYCSB measures one committed YCSB transaction (16 accesses,
// 50% updates, theta 0.6) per iteration, per scheme.
func BenchmarkTxnYCSB(b *testing.B) {
	for _, s := range txnSchemes() {
		s := s
		b.Run(s.name, func(b *testing.B) {
			rt := native.New(1, 42)
			db := core.NewDB(rt)
			cfg := ycsb.DefaultConfig()
			cfg.Rows = 16384
			cfg.Partitioned = s.name == "HSTORE" // H-STORE needs declared partitions
			wl := ycsb.Build(db, cfg)
			scheme := s.mk()
			scheme.Setup(db)
			w := core.NewWorker(rt.Proc(0), db, scheme)
			w.BindWorkload(wl)

			driveTxns(b, w, wl, txnWarmup)
			b.ReportAllocs()
			b.ResetTimer()
			driveTxns(b, w, wl, b.N)
			b.StopTimer()
			if w.Lat.Count() == 0 {
				b.Fatal("latency histogram recorded nothing; observability path not exercised")
			}
		})
	}
}

// BenchmarkTxnTPCC measures one completed TPC-C transaction (50/50
// Payment/NewOrder, 1 warehouse) per iteration, per scheme. NewOrder
// stages 7-17 inserts per commit, so this also covers the deferred-insert
// path and index insertion. Insert segments are sized from b.N (at most
// one ORDERS/NEW_ORDER/HISTORY slot per completed transaction; Build
// reserves 15x for ORDER_LINE), so any -benchtime works.
func BenchmarkTxnTPCC(b *testing.B) {
	for _, s := range txnSchemes() {
		s := s
		b.Run(s.name, func(b *testing.B) {
			rt := native.New(1, 42)
			db := core.NewDB(rt)
			cfg := tpcc.DefaultConfig(1)
			cfg.InsertsPerWorker = txnWarmup + b.N + 64
			wl := tpcc.Build(db, cfg)
			scheme := s.mk()
			scheme.Setup(db)
			w := core.NewWorker(rt.Proc(0), db, scheme)
			w.BindWorkload(wl)

			driveTxns(b, w, wl, txnWarmup)
			b.ReportAllocs()
			b.ResetTimer()
			driveTxns(b, w, wl, b.N)
			b.StopTimer()
			if w.Lat.Count() == 0 {
				b.Fatal("latency histogram recorded nothing; observability path not exercised")
			}
		})
	}
}

// setupRows is BenchmarkSchemeSetup's table size: large enough that one
// allocation per row would dwarf the constant part of the budget.
const setupRows = 1 << 16

// BenchmarkSchemeSetup measures building the per-row and per-bucket
// synchronization state of one table, per scheme on both runtimes: a
// hash index over setupRows rows (one latch per bucket) plus the scheme's
// Setup (one latch, and for some schemes a counter and a pre-sized
// holder, prewrite or version list, per row). Each iteration starts from
// a fresh runtime and an unindexed table, built with the timer stopped.
// Latches and counters come from runtime-owned slabs and per-row lists
// from one backing array per table, so allocs/op grows with the number
// of slab chunks (a chunk holds up to 4096 entries), not with rows. CI
// gates allocs/op against a fixed budget (see .github/workflows/ci.yml).
func BenchmarkSchemeSetup(b *testing.B) {
	runtimes := []struct {
		name string
		mk   func() rt.Runtime
	}{
		{"sim", func() rt.Runtime { return sim.New(4, 42) }},
		{"native", func() rt.Runtime { return native.New(4, 42) }},
	}
	for _, rc := range runtimes {
		for _, s := range txnSchemes() {
			b.Run(rc.name+"/"+s.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					r := rc.mk()
					db := core.NewDB(r)
					schema := storage.NewSchema("S", storage.Col{Name: "KEY", Width: 8})
					tab := db.Catalog.Add(schema, setupRows, setupRows, r.NumProcs())
					scheme := s.mk()
					b.StartTimer()
					index.New(r, tab, setupRows)
					scheme.Setup(db)
				}
			})
		}
	}
}
