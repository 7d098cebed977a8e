// Package abyss is the public, embeddable front door to the engine: a
// deterministic many-core simulator (and a native-goroutine runtime), a
// lightweight main-memory DBMS, the seven concurrency-control schemes of
// "Staring into the Abyss: An Evaluation of Concurrency Control with One
// Thousand Cores" (VLDB 2014), and name-keyed registries that make every
// scheme and workload a plug-in rather than a wiring change.
//
// The five-minute tour:
//
//	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeSim, Cores: 64, Seed: 42})
//	params, err := abyss.DefaultWorkloadParams("ycsb")
//	wl, err := db.BuildWorkload("ycsb", params)
//	scheme, err := abyss.NewScheme("MVCC")
//	res, err := db.Run(scheme, wl, db.DefaultRunConfig())
//	fmt.Println(res.Throughput(), "txn/s")
//
// Everything is keyed by name: Schemes() lists the concurrency-control
// schemes (the paper's seven plus extensions such as ADAPTIVE), Workloads()
// lists the registered workloads (YCSB, TPC-C, and any workload registered
// via RegisterWorkload — see abyss1000/workloads/smallbank for a complete
// external example), and TSMethodNames() lists the timestamp-allocation
// strategies. Unknown names return errors enumerating the valid set, and
// invalid configurations (zero measurement windows, out-of-range
// probabilities) are rejected before they can produce NaN throughputs.
//
// Custom workloads implement the Workload and Txn interfaces against the
// declarative surface on DB: CreateTable builds fixed-width tables,
// CreateIndex hashes them, and NewMix turns a set of weighted
// stored-procedure factories into a Workload. Transaction bodies read and
// write rows through TxnCtx exactly like the built-in workloads do; the
// access path is steady-state allocation-free regardless of which scheme
// is plugged in.
//
// Beyond point accesses, CreateOrderedIndex builds a latched B+tree
// secondary index whose TxnCtx.RangeScan returns the entries in [lo, hi]
// in key order, and TxnCtx.InsertRowOrdered stages a row into a hash
// index and an ordered index atomically at commit. CompositeKey packs
// multi-column keys. The abyss1000/query package layers composable
// iterator-model operators (scan, index range, filter, project, join,
// group, order, limit) on top of exactly this surface; the full
// five-transaction TPC-C mix (WorkloadParams.Mix = "full") and the
// abyss1000/workloads/tatp benchmark are built from it. Range scans are
// latch-consistent but not phantom-protected: no scheme implements
// next-key locking.
//
// Observability is built into every run. Result carries a commit-latency
// Histogram (P50/P95/P99/Max) and per-transaction-type TxnStats (names
// flow from TxnSpec registration; workloads can also implement TxnTyper
// directly), and a run can be watched in flight: RunStream returns a
// buffered channel of per-interval Samples plus a wait function for the
// final Result, or set RunConfig.SampleEvery and an Observer on a plain
// Run. All of it is accounting-only — a sampled, observed run returns a
// Result identical to an unobserved one, and on the simulated runtime the
// entire schedule is unchanged.
//
// Overload behaviour is part of the surface, not an accident. RunConfig
// can open the loop — a Poisson or bursty MMPP arrival process
// (Arrivals) offering load the system did not ask for — with bounded
// per-worker admission queues (QueueDepth, ShedTypes) that shed excess
// up front, per-transaction deadlines and retry budgets (Deadline,
// RetryLimit, failing as ErrDeadline into Result.Deadlined), capped
// exponential backoff (BackoffCap), and fault injection (Fault; see
// StalledWorkerFault and friends). Result then separates offered load
// from goodput (OfferedTPS, GoodputTPS, Shed, QueueDepth), Interrupt
// ends an in-flight run gracefully with a partial Result, and with
// every knob at zero the closed loop is byte-identical to previous
// releases.
//
// Serving inverts the flow: DB.Serve starts a Session on the native
// runtime, and external callers hand it invocations instead of the
// engine generating its own. Session.Submit is the primitive: it routes
// an Invocation to a worker's bounded admission queue and returns at
// once (ErrShed on a full queue), and its completion callback runs
// exactly once on the serving worker with the Reply — so a front end
// can answer many requests without a goroutine or a channel per
// request, as the abyss1000/serve binary transport does. Session.Invoke
// is the blocking form, a wait on top of Submit. Drain ends the session
// and returns the Result with the admission accounting merged in.
//
// Correctness is checkable, not assumed: set RunConfig.Check and the run
// captures every committed transaction's reads and writes as versions
// (accounting-only, like sampling); DB.CheckSerializability then builds
// the direct serialization graph over the captured history and verifies
// acyclicity plus final-state equivalence against a single-threaded
// oracle replay, returning a minimal counterexample cycle on failure.
// See check.go and the abyss1000/workloads/chaos fuzzer.
//
// Every run on the simulated runtime is deterministic in (Options.Seed,
// configuration): same inputs, byte-identical Result. The native runtime
// trades determinism for real wall-clock measurements on host cores.
package abyss
