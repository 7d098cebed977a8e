package abyss

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"abyss1000/internal/core"
	"abyss1000/internal/index"
	"abyss1000/internal/native"
	"abyss1000/internal/rt"
	"abyss1000/internal/sim"
	"abyss1000/internal/stats"
	"abyss1000/internal/storage"
	"abyss1000/internal/tsalloc"
	"abyss1000/internal/wal"
)

// The engine types that flow through the public API. They are aliases, not
// wrappers: a Scheme from NewScheme, a Workload from BuildWorkload and a
// Txn written against TxnCtx are exactly what the engine executes, so
// embedding code pays no adaptation cost and external workloads (see
// abyss1000/workloads/smallbank) are indistinguishable from built-in ones.
type (
	// Scheme is a pluggable concurrency-control scheme (§3.2 of the
	// paper). Obtain instances from NewScheme; implementing new schemes
	// currently requires engine-internal types.
	Scheme = core.Scheme

	// Workload generates each worker's transaction stream.
	Workload = core.Workload

	// Txn is one transaction: program logic intermixed with row accesses.
	Txn = core.Txn

	// TxnCtx is the per-worker transaction context handed to Txn.Run:
	// Lookup/Read/UpdateRow/InsertRow are the whole data access surface.
	TxnCtx = core.TxnCtx

	// Result aggregates one experiment run (commits, aborts, tuple
	// accesses, the six-component time breakdown, the commit-latency
	// Histogram, per-transaction-type TxnStats, and derived rates).
	Result = core.Result

	// TxnStats is one transaction type's sub-result within a Result:
	// commits, aborts and the type's own latency histogram.
	TxnStats = core.TxnStats

	// Histogram is a log2-bucketed latency histogram with
	// P50/P95/P99/Max accessors and Quantile/Merge; Result.Latency,
	// TxnStats.Latency and Sample.Latency are Histograms.
	Histogram = stats.Histogram

	// Sample is one interval's in-flight snapshot of a run: commits,
	// aborts and latency for that interval, with Throughput and
	// AbortFraction accessors. Delivered via RunConfig.Observer or the
	// RunStream channel.
	Sample = core.Sample

	// Observer receives interval Samples during a run. OnSample is
	// called from worker threads and must return promptly; RunStream
	// wraps the channel plumbing for the common case.
	Observer = core.Observer

	// ObserverFunc adapts a function to the Observer interface.
	ObserverFunc = core.ObserverFunc

	// TxnTyper is the optional Workload interface that enables
	// Result.PerTxn attribution. Mix implements it; custom Workload
	// implementations may too.
	TxnTyper = core.TxnTyper

	// Proc is one logical core / worker thread: clock, deterministic RNG
	// and time-breakdown accounting.
	Proc = rt.Proc

	// Table is a fixed-width row table created by CreateTable.
	Table = storage.Table

	// Schema describes a Table's columns and provides typed row access.
	Schema = storage.Schema

	// Col is one fixed-width column of a TableSpec.
	Col = storage.Col

	// Index is a hash index created by CreateIndex.
	Index = index.Hash

	// OrderedIndex is an ordered (range-scannable) secondary index
	// created by CreateOrderedIndex.
	OrderedIndex = index.Ordered

	// IndexEntry is one key→slot pair returned by an ordered range scan.
	IndexEntry = index.Entry

	// TSMethod selects a timestamp-allocation strategy (§4.3).
	TSMethod = tsalloc.Method

	// TSAllocator hands out transaction timestamps; see
	// DB.NewTimestampAllocator.
	TSAllocator = tsalloc.Allocator
)

// Sentinel errors returned from transaction bodies.
var (
	// ErrAbort is returned by row accesses when concurrency control
	// aborts the transaction; propagate it out of Txn.Run unchanged and
	// the engine rolls back and restarts.
	ErrAbort = core.ErrAbort

	// ErrUserAbort is returned by transaction logic to request a rollback
	// that counts as completed work (no restart), e.g. TPC-C's 1%
	// invalid-item NewOrders.
	ErrUserAbort = core.ErrUserAbort
)

// Runtime names accepted by Options.Runtime.
const (
	// RuntimeSim is the deterministic discrete-event simulator of a tiled
	// many-core chip (the default): bit-reproducible results, core counts
	// far beyond the host.
	RuntimeSim = "sim"

	// RuntimeNative runs workers as real goroutines with real
	// synchronization; windows are wall-clock nanoseconds and results are
	// machine-dependent.
	RuntimeNative = "native"
)

// MaxCores is the largest worker count Open accepts — the paper's maximum
// core count, and the bound baked into clock-based timestamp allocation
// (10 bits of worker id).
const MaxCores = 1024

// NumHistBuckets is the number of log2 buckets in a Histogram: bucket 0
// holds the value 0, bucket i holds values in [2^(i-1), 2^i).
const NumHistBuckets = stats.NumHistBuckets

// MaxSampleIntervals bounds MeasureCycles / SampleEvery: the sampler and
// the RunStream channel preallocate per-interval state, so finer
// sampling than this is rejected at validation.
const MaxSampleIntervals = core.MaxSampleIntervals

// HistBucketBounds returns Histogram bucket i's half-open value range
// [lo, hi), for rendering histogram dumps.
func HistBucketBounds(i int) (lo, hi uint64) { return stats.HistBucketBounds(i) }

// Runtimes lists the valid Options.Runtime values.
func Runtimes() []string { return []string{RuntimeSim, RuntimeNative} }

// Options configures Open.
type Options struct {
	// Runtime selects the execution substrate: RuntimeSim (default) or
	// RuntimeNative.
	Runtime string

	// Cores is the number of logical cores / worker threads, in
	// [1, MaxCores]. Required.
	Cores int

	// Seed drives every deterministic random stream (per-worker RNGs,
	// simulated placement). Two sim DBs opened with equal Options produce
	// byte-identical results for equal work.
	Seed int64

	// Durability, when non-nil, attaches a write-ahead log: every commit
	// appends its after-images, DB.Checkpoint snapshots tables, and
	// DB.Recover replays a (possibly torn) stream back to the durable
	// committed state. Nil means no logging and a commit path identical
	// to a non-durable build. See the Durability type in durability.go.
	Durability *Durability
}

// DB is an embeddable database instance: a runtime, a catalog of tables
// and indexes, and the Run entry point. One DB supports one experiment
// Run; open a fresh DB per measurement so warmup windows and clocks start
// from zero.
type DB struct {
	opts  Options
	rt    rt.Runtime
	inner *core.DB

	tables     map[string]*Table
	indexes    map[string]*Index
	ordIndexes map[string]*OrderedIndex
	ran        bool

	// Durability state: the log writer and its sink (nil without
	// Options.Durability), and the scheme of the DB's Run, kept so
	// StateDump can ask it for committed images (MVCC).
	wal        *wal.Writer
	logSink    LogSink
	lastScheme Scheme

	// stop is the cooperative interruption flag wired into every Run as
	// core.Config.Stop; Interrupt sets it. Workers poll it at transaction
	// boundaries only, so an idle flag costs one nil-check per txn.
	stop atomic.Bool
}

// Open validates opts and creates an empty database on the selected
// runtime.
func Open(opts Options) (*DB, error) {
	if opts.Runtime == "" {
		opts.Runtime = RuntimeSim
	}
	if opts.Cores < 1 || opts.Cores > MaxCores {
		return nil, fmt.Errorf("abyss: Options.Cores must be in [1, %d], got %d", MaxCores, opts.Cores)
	}
	var r rt.Runtime
	switch opts.Runtime {
	case RuntimeSim:
		r = sim.New(opts.Cores, opts.Seed)
	case RuntimeNative:
		r = native.New(opts.Cores, opts.Seed)
	default:
		return nil, fmt.Errorf("abyss: unknown runtime %q (valid: %s)", opts.Runtime, joinNames(Runtimes()))
	}
	db := &DB{
		opts:       opts,
		rt:         r,
		inner:      core.NewDB(r),
		tables:     make(map[string]*Table),
		indexes:    make(map[string]*Index),
		ordIndexes: make(map[string]*OrderedIndex),
	}
	if opts.Durability != nil {
		db.attachWAL(opts.Durability)
	}
	return db, nil
}

// Options returns the options the DB was opened with (with defaults
// applied).
func (db *DB) Options() Options { return db.opts }

// Cores returns the number of logical cores / worker threads.
func (db *DB) Cores() int { return db.rt.NumProcs() }

// Frequency returns the core clock in Hz used to convert cycle counts to
// per-second rates (1 GHz simulated; 1 cycle = 1 ns native).
func (db *DB) Frequency() float64 { return db.rt.Frequency() }

// TableSpec declares one table for CreateTable.
type TableSpec struct {
	// Name is the table name, unique within the DB.
	Name string

	// Cols are the fixed-width columns, in storage order.
	Cols []Col

	// Capacity is the total slot count. Slots beyond Loaded are divided
	// into per-worker insert segments for runtime inserts.
	Capacity int

	// Loaded is how many rows setup code will populate via Table.LoadRow
	// before the run starts.
	Loaded int
}

// CreateTable validates spec and adds the table to the catalog. Populate
// its first spec.Loaded rows with Table.LoadRow and Schema's Put accessors
// before Run.
func (db *DB) CreateTable(spec TableSpec) (*Table, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("abyss: TableSpec.Name must not be empty")
	}
	if _, ok := db.tables[spec.Name]; ok {
		return nil, fmt.Errorf("abyss: table %q already exists", spec.Name)
	}
	if len(spec.Cols) == 0 {
		return nil, fmt.Errorf("abyss: table %q needs at least one column", spec.Name)
	}
	for _, c := range spec.Cols {
		if c.Name == "" || c.Width <= 0 {
			return nil, fmt.Errorf("abyss: table %q column %q must have a name and positive width, got width %d", spec.Name, c.Name, c.Width)
		}
	}
	if spec.Capacity <= 0 {
		return nil, fmt.Errorf("abyss: table %q capacity must be positive, got %d", spec.Name, spec.Capacity)
	}
	if spec.Loaded < 0 || spec.Loaded > spec.Capacity {
		return nil, fmt.Errorf("abyss: table %q loaded rows %d out of range [0, capacity %d]", spec.Name, spec.Loaded, spec.Capacity)
	}
	schema := storage.NewSchema(spec.Name, spec.Cols...)
	t := db.inner.Catalog.Add(schema, spec.Capacity, spec.Loaded, db.Cores())
	db.tables[spec.Name] = t
	return t, nil
}

// CreateIndex builds a hash index named name over t, sized for at least
// minKeys keys. Populate setup-time entries with Index.LoadInsert.
func (db *DB) CreateIndex(name string, t *Table, minKeys int) (*Index, error) {
	if name == "" {
		return nil, fmt.Errorf("abyss: index name must not be empty")
	}
	if _, ok := db.indexes[name]; ok {
		return nil, fmt.Errorf("abyss: index %q already exists", name)
	}
	if t == nil {
		return nil, fmt.Errorf("abyss: index %q needs a table", name)
	}
	if minKeys < 1 {
		minKeys = 1
	}
	h := db.inner.AddIndex(name, t, minKeys)
	db.indexes[name] = h
	return h, nil
}

// CreateOrderedIndex builds an ordered secondary index named name over t.
// Ordered indexes support Txn.RangeScan in addition to point lookups;
// their maintenance and scans are billed to the INDEX component like hash
// probes. Populate setup-time entries with OrderedIndex.LoadInsert.
func (db *DB) CreateOrderedIndex(name string, t *Table) (*OrderedIndex, error) {
	if name == "" {
		return nil, fmt.Errorf("abyss: ordered index name must not be empty")
	}
	if _, ok := db.ordIndexes[name]; ok {
		return nil, fmt.Errorf("abyss: ordered index %q already exists", name)
	}
	if t == nil {
		return nil, fmt.Errorf("abyss: ordered index %q needs a table", name)
	}
	o := db.inner.AddOrderedIndex(name, t)
	db.ordIndexes[name] = o
	return o, nil
}

// Table returns the named table.
func (db *DB) Table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("abyss: no table %q (have: %s)", name, joinNames(sortedKeys(db.tables)))
	}
	return t, nil
}

// Index returns the named index.
func (db *DB) Index(name string) (*Index, error) {
	h, ok := db.indexes[name]
	if !ok {
		return nil, fmt.Errorf("abyss: no index %q (have: %s)", name, joinNames(sortedKeys(db.indexes)))
	}
	return h, nil
}

// OrderedIndex returns the named ordered index.
func (db *DB) OrderedIndex(name string) (*OrderedIndex, error) {
	o, ok := db.ordIndexes[name]
	if !ok {
		return nil, fmt.Errorf("abyss: no ordered index %q (have: %s)", name, joinNames(sortedKeys(db.ordIndexes)))
	}
	return o, nil
}

// CompositeKey packs up to four 16-bit ids into one uint64 index key,
// the convention TPC-C-style multi-column keys use.
func CompositeKey(a, b, c, d uint64) uint64 { return index.CompositeKey(a, b, c, d) }

// NewTimestampAllocator builds a timestamp allocator of the given method
// on this DB's runtime (the §4.3 strategies; see ParseTSMethod). Like
// CreateTable and CreateIndex it belongs to set-up: call it before Go or
// Run, not from concurrent workers.
func (db *DB) NewTimestampAllocator(m TSMethod) TSAllocator {
	return tsalloc.New(m, db.rt)
}

// Go executes body on every core concurrently — simulated or real — and
// returns when all bodies have returned. This is the raw worker substrate
// beneath Run, exposed for micro-benchmarks (e.g. timestamp allocation)
// and custom measurement loops; most embedders only need Run. Like Run it
// consumes the DB's single measurement (the simulated clock only starts
// from zero once), so a second Go — or mixing Go and Run — returns an
// error.
func (db *DB) Go(body func(p Proc)) error {
	if body == nil {
		return fmt.Errorf("abyss: Go needs a body")
	}
	if db.ran {
		return fmt.Errorf("abyss: this DB already ran an experiment; Open a fresh DB per Run/Go")
	}
	db.ran = true
	db.rt.Run(body)
	return nil
}

// RunConfig sizes one measurement. Cycles are simulated cycles under
// RuntimeSim (1 GHz: 1 cycle = 1 ns of simulated time) and wall-clock
// nanoseconds under RuntimeNative.
type RunConfig struct {
	// WarmupCycles is discarded ramp-up time before counters reset.
	WarmupCycles uint64

	// MeasureCycles is the measurement window; must be positive.
	MeasureCycles uint64

	// AbortBackoff is the mean randomized restart penalty after a
	// concurrency-control abort, in cycles. Zero disables backoff.
	AbortBackoff uint64

	// SampleEvery divides the measurement window into intervals of this
	// many cycles; one Sample per interval is delivered to Observer (or
	// the RunStream channel) while the run is in flight. Sampling is
	// accounting-only — the final Result, and on the simulated runtime
	// every simulated outcome, are byte-identical with and without it.
	// Zero disables sampling; positive values require a sink (an
	// Observer for Run, or using RunStream).
	SampleEvery uint64

	// Observer receives the interval Samples during Run. OnSample runs
	// on worker threads and must return promptly (under the simulator a
	// blocked observer blocks the whole simulation); use RunStream for
	// a buffered channel instead of implementing an Observer. Setting
	// an Observer requires a positive SampleEvery.
	Observer Observer

	// LogGroupTxns overrides the write-ahead log's group-commit size for
	// this run (records per modeled fsync in accounting-only mode). Zero
	// keeps the Durability setting. Ignored without Options.Durability.
	LogGroupTxns int

	// LogGroupTimeout overrides the async group-commit window for this
	// run. Zero keeps the Durability setting. Ignored without
	// Options.Durability.
	LogGroupTimeout time.Duration

	// Check records every committed transaction's read and write
	// versions during the run for the serializability checker: after Run
	// returns, DB.CheckSerializability verifies the captured history and
	// DB.History exposes it. Accounting-only, like SampleEvery — the
	// Result is identical with it on or off. See check.go.
	Check bool

	// Arrivals switches the run from the paper's closed loop (one
	// outstanding transaction per worker) to open-loop offered load: a
	// seed-deterministic Poisson or bursty MMPP arrival process feeding
	// per-worker admission queues. The zero value keeps the closed loop.
	// See overload.go for the overload tier's semantics.
	Arrivals Arrivals

	// QueueDepth bounds each worker's admission queue in open-loop runs;
	// arrivals past the bound are shed (Result.Shed). Zero means
	// unbounded — admission control off. Requires Arrivals.
	QueueDepth int

	// ShedTypes lists transaction type names (comma-separated) to shed
	// preferentially once a queue passes its high-water mark. Requires
	// Arrivals and a workload that declares its types (Mix does).
	ShedTypes string

	// Deadline abandons a transaction not committed within this many
	// cycles of its arrival (open loop) or first attempt (closed loop):
	// it fails as ErrDeadline instead of retrying forever, counted in
	// Result.Deadlined. Zero disables deadlines.
	Deadline uint64

	// RetryLimit abandons a transaction after this many failed attempts
	// (1 means no retries); abandoned transactions count in
	// Result.Deadlined. Zero means unlimited retries.
	RetryLimit int

	// BackoffCap turns the fixed AbortBackoff restart penalty into
	// capped exponential backoff: the mean doubles per consecutive
	// failure up to this cap, with jitter drawn deterministically from
	// the worker's seeded RNG. Zero keeps the fixed mean.
	BackoffCap uint64

	// Fault, when non-nil, injects stalls at transaction boundaries —
	// see StalledWorkerFault, SlowPartitionFault, LatencySpikeFault and
	// ComposeFaults. Billed to the Idle breakdown component.
	Fault FaultInjector

	// source, when non-nil, switches the run to remote request dispatch
	// (workers pull externally submitted requests instead of drawing
	// work). Set only by DB.Serve — sessions own the admission queues,
	// arrival stamping and completion plumbing around it.
	source core.RequestSource
}

// DefaultRunConfig returns a window sized for quick experiments on this
// DB's runtime: ~0.4 ms simulated (sim) or ~50 ms wall-clock (native)
// of measurement after warmup.
func (db *DB) DefaultRunConfig() RunConfig {
	if db.opts.Runtime == RuntimeNative {
		return RunConfig{WarmupCycles: 5_000_000, MeasureCycles: 50_000_000, AbortBackoff: 1000}
	}
	c := core.DefaultConfig()
	return RunConfig{WarmupCycles: c.WarmupCycles, MeasureCycles: c.MeasureCycles, AbortBackoff: c.AbortBackoff}
}

// prepareRun validates one measurement's arguments and claims the DB's
// single run. On success the caller owns the measurement and must perform
// it; on error nothing changed.
func (db *DB) prepareRun(scheme Scheme, wl Workload, cfg RunConfig) error {
	if scheme == nil {
		return fmt.Errorf("abyss: Run needs a Scheme (see NewScheme)")
	}
	if wl == nil {
		return fmt.Errorf("abyss: Run needs a Workload (see BuildWorkload)")
	}
	if cfg.MeasureCycles == 0 {
		return fmt.Errorf("abyss: RunConfig.MeasureCycles must be positive (a zero window has no throughput)")
	}
	if cfg.Observer != nil && cfg.SampleEvery == 0 {
		return fmt.Errorf("abyss: RunConfig.Observer is set but SampleEvery is 0; set SampleEvery to the sampling interval in cycles")
	}
	if cfg.SampleEvery > 0 && cfg.Observer == nil {
		return fmt.Errorf("abyss: RunConfig.SampleEvery is set but there is no sample sink; set RunConfig.Observer or use RunStream")
	}
	if cfg.SampleEvery > cfg.MeasureCycles {
		return fmt.Errorf("abyss: RunConfig.SampleEvery (%d) must not exceed MeasureCycles (%d); a window shorter than one interval produces no samples", cfg.SampleEvery, cfg.MeasureCycles)
	}
	if cfg.SampleEvery > 0 {
		if n := (cfg.MeasureCycles + cfg.SampleEvery - 1) / cfg.SampleEvery; n > core.MaxSampleIntervals {
			return fmt.Errorf("abyss: RunConfig.SampleEvery (%d) yields %d sample intervals over MeasureCycles (%d); at most %d are allowed — use a coarser sampling period", cfg.SampleEvery, n, cfg.MeasureCycles, core.MaxSampleIntervals)
		}
	}
	if err := validateOverload(cfg); err != nil {
		return err
	}
	if db.ran {
		return fmt.Errorf("abyss: this DB already ran an experiment; Open a fresh DB per Run/Go")
	}
	db.ran = true
	return nil
}

// runMeasured executes the prepared measurement. Split from Run so that
// RunStream can validate synchronously and measure on its own goroutine.
func (db *DB) runMeasured(scheme Scheme, wl Workload, cfg RunConfig) (res Result, err error) {
	// The engine reports misconfiguration (exhausted insert segments,
	// missing indexes) by panicking; at the public boundary those become
	// errors. Panics on worker goroutines still crash — they indicate
	// bugs in transaction bodies, not configuration.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("abyss: run failed: %v", r)
		}
	}()
	if db.wal != nil {
		db.wal.SetGrouping(cfg.LogGroupTxns, cfg.LogGroupTimeout)
	}
	db.lastScheme = scheme
	res = core.RunObserved(db.inner, scheme, wl, core.Config{
		WarmupCycles:  cfg.WarmupCycles,
		MeasureCycles: cfg.MeasureCycles,
		AbortBackoff:  cfg.AbortBackoff,
		SampleEvery:   cfg.SampleEvery,
		Capture:       cfg.Check,
		Arrivals:      cfg.Arrivals,
		QueueDepth:    cfg.QueueDepth,
		ShedTypes:     cfg.ShedTypes,
		Deadline:      cfg.Deadline,
		RetryLimit:    cfg.RetryLimit,
		BackoffCap:    cfg.BackoffCap,
		Fault:         cfg.Fault,
		Stop:          &db.stop,
		Source:        cfg.source,
	}, cfg.Observer)
	return res, nil
}

// Run executes wl under scheme for cfg's measurement window and returns
// the aggregated result: throughput, aborts, the six-component breakdown,
// the commit-latency histogram, and per-transaction-type sub-results when
// the workload declares its types (Mix does). With SampleEvery and an
// Observer set, interval Samples stream to the Observer during the run.
// The workload's tables must already be populated (BuildWorkload does
// this for registered workloads). A DB measures once: clocks and warmup
// windows are meaningful only from a cold start, so a second Run returns
// an error — Open a fresh DB instead.
func (db *DB) Run(scheme Scheme, wl Workload, cfg RunConfig) (Result, error) {
	if err := db.prepareRun(scheme, wl, cfg); err != nil {
		return Result{}, err
	}
	return db.runMeasured(scheme, wl, cfg)
}

// chanObserver forwards samples into a channel buffered for every
// interval of the run, so sends never block the measurement.
type chanObserver chan<- Sample

// OnSample implements Observer.
func (c chanObserver) OnSample(s Sample) { c <- s }

// RunStream is Run with a streaming surface: it starts the measurement in
// the background and returns immediately with a channel of in-flight
// Samples (one per SampleEvery cycles of the measurement window, closed
// when the run ends) and a wait function that blocks for, and returns,
// the final Result.
//
// The channel is buffered for the whole run, so the measurement never
// waits on the consumer — ranging over the channel and then calling wait
// is the intended pattern, but calling wait immediately (or never
// draining the channel at all) is also safe.
//
// cfg.SampleEvery must be positive and cfg.Observer must be nil
// (RunStream installs its own); errors — including argument validation —
// are reported by the wait function, with the sample channel closed and
// empty.
func (db *DB) RunStream(scheme Scheme, wl Workload, cfg RunConfig) (<-chan Sample, func() (Result, error)) {
	fail := func(err error) (<-chan Sample, func() (Result, error)) {
		ch := make(chan Sample)
		close(ch)
		return ch, func() (Result, error) { return Result{}, err }
	}
	if cfg.Observer != nil {
		return fail(fmt.Errorf("abyss: RunStream installs its own Observer; RunConfig.Observer must be nil"))
	}
	if cfg.SampleEvery == 0 {
		return fail(fmt.Errorf("abyss: RunStream needs a positive RunConfig.SampleEvery (the sampling interval in cycles)"))
	}
	if cfg.MeasureCycles == 0 {
		return fail(fmt.Errorf("abyss: RunConfig.MeasureCycles must be positive (a zero window has no throughput)"))
	}
	intervals := (cfg.MeasureCycles + cfg.SampleEvery - 1) / cfg.SampleEvery
	if intervals > core.MaxSampleIntervals {
		return fail(fmt.Errorf("abyss: RunConfig.SampleEvery (%d) yields %d sample intervals over MeasureCycles (%d); at most %d are allowed — use a coarser sampling period", cfg.SampleEvery, intervals, cfg.MeasureCycles, core.MaxSampleIntervals))
	}
	ch := make(chan Sample, intervals+1)
	cfg.Observer = chanObserver(ch)
	if err := db.prepareRun(scheme, wl, cfg); err != nil {
		return fail(err)
	}
	done := make(chan struct{})
	var (
		res    Result
		runErr error
	)
	go func() {
		defer close(done)
		defer close(ch)
		res, runErr = db.runMeasured(scheme, wl, cfg)
	}()
	return ch, func() (Result, error) {
		<-done
		return res, runErr
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func joinNames(names []string) string {
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}
