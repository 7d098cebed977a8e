package abyss

// Session: the stored-procedure invocation surface for remote dispatch.
//
// Run measures a workload the engine generates for itself; a Session
// inverts the flow for serving — external callers submit invocations one
// at a time and each gets an answer. Under the hood a Session is still
// one measurement on the DB's native runtime: DB.Serve starts a Run
// whose workers pull from per-worker bounded admission queues
// (core.RequestSource), and Drain ends the measurement and returns the
// same Result a Run would have, with the session-side admission
// accounting (offered, shed, queue depths) merged in. The serve/ package
// layers the network protocols on top of exactly this surface.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"abyss1000/internal/core"
)

// Serving errors. ErrShed and ErrSessionClosed are the admission-control
// outcomes a remote front end maps onto wire responses (429/SHED and
// draining refusals respectively).
var (
	// ErrShed reports an invocation rejected because the target worker's
	// admission queue was full. Shed invocations never execute; they
	// count in the drained Result.Shed.
	ErrShed = errors.New("abyss: invocation shed — admission queue full")

	// ErrSessionClosed reports an invocation refused because the session
	// is draining (or a queued invocation the drain overtook).
	ErrSessionClosed = errors.New("abyss: session draining — invocation refused")
)

// DefaultServeQueueDepth bounds each worker's admission queue when
// ServeConfig.QueueDepth is zero. A serving session always has admission
// control: an unbounded queue under sustained overload is just a slower
// crash.
const DefaultServeQueueDepth = 1024

// serveWindow is the nominal measurement window of a serving run —
// effectively unbounded; Drain ends the run by closing the queues and
// rewrites Result.MeasureCycles to the actual serving span.
const serveWindow = uint64(1) << 62

// ServeConfig tunes a serving session. Durations are wall-clock (the
// native runtime's cycle is one nanosecond).
type ServeConfig struct {
	// QueueDepth bounds each worker's admission queue; an invocation
	// routed to a full queue is shed (ErrShed). Zero means
	// DefaultServeQueueDepth.
	QueueDepth int

	// Deadline is the default per-invocation deadline, applied when an
	// Invocation carries none: an invocation not committed within this
	// budget of its arrival — including time queued — is abandoned as
	// OutcomeDeadlined. Zero means no default deadline.
	Deadline time.Duration

	// RetryLimit abandons an invocation after this many failed attempts
	// (1 means no retries); zero means unlimited retries.
	RetryLimit int

	// AbortBackoff is the mean randomized restart penalty after a
	// concurrency-control abort. Zero disables backoff.
	AbortBackoff time.Duration

	// BackoffCap turns AbortBackoff into capped exponential backoff,
	// doubling the mean per consecutive failure up to this cap. Zero
	// keeps the fixed mean.
	BackoffCap time.Duration

	// LogGroupTxns / LogGroupTimeout override the write-ahead log's
	// group-commit parameters for the session, like their RunConfig
	// counterparts. Ignored without Options.Durability.
	LogGroupTxns    int
	LogGroupTimeout time.Duration
}

// Outcome classifies a completed invocation.
type Outcome int

const (
	// OutcomeCommitted: the transaction committed.
	OutcomeCommitted Outcome = iota

	// OutcomeUserAbort: the transaction rolled back by program logic
	// (ErrUserAbort) — completed work, counted with commits.
	OutcomeUserAbort

	// OutcomeDeadlined: the invocation was abandoned past its deadline
	// or retry budget, possibly without ever executing.
	OutcomeDeadlined
)

// String names the outcome for wire encodings and logs.
func (o Outcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeUserAbort:
		return "user_abort"
	case OutcomeDeadlined:
		return "deadlined"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// ArgBinder is an optional interface for Mix transactions invoked
// through a Session: BindArgs receives the invocation's arguments after
// Generate has refreshed the instance, replacing the generated inputs.
// A transaction without it rejects invocations that carry arguments.
type ArgBinder interface {
	BindArgs(args []int64) error
}

// Invocation is one request submitted to a Session.
type Invocation struct {
	// Proc names a Mix procedure to invoke; empty draws an anonymous
	// transaction from the session's workload (the paper-workload form).
	Proc string

	// Args are optional procedure arguments, bound via ArgBinder on the
	// serving worker. Only named procedures accept arguments.
	Args []int64

	// Routed and Partition select H-STORE-aware routing: when Routed is
	// set, the invocation is dispatched to the worker owning partition
	// Partition (partitions map 1:1 onto workers), keeping single-
	// partition transactions on their home site. Unrouted invocations
	// are spread round-robin.
	Routed    bool
	Partition int

	// Deadline is the per-invocation deadline; zero uses the session
	// default.
	Deadline time.Duration
}

// Reply reports a completed invocation.
type Reply struct {
	// Outcome classifies the completion.
	Outcome Outcome

	// Elapsed is the server-side latency from arrival (submission) to
	// completion, including queueing, retries and backoff.
	Elapsed time.Duration
}

// ServeCounters is a snapshot of session-side admission accounting.
type ServeCounters struct {
	// Offered counts every submitted invocation, admitted or not.
	Offered uint64 `json:"offered"`

	// Shed counts invocations rejected by admission control: full
	// queues, plus any rejections the owning front end reports via
	// NoteShed (per-connection window overflow).
	Shed uint64 `json:"shed"`
}

// Session is a live serving run: submit invocations with Submit (or its
// blocking form Invoke), end the run with Drain. Safe for concurrent use
// by any number of goroutines.
type Session struct {
	db      *DB
	wl      Workload
	mix     *Mix
	procs   map[string]int // Mix procedure name -> spec index
	cfg     ServeConfig
	workers int

	qs      []workerQueue
	qmu     sync.RWMutex // guards qclosed + channel close
	qclosed bool
	rr      atomic.Uint64

	offered atomic.Uint64
	shed    atomic.Uint64

	epoch     time.Time // wall-clock instant of runtime cycle 0
	epochOnce sync.Once
	ready     chan struct{} // closed once epoch is known

	done      chan struct{} // closed when the underlying run has returned
	res       Result
	runErr    error
	drainOnce sync.Once
	mergeOnce sync.Once
	final     Result
}

// workerQueue is one worker's admission queue plus the depth histogram
// of the arrivals it admitted. Each queue has its own lock, so
// submitters routed to different workers never contend; Drain merges
// the histograms, as the engine merges Worker.QDepth.
type workerQueue struct {
	ch    chan core.Request
	mu    sync.Mutex // guards depth
	depth Histogram
}

// sessionSource adapts the session's queues to core.RequestSource. The
// first worker to ask for work pins the epoch — the wall-clock instant
// of runtime cycle zero — so submitter-side arrival stamps and the
// workers' clocks share one base.
type sessionSource struct{ s *Session }

// Next implements core.RequestSource.
func (src sessionSource) Next(p Proc) (core.Request, bool) {
	s := src.s
	s.epochOnce.Do(func() {
		s.epoch = time.Now().Add(-time.Duration(p.Now()))
		close(s.ready)
	})
	req, ok := <-s.qs[p.ID()].ch
	return req, ok
}

// Serve starts a serving session: the DB's single measurement begins
// immediately, with every worker blocked on its admission queue until
// invocations arrive. Requires the native runtime — remote arrivals are
// wall-clock events, which the simulator cannot admit. Like Run, Serve
// consumes the DB's one measurement; Drain ends it.
func (db *DB) Serve(scheme Scheme, wl Workload, cfg ServeConfig) (*Session, error) {
	if db.opts.Runtime != RuntimeNative {
		return nil, fmt.Errorf("abyss: Serve needs the native runtime (Options.Runtime = RuntimeNative); the simulator has no wall clock for remote arrivals")
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("abyss: ServeConfig.QueueDepth must not be negative, got %d", cfg.QueueDepth)
	}
	if cfg.Deadline < 0 || cfg.AbortBackoff < 0 || cfg.BackoffCap < 0 {
		return nil, fmt.Errorf("abyss: ServeConfig durations must not be negative")
	}
	if cfg.RetryLimit < 0 {
		return nil, fmt.Errorf("abyss: ServeConfig.RetryLimit must not be negative, got %d", cfg.RetryLimit)
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = DefaultServeQueueDepth
	}
	s := &Session{
		db:      db,
		wl:      wl,
		cfg:     cfg,
		workers: db.Cores(),
		qs:      make([]workerQueue, db.Cores()),
		ready:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	for i := range s.qs {
		s.qs[i].ch = make(chan core.Request, depth)
	}
	if m, ok := wl.(*Mix); ok {
		s.mix = m
		s.procs = make(map[string]int, len(m.names))
		for i, name := range m.names {
			s.procs[name] = i
		}
	}
	rc := RunConfig{
		MeasureCycles:   serveWindow,
		AbortBackoff:    uint64(cfg.AbortBackoff),
		RetryLimit:      cfg.RetryLimit,
		BackoffCap:      uint64(cfg.BackoffCap),
		LogGroupTxns:    cfg.LogGroupTxns,
		LogGroupTimeout: cfg.LogGroupTimeout,
		source:          sessionSource{s},
	}
	if err := db.prepareRun(scheme, wl, rc); err != nil {
		return nil, err
	}
	go func() {
		res, err := db.runMeasured(scheme, wl, rc)
		s.res, s.runErr = res, err
		// Complete anything the workers never popped (possible only on
		// an abnormal exit — Interrupt, or an engine error), then
		// publish. A normal Drain closes the queues first and the
		// workers empty them before exiting.
		s.closeQueues()
		for i := range s.qs {
			for req := range s.qs[i].ch {
				if req.Done != nil {
					req.Done(ErrSessionClosed)
				}
			}
		}
		close(s.done)
	}()
	select {
	case <-s.ready:
		return s, nil
	case <-s.done:
		if s.runErr != nil {
			return nil, s.runErr
		}
		return nil, fmt.Errorf("abyss: serving run ended before any worker started")
	}
}

// closeQueues closes every admission queue exactly once; subsequent
// submissions are refused and workers exit after emptying their queues.
func (s *Session) closeQueues() {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.qclosed {
		return
	}
	s.qclosed = true
	for i := range s.qs {
		close(s.qs[i].ch)
	}
}

// nowCycles reads the runtime clock (nanoseconds since cycle zero).
func (s *Session) nowCycles() uint64 {
	return uint64(time.Since(s.epoch))
}

// Workers returns the number of serving workers — equivalently, the
// number of partitions an Invocation can route to.
func (s *Session) Workers() int { return s.workers }

// Procedures returns the invokable procedure names (nil when the
// session's workload is not a Mix and only anonymous draws are valid).
func (s *Session) Procedures() []string {
	if s.mix == nil {
		return nil
	}
	return s.mix.Procedures()
}

// Counters snapshots the session-side admission accounting.
func (s *Session) Counters() ServeCounters {
	return ServeCounters{Offered: s.offered.Load(), Shed: s.shed.Load()}
}

// NoteShed records n invocations rejected by the owning front end
// before reaching the session — per-connection window overflow in the
// serve package. They count as offered and shed, keeping the drained
// Result's admission accounting complete across the whole serving
// stack.
func (s *Session) NoteShed(n uint64) {
	s.offered.Add(n)
	s.shed.Add(n)
}

// prepare builds the worker-side transaction constructor for inv, or
// nil for the anonymous-draw fast path.
func (s *Session) prepare(inv Invocation) (func(p Proc) (Txn, error), error) {
	if inv.Proc == "" {
		if len(inv.Args) > 0 {
			return nil, fmt.Errorf("abyss: an anonymous draw takes no arguments; name a procedure")
		}
		return nil, nil
	}
	if s.mix == nil {
		return nil, fmt.Errorf("abyss: workload has no named procedures (not a Mix); invoke with an empty Proc")
	}
	k, ok := s.procs[inv.Proc]
	if !ok {
		return nil, fmt.Errorf("abyss: no procedure %q (have: %s)", inv.Proc, joinNames(s.mix.Procedures()))
	}
	name, args := inv.Proc, inv.Args
	mix := s.mix
	return func(p Proc) (Txn, error) {
		t := mix.txns[p.ID()][k]
		if g, ok := t.(Generator); ok {
			g.Generate(p)
		}
		if len(args) > 0 {
			b, ok := t.(ArgBinder)
			if !ok {
				return nil, fmt.Errorf("abyss: procedure %q does not accept arguments (no ArgBinder)", name)
			}
			if err := b.BindArgs(args); err != nil {
				return nil, fmt.Errorf("abyss: procedure %q rejected arguments: %w", name, err)
			}
		}
		return t, nil
	}, nil
}

// Submit routes one invocation to a serving worker and returns without
// waiting for it. On a nil return, done runs exactly once, on the
// serving worker's goroutine: with a Reply for every executed or
// deadline-abandoned invocation, or with an error — ErrSessionClosed
// for an invocation the drain overtook, or an argument-binding
// rejection. done runs inside the worker's serving loop, so it must
// return promptly and never block. A non-nil return (ErrShed,
// ErrSessionClosed, or a validation error) means the invocation was not
// admitted and done never runs.
func (s *Session) Submit(inv Invocation, done func(Reply, error)) error {
	prepare, err := s.prepare(inv)
	if err != nil {
		return err
	}
	if inv.Routed && inv.Partition < 0 {
		return fmt.Errorf("abyss: Invocation.Partition must not be negative, got %d", inv.Partition)
	}
	if inv.Deadline < 0 {
		return fmt.Errorf("abyss: Invocation.Deadline must not be negative")
	}
	worker := int(s.rr.Add(1)-1) % s.workers
	if inv.Routed {
		worker = inv.Partition % s.workers
	}
	// The arrival stamp is taken before the request is queued: once it
	// is queued, a worker may complete it at any moment.
	arrival := s.nowCycles()
	d := inv.Deadline
	if d == 0 {
		d = s.cfg.Deadline
	}
	var deadline uint64
	if d > 0 {
		deadline = arrival + uint64(d)
	}
	req := core.Request{Prepare: prepare, Arrival: arrival, Deadline: deadline, Done: func(err error) {
		rep := Reply{Elapsed: time.Duration(s.nowCycles() - arrival)}
		switch err {
		case nil:
			rep.Outcome = OutcomeCommitted
		case ErrUserAbort:
			rep.Outcome = OutcomeUserAbort
		case ErrDeadline:
			rep.Outcome = OutcomeDeadlined
		default:
			done(Reply{}, err)
			return
		}
		done(rep, nil)
	}}

	q := &s.qs[worker]
	s.qmu.RLock()
	if s.qclosed {
		s.qmu.RUnlock()
		return ErrSessionClosed
	}
	s.offered.Add(1)
	select {
	case q.ch <- req:
		depth := len(q.ch)
		s.qmu.RUnlock()
		q.mu.Lock()
		q.depth.Record(uint64(depth))
		q.mu.Unlock()
		return nil
	default:
		s.qmu.RUnlock()
		s.shed.Add(1)
		return ErrShed
	}
}

// Invoke submits one invocation and blocks until it completes, sheds or
// is refused. The returned error is ErrShed for admission rejection,
// ErrSessionClosed once draining, or a validation/binding error; every
// executed (or deadline-abandoned) invocation returns a Reply instead.
// It is a wait on top of Submit.
func (s *Session) Invoke(inv Invocation) (Reply, error) {
	type result struct {
		rep Reply
		err error
	}
	ch := make(chan result, 1)
	if err := s.Submit(inv, func(rep Reply, err error) { ch <- result{rep, err} }); err != nil {
		return Reply{}, err
	}
	r := <-ch
	return r.rep, r.err
}

// Drain ends the session gracefully: new invocations are refused with
// ErrSessionClosed, workers finish everything already admitted (each
// queued invocation still gets its reply), and the measurement closes.
// The returned Result is the same shape a Run produces, with
// MeasureCycles rewritten to the actual serving span and the session's
// admission accounting (offered, shed, queue depths) merged in. Drain
// is idempotent; every call returns the same Result. The WAL, if any,
// stays open — close it with DB.CloseLog after Drain returns.
func (s *Session) Drain() (Result, error) {
	s.drainOnce.Do(func() { s.closeQueues() })
	<-s.done
	if s.runErr != nil {
		return Result{}, s.runErr
	}
	s.mergeOnce.Do(func() {
		res := s.res
		res.MeasureCycles = s.nowCycles()
		res.Offered += s.offered.Load()
		res.Shed += s.shed.Load()
		for i := range s.qs {
			q := &s.qs[i]
			q.mu.Lock()
			res.QueueDepth.Merge(&q.depth)
			q.mu.Unlock()
		}
		s.final = res
	})
	return s.final, nil
}
