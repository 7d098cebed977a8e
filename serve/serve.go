// Package serve is the networked front door to the abyss engine: it
// exposes a Session (stored-procedure invocation on the native runtime)
// over HTTP/1.1 JSON and a compact binary TCP protocol, with wire-level
// backpressure layered on the engine's admission machinery.
//
// Backpressure maps onto three nested bounds:
//
//   - per-connection inflight windows (Config.Window): a connection with
//     Window requests outstanding has further requests answered SHED
//     immediately, without touching the engine;
//   - per-worker admission queues (Config.Session.QueueDepth): requests
//     routed to a full queue are shed by the session (HTTP 429);
//   - per-request deadlines, propagated from client headers/fields to
//     the engine's deadline semantics — a request that cannot commit in
//     budget comes back "deadlined", even if it never executed.
//
// Every shed, wherever it happens, is folded into the drained
// Result.Shed, so offered = commits + shed + deadlined holds across the
// whole serving stack.
//
// The binary transport batches its socket work the way the WAL batches
// fsyncs. Each connection has one reader and one writer goroutine; the
// reader hands requests to Session.Submit, the engine's completion
// callback queues the framed reply without a syscall, and the writer
// hands every queued reply to the socket in one write. A request's
// window slot is freed when the writer takes its reply, before the
// write, so a client that waits for a reply before sending again is
// never shed by its own window. HTTP serves one request per handler
// with the blocking Session.Invoke.
//
// Graceful drain: Shutdown (the SIGTERM path in cmd/abyss-serve) stops
// accepting connections, refuses new requests with "closed", lets every
// admitted request finish and queue its reply, gives each connection a
// bounded final flush (a client that stopped reading cannot hold it
// up), drains the session, and returns the final Result. Construct with
// New, bind with Start.
package serve

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abyss1000/abyss"
)

// DefaultWindow bounds each connection's inflight requests when
// Config.Window is zero.
const DefaultWindow = 64

// Config assembles a server: the engine (scheme, workload, cores, seed,
// durability), the session's admission tuning, and the wire-level
// window.
type Config struct {
	// Scheme names the concurrency-control scheme (abyss.SchemeNames).
	Scheme string

	// Workload names the registered workload; Params overrides its
	// knobs (nil means registry defaults, with YCSB forced to its
	// partitioned layout under HSTORE).
	Workload string
	Params   *abyss.WorkloadParams

	// Cores is the native worker count — equivalently the partition
	// count requests can route to.
	Cores int

	// Seed drives the engine's deterministic streams.
	Seed int64

	// Session tunes admission control: queue depth, default deadline,
	// retry budget, backoff.
	Session abyss.ServeConfig

	// Window bounds each connection's inflight requests; overflow is
	// answered SHED without reaching the engine. Zero means
	// DefaultWindow.
	Window int

	// Durability, when non-nil, attaches a write-ahead log; Shutdown
	// flushes and closes it after the drain.
	Durability *abyss.Durability
}

// Server is one serving instance: an engine session plus up to two
// listeners (HTTP and binary TCP).
type Server struct {
	cfg     Config
	window  int
	db      *abyss.DB
	session *abyss.Session

	httpLn  net.Listener
	tcpLn   net.Listener
	httpSrv *http.Server

	draining atomic.Bool
	admit    sync.RWMutex   // orders admission against the drain flag flip
	inflight sync.WaitGroup // admitted binary requests awaiting completion
	conns    sync.Map       // open binary connections -> *connState
	connWG   sync.WaitGroup // accept loop plus each connection's reader and writer

	shutdownOnce sync.Once
	result       abyss.Result
	shutdownErr  error
}

// New opens the engine and starts the serving session; the server is not
// reachable until Start binds listeners.
func New(cfg Config) (*Server, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("serve: Config.Cores must be positive, got %d", cfg.Cores)
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("serve: Config.Window must not be negative, got %d", cfg.Window)
	}
	db, err := abyss.Open(abyss.Options{
		Runtime:    abyss.RuntimeNative,
		Cores:      cfg.Cores,
		Seed:       cfg.Seed,
		Durability: cfg.Durability,
	})
	if err != nil {
		return nil, err
	}
	params := abyss.WorkloadParams{}
	if cfg.Params != nil {
		params = *cfg.Params
	} else {
		params, err = abyss.DefaultWorkloadParams(cfg.Workload)
		if err != nil {
			return nil, err
		}
		if strings.EqualFold(cfg.Scheme, "HSTORE") && cfg.Workload == "ycsb" {
			// H-STORE requires the partitioned YCSB layout, exactly as
			// the paper's harness configures it.
			params.Partitioned = true
		}
	}
	wl, err := db.BuildWorkload(cfg.Workload, params)
	if err != nil {
		return nil, err
	}
	scheme, err := abyss.NewScheme(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	session, err := db.Serve(scheme, wl, cfg.Session)
	if err != nil {
		return nil, err
	}
	w := cfg.Window
	if w == 0 {
		w = DefaultWindow
	}
	return &Server{cfg: cfg, window: w, db: db, session: session}, nil
}

// Session exposes the underlying session (tests and embedders).
func (s *Server) Session() *abyss.Session { return s.session }

// Start binds the requested listeners ("" skips one; at least one is
// required) and begins serving. Addresses may use port 0; HTTPAddr and
// TCPAddr report the bound addresses.
func (s *Server) Start(httpAddr, tcpAddr string) error {
	if httpAddr == "" && tcpAddr == "" {
		return fmt.Errorf("serve: Start needs at least one listen address")
	}
	if httpAddr != "" {
		if err := s.startHTTP(httpAddr); err != nil {
			return err
		}
	}
	if tcpAddr != "" {
		if err := s.startTCP(tcpAddr); err != nil {
			if s.httpLn != nil {
				s.httpLn.Close()
			}
			return err
		}
	}
	return nil
}

// HTTPAddr returns the bound HTTP address, or "" without an HTTP
// listener.
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// TCPAddr returns the bound binary-protocol address, or "" without a
// TCP listener.
func (s *Server) TCPAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// reply maps a session invocation outcome onto the wire.
func reply(rep abyss.Reply, err error) InvokeReply {
	switch {
	case err == nil:
		out := InvokeReply{Elapsed: rep.Elapsed}
		switch rep.Outcome {
		case abyss.OutcomeCommitted:
			out.Outcome = WireCommitted
		case abyss.OutcomeUserAbort:
			out.Outcome = WireUserAbort
		case abyss.OutcomeDeadlined:
			out.Outcome = WireDeadlined
		default:
			out.Outcome = WireRejected
			out.Err = fmt.Sprintf("unknown outcome %v", rep.Outcome)
		}
		return out
	case err == abyss.ErrShed:
		return InvokeReply{Outcome: WireShed}
	case err == abyss.ErrSessionClosed:
		return InvokeReply{Outcome: WireClosed}
	default:
		return InvokeReply{Outcome: WireRejected, Err: err.Error()}
	}
}

// invocation maps a wire request onto a session invocation.
func invocation(req InvokeRequest) abyss.Invocation {
	inv := abyss.Invocation{Proc: req.Proc, Args: req.Args, Deadline: req.Deadline}
	if req.Partition >= 0 {
		inv.Routed = true
		inv.Partition = req.Partition
	}
	return inv
}

// invoke routes one wire request through the session and waits for it.
func (s *Server) invoke(req InvokeRequest) InvokeReply {
	return reply(s.session.Invoke(invocation(req)))
}

// Shutdown drains gracefully: stop accepting, refuse new requests,
// finish and flush everything admitted, drain the session, close the
// WAL if one is attached, and return the final Result. Idempotent;
// every call returns the same Result. This is the SIGTERM path.
func (s *Server) Shutdown() (abyss.Result, error) {
	s.shutdownOnce.Do(func() {
		// The admission lock orders the flag flip against inflight.Add:
		// every admission either predates the flip (and is counted
		// before Wait) or observes draining and refuses.
		s.admit.Lock()
		s.draining.Store(true)
		s.admit.Unlock()
		if s.tcpLn != nil {
			s.tcpLn.Close()
		}
		// Admitted binary requests finish against the still-serving
		// session; their completions only queue replies, so this wait
		// cannot block on a client that stopped reading.
		s.inflight.Wait()
		// End every reader now and give each writer flushTimeout to
		// hand its queued replies to the socket; then it closes.
		s.conns.Range(func(key, _ any) bool {
			// Errors are ignored: they come only from a connection
			// that is already closed, whose goroutines are exiting.
			c := key.(*connState)
			now := time.Now()
			_ = c.conn.SetWriteDeadline(now.Add(flushTimeout))
			_ = c.conn.SetReadDeadline(now)
			return true
		})
		s.connWG.Wait()
		s.stopHTTP()
		s.result, s.shutdownErr = s.session.Drain()
		if s.shutdownErr == nil && s.db.Durable() {
			s.shutdownErr = s.db.CloseLog()
		}
	})
	return s.result, s.shutdownErr
}

// window counts a connection's outstanding requests against its bound.
type window struct {
	limit int64
	n     atomic.Int64
}

func newWindow(limit int) *window { return &window{limit: int64(limit)} }

func (w *window) tryAcquire() bool {
	if w.n.Add(1) > w.limit {
		w.n.Add(-1)
		return false
	}
	return true
}

func (w *window) release(k int64) { w.n.Add(-k) }

// Elapsed-to-wall helpers shared by the transports.
func elapsedNS(d time.Duration) int64 {
	if d < 0 {
		return 0
	}
	return int64(d)
}
