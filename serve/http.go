package serve

// The HTTP/1.1 JSON transport.
//
//	POST /invoke   — one invocation; JSON body (proc, args, partition,
//	                 deadline_ns), deadline also accepted as an
//	                 Abyss-Deadline header (Go duration string, wins
//	                 over the body). Every response, success or not,
//	                 carries the JSON reply shape {outcome, elapsed_ns,
//	                 error?}; backpressure maps to status codes: 429
//	                 shed, 503 draining, 400 rejected.
//	GET  /stats    — session-side admission counters and identity.
//	GET  /healthz  — liveness (200 "ok", 503 once draining).
//
// Each connection gets its own inflight window via ConnContext; since
// HTTP/1.1 serves one request per connection at a time this only bites
// pathological pipelining, but it keeps the backpressure contract
// uniform across transports.

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"time"
)

type connWindowKey struct{}

func (s *Server) startHTTP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke", s.handleInvoke)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.httpLn = ln
	s.httpSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ConnContext: func(ctx context.Context, c net.Conn) context.Context {
			return context.WithValue(ctx, connWindowKey{}, newWindow(s.window))
		},
	}
	go s.httpSrv.Serve(ln)
	return nil
}

// stopHTTP refuses new connections and waits for in-flight handlers.
func (s *Server) stopHTTP() {
	if s.httpSrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.httpSrv.Shutdown(ctx)
}

// writeReply renders the uniform JSON reply with the outcome-derived
// status code.
func writeReply(w http.ResponseWriter, rep InvokeReply) {
	status := http.StatusOK
	switch rep.Outcome {
	case WireShed:
		status = http.StatusTooManyRequests
	case WireClosed:
		status = http.StatusServiceUnavailable
	case WireRejected:
		status = http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(httpReply{
		Outcome:   OutcomeName(rep.Outcome),
		ElapsedNS: elapsedNS(rep.Elapsed),
		Error:     rep.Err,
	})
}

func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeReply(w, InvokeReply{Outcome: WireClosed})
		return
	}
	win, _ := r.Context().Value(connWindowKey{}).(*window)
	if win != nil {
		if !win.tryAcquire() {
			s.session.NoteShed(1)
			writeReply(w, InvokeReply{Outcome: WireShed})
			return
		}
		defer win.release(1)
	}
	var body httpRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxFrame)).Decode(&body); err != nil {
		writeReply(w, InvokeReply{Outcome: WireRejected, Err: "bad JSON body: " + err.Error()})
		return
	}
	req := InvokeRequest{
		Proc:      body.Proc,
		Args:      body.Args,
		Partition: -1,
		Deadline:  time.Duration(body.DeadlineNS),
	}
	if body.Partition != nil {
		req.Partition = *body.Partition
	}
	if h := r.Header.Get("Abyss-Deadline"); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil {
			writeReply(w, InvokeReply{Outcome: WireRejected, Err: "bad Abyss-Deadline header: " + err.Error()})
			return
		}
		req.Deadline = d
	}
	if req.Deadline < 0 || (req.Partition < -1) {
		writeReply(w, InvokeReply{Outcome: WireRejected, Err: "deadline and partition must not be negative"})
		return
	}
	writeReply(w, s.invoke(req))
}

// statsReply is the GET /stats body.
type statsReply struct {
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	Window   int    `json:"window"`
	Offered  uint64 `json:"offered"`
	Shed     uint64 `json:"shed"`
	Draining bool   `json:"draining"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	c := s.session.Counters()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(statsReply{
		Scheme:   s.cfg.Scheme,
		Workload: s.cfg.Workload,
		Cores:    s.cfg.Cores,
		Window:   s.window,
		Offered:  c.Offered,
		Shed:     c.Shed,
		Draining: s.draining.Load(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok"))
}
