package main

import (
	"fmt"
	"time"

	"abyss1000/abyss"
	"abyss1000/serve"
	"abyss1000/serve/client"
)

const (
	serveRows      = 65536
	serveCores     = 2
	serveConns     = 2
	serveLightRate = 5000 // req/s offered in the light open-loop phase
	// serveClientWindow bounds each connection's outstanding requests at
	// half the server's window. The server frees a window slot only after
	// it has written the reply, so a client that keeps the whole window
	// full now and then has its next request shed; half the window keeps
	// two workers saturated without touching that edge.
	serveClientWindow = serve.DefaultWindow / 2
	serveSetups       = 5
	serveLight        = 500 * time.Millisecond // light segment of a round
	serveSat          = 500 * time.Millisecond // saturation segment of a round
	codecIters        = 200_000
)

// serveParams is the served YCSB: 65 536 rows of 10×100 B, 16 accesses,
// 90% reads, θ=0.6.
func serveParams() (abyss.WorkloadParams, error) {
	p, err := abyss.DefaultWorkloadParams("ycsb")
	if err != nil {
		return p, err
	}
	p.Rows = serveRows
	p.Fields = 10
	p.FieldSize = 100
	p.ReqPerTxn = 16
	p.ReadPct = 0.9
	p.Theta = 0.6
	return p, nil
}

// wireKind maps a wire outcome onto the ledger: "" for completed work.
func wireKind(rep serve.InvokeReply, err error) string {
	if err != nil {
		return failTransport
	}
	switch rep.Outcome {
	case serve.WireCommitted, serve.WireUserAbort:
		return ""
	case serve.WireShed:
		return failServerShed
	case serve.WireDeadlined:
		return failDeadlined
	case serve.WireClosed:
		return failClosed
	default:
		return failRejected
	}
}

// sessionKind maps a Session.Invoke outcome onto the ledger.
func sessionKind(rep abyss.Reply, err error) string {
	switch {
	case err == abyss.ErrShed:
		return failAdmissionShed
	case err == abyss.ErrSessionClosed:
		return failClosed
	case err != nil:
		return failRejected
	case rep.Outcome == abyss.OutcomeDeadlined:
		return failDeadlined
	default:
		return ""
	}
}

// wireRound is one light + saturation round over the wire, with the
// per-request split of the light segment's completed requests.
type wireRound struct {
	round
	rtt      []float64 // µs around Conn.Invoke
	elapsed  []float64 // µs the reply says the server spent
	overhead []float64 // µs rtt − elapsed: socket, codec and serve goroutines
}

// runWireRound offers the light open-loop segment, then the saturation
// segment in which every connection keeps serveClientWindow requests
// outstanding.
func runWireRound(conns []client.Conn, seed int64, tr *tracer) wireRound {
	wr := wireRound{round: round{traced: tr != nil}}
	sched := poissonSchedule(seed, serveLightRate, serveLight)
	rtt := make([]float64, len(sched))
	el := make([]float64, len(sched))
	for i := range rtt {
		rtt[i] = -1 // stays negative unless request i completes
	}
	root := tr.begin("phase:light", -1, 0)
	wr.light = openLoop(sched, len(conns), serveClientWindow, func(i int) string {
		sp := tr.begin("Conn.Invoke", root, uint64(seed)<<32|uint64(i))
		t0 := time.Now()
		rep, err := conns[i%len(conns)].Invoke(serve.InvokeRequest{Partition: -1})
		d := time.Since(t0)
		tr.end(sp)
		k := wireKind(rep, err)
		if k == "" {
			rtt[i], el[i] = float64(d)/1e3, float64(rep.Elapsed)/1e3
		}
		return k
	})
	tr.end(root)
	for i := range rtt {
		if rtt[i] >= 0 {
			wr.rtt = append(wr.rtt, rtt[i])
			wr.elapsed = append(wr.elapsed, el[i])
			wr.overhead = append(wr.overhead, rtt[i]-el[i])
		}
	}
	root = tr.begin("phase:saturation", -1, 0)
	wr.sat = closedLoop(len(conns)*serveClientWindow, serveSat, 0, func(c int) string {
		sp := tr.begin("Conn.Invoke", root, 0)
		rep, err := conns[c%len(conns)].Invoke(serve.InvokeRequest{Partition: -1})
		tr.end(sp)
		return wireKind(rep, err)
	})
	tr.end(root)
	fmt.Printf("  round (traced=%v): light %s; saturation %s, %.0f txn/s\n",
		wr.traced, wr.light.ledger, wr.sat.ledger, wr.sat.goodput())
	return wr
}

// newServer builds and starts one in-process server on loopback.
func newServer(seed int64, tr *tracer) (*serve.Server, error) {
	params, err := serveParams()
	if err != nil {
		return nil, err
	}
	var srv *serve.Server
	tr.do("serve.New", -1, func(int) {
		srv, err = serve.New(serve.Config{Scheme: "NO_WAIT", Workload: "ycsb", Params: &params, Cores: serveCores, Seed: seed})
	})
	if err != nil {
		return nil, err
	}
	tr.do("Start", -1, func(int) { err = srv.Start("", "127.0.0.1:0") })
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	return srv, nil
}

// serveYCSB measures a served read-mostly request: an in-process server
// on loopback, two binary connections, a light open-loop phase and a
// saturation phase.
func serveYCSB(r *run) error {
	fmt.Printf("serve-ycsb: NO_WAIT, %d workers, YCSB %d rows x 1 KB, 16 accesses, 90%% reads, theta=0.6; %d binary conns, %d outstanding each (server window %d); light phase open-loop Poisson %d req/s\n",
		serveCores, serveRows, serveConns, serveClientWindow, serve.DefaultWindow, serveLightRate)
	var setups []float64
	var srv *serve.Server
	for i := 0; i < serveSetups; i++ {
		freeMemory()
		t0 := time.Now()
		s, err := newServer(r.seed, r.tr)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < serveSetups-1 {
			if _, err := s.Shutdown(); err != nil {
				return err
			}
			continue
		}
		srv = s
	}
	fmt.Printf("setup_s (serve.New + Start): %s\n", summary(setups))
	r.e2e["setup_s"] = median(setups)

	conns := make([]client.Conn, serveConns)
	for i := range conns {
		var err error
		r.tr.do("Dial", -1, func(int) { conns[i], err = client.Dial("binary", srv.TCPAddr()) })
		if err != nil {
			srv.Shutdown()
			return err
		}
	}
	// In a traced run every other round is traced; the untraced ones
	// are the reference for the tracing overhead.
	var rs rounds
	var rtt, elapsed, overhead []float64
	for i := 0; i < roundPlan(r.seconds, serveLight, serveSat); i++ {
		var tr *tracer
		if r.traced && i%2 == 1 {
			tr = r.tr
		}
		wr := runWireRound(conns, roundSeed(r.seed, i), tr)
		rs = append(rs, wr.round)
		rtt = append(rtt, wr.rtt...)
		elapsed = append(elapsed, wr.elapsed...)
		overhead = append(overhead, wr.overhead...)
	}
	all := rs.ledger()

	r.e2e["peak_rss_mb"] = peakRSSMB() // before the traced run's probes
	var invoke openResult
	var sessCap closedResult
	if r.traced {
		sess := srv.Session()
		probe := r.seconds / 8
		root := r.tr.begin("phase:session-invoke", -1, 0)
		invoke = openLoop(poissonSchedule(roundSeed(r.seed, 0xffff), serveLightRate, probe), 1, 0, func(i int) string {
			sp := r.tr.begin("Session.Invoke", root, uint64(i)+1)
			rep, err := sess.Invoke(abyss.Invocation{})
			r.tr.end(sp)
			return sessionKind(rep, err)
		})
		r.tr.end(root)
		root = r.tr.begin("phase:session-capacity", -1, 0)
		sessCap = closedLoop(serveConns*serveClientWindow, probe, 0, func(int) string {
			sp := r.tr.begin("Session.Invoke", root, 0)
			rep, err := sess.Invoke(abyss.Invocation{})
			r.tr.end(sp)
			return sessionKind(rep, err)
		})
		r.tr.end(root)
		fmt.Printf("  direct Session.Invoke at %d/s: %s\n", serveLightRate, invoke.ledger)
		fmt.Printf("  Session.Invoke capacity: %s; %.0f txn/s\n", sessCap.ledger, sessCap.goodput())
		all.add(invoke.ledger)
		all.add(sessCap.ledger)
	}

	for _, c := range conns {
		c.Close()
	}
	var res abyss.Result
	var err error
	r.tr.do("Shutdown", -1, func(int) { res, err = srv.Shutdown() })
	if err != nil {
		return err
	}
	fmt.Printf("server: offered=%d commits=%d aborts=%d shed=%d deadlined=%d\n", res.Offered, res.Commits, res.Aborts, res.Shed, res.Deadlined)
	r.ledger.add(all)
	ops := all.attempted
	r.check("serve-ycsb client ledger closes", ops, all.check())
	r.check("serve-ycsb server ledger closes", ops, serverLedgerCheck(res.Offered, res.Commits, res.Shed, res.Deadlined))
	r.check("serve-ycsb client and server agree", ops, crossCheck(all, res))

	rs.endToEnd(r)
	r.layer["wire.rtt_p50_us"] = percentile(rtt, 0.50)
	r.layer["wire.rtt_p99_us"] = percentile(rtt, 0.99)
	r.layer["server.elapsed_p50_us"] = percentile(elapsed, 0.50)
	r.layer["server.elapsed_p99_us"] = percentile(elapsed, 0.99)
	r.layer["wire.overhead_p50_us"] = percentile(overhead, 0.50)
	r.layer["session.queue_depth_p99"] = float64(res.QueueDepth.P99())
	r.layer["session.server_shed"] = float64(res.Shed)
	rs.lateness(r)
	engineLayers(r, res)
	if r.traced {
		r.layer["codec.ns_per_op"] = codecCost(r.tr)
		r.layer["session.invoke_p50_us"] = percentile(invoke.lat, 0.50) * 1e3
		r.layer["session.capacity_tps"] = sessCap.goodput()
		capacity, err := engineCapacity(r.seed, r.seconds/8, r.tr)
		if err != nil {
			return err
		}
		r.layer["engine.capacity_tps"] = capacity
		r.layer["trace.overhead_pct"] = rs.overhead()
		fmt.Printf("attribution: engine %.0f -> session %.0f -> wire %.0f txn/s; wire overhead p50 %.1fus\n",
			capacity, sessCap.goodput(), r.e2e["goodput_tps"], r.layer["wire.overhead_p50_us"])
	}
	return nil
}

// crossCheck compares what the clients saw with the server's drained
// accounting: every request was offered, every completion committed and
// every shed the clients saw was counted by the server.
func crossCheck(l *ledger, res abyss.Result) error {
	sent := l.attempted
	shed := l.failed[failServerShed] + l.failed[failAdmissionShed]
	if res.Offered != sent || res.Commits != l.completed || res.Shed != shed || res.Deadlined != l.failed[failDeadlined] {
		return fmt.Errorf("clients sent %d, completed %d, saw %d shed and %d deadlined; server offered %d, committed %d, shed %d, deadlined %d",
			sent, l.completed, shed, l.failed[failDeadlined], res.Offered, res.Commits, res.Shed, res.Deadlined)
	}
	return nil
}

// engineLayers fills the engine accounting of a Result: the share of
// attempts that committed and each breakdown component per commit.
func engineLayers(r *run, res abyss.Result) {
	if res.Commits == 0 {
		return
	}
	r.layer["engine.commit_ratio"] = float64(res.Commits) / float64(res.Commits+res.Aborts)
	bd, err := breakdownMap(res)
	if err != nil {
		return
	}
	for _, c := range engineComponents {
		r.layer["engine."+c+"_ns_per_commit"] = float64(bd[c]) / float64(res.Commits)
	}
}

// codecCost times the binary codec on the workload's own invocation: one
// request encoded and parsed, one reply encoded and parsed.
func codecCost(tr *tracer) float64 {
	req := serve.InvokeRequest{Partition: -1}
	buf := make([]byte, 0, 64)
	var sink uint64
	sp := tr.begin("codec", -1, 0)
	t0 := time.Now()
	for i := 0; i < codecIters; i++ {
		b, err := serve.AppendRequest(buf[:0], uint64(i), req)
		if err != nil {
			panic(err)
		}
		id, _, _ := serve.ParseRequest(b)
		b = serve.AppendReply(b[:0], id, serve.WireCommitted, time.Duration(i))
		id, rep, _ := serve.ParseReply(b)
		sink += id + uint64(rep.Elapsed)
	}
	d := time.Since(t0)
	tr.end(sp)
	codecSink = sink
	return float64(d) / codecIters
}

// codecSink keeps the codec loop's results live, so the compiler cannot
// drop the calls being timed.
var codecSink uint64

// engineCapacity runs the served workload closed-loop in the engine alone
// (DB.Run on a fresh DB, no session, no wire).
func engineCapacity(seed int64, dur time.Duration, tr *tracer) (float64, error) {
	freeMemory()
	db, err := abyss.Open(abyss.Options{Runtime: abyss.RuntimeNative, Cores: serveCores, Seed: seed})
	if err != nil {
		return 0, err
	}
	params, err := serveParams()
	if err != nil {
		return 0, err
	}
	var wl abyss.Workload
	tr.do("BuildWorkload", -1, func(int) { wl, err = db.BuildWorkload("ycsb", params) })
	if err != nil {
		return 0, err
	}
	scheme, err := abyss.NewScheme("NO_WAIT")
	if err != nil {
		return 0, err
	}
	var res abyss.Result
	tr.do("Run", -1, func(int) {
		res, err = db.Run(scheme, wl, abyss.RunConfig{WarmupCycles: uint64(dur / 10), MeasureCycles: uint64(dur), AbortBackoff: 1000})
	})
	if err != nil {
		return 0, err
	}
	fmt.Printf("  engine capacity (DB.Run): commits=%d aborts=%d, %.0f txn/s\n", res.Commits, res.Aborts, res.Throughput())
	return res.Throughput(), nil
}
