package serve_test

// Wire-level conformance: mixed HTTP + binary clients against every paper
// scheme on the native runtime, asserting the serving ledger closes —
// per-connection response counts sum exactly to the drained
// Result.Commits + Shed + Deadlined. Run under -race in CI.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"abyss1000/abyss"
	"abyss1000/serve"
	"abyss1000/serve/client"
)

func startServer(t testing.TB, scheme string, cores int, sc abyss.ServeConfig, window int) *serve.Server {
	t.Helper()
	srv, err := serve.New(serve.Config{
		Scheme:   scheme,
		Workload: "ycsb",
		Cores:    cores,
		Seed:     11,
		Session:  sc,
		Window:   window,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start("127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return srv
}

// tally buckets every wire response a client saw.
type tally struct {
	committed, userAborts, deadlined, shed, other uint64
}

func (a *tally) add(b tally) {
	a.committed += b.committed
	a.userAborts += b.userAborts
	a.deadlined += b.deadlined
	a.shed += b.shed
	a.other += b.other
}

func (a *tally) observe(rep serve.InvokeReply) {
	switch rep.Outcome {
	case serve.WireCommitted:
		a.committed++
	case serve.WireUserAbort:
		a.userAborts++
	case serve.WireDeadlined:
		a.deadlined++
	case serve.WireShed:
		a.shed++
	default:
		a.other++
	}
}

func TestMixedTransportsAllSchemes(t *testing.T) {
	const conns, per = 4, 25
	for _, scheme := range abyss.PaperSchemes() {
		t.Run(scheme, func(t *testing.T) {
			srv := startServer(t, scheme, 2, abyss.ServeConfig{QueueDepth: 256}, 32)
			var (
				mu    sync.Mutex
				total tally
				wg    sync.WaitGroup
			)
			for i := 0; i < conns; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					proto, addr := "http", srv.HTTPAddr()
					if i%2 == 1 {
						proto, addr = "binary", srv.TCPAddr()
					}
					c, err := client.Dial(proto, addr)
					if err != nil {
						t.Errorf("conn %d: %v", i, err)
						return
					}
					defer c.Close()
					var local tally
					for j := 0; j < per; j++ {
						req := serve.InvokeRequest{Partition: -1}
						if j%3 == 0 {
							req.Partition = j % 2 // route a third of the stream
						}
						rep, err := c.Invoke(req)
						if err != nil {
							t.Errorf("conn %d invoke %d: %v", i, j, err)
							return
						}
						local.observe(rep)
					}
					mu.Lock()
					total.add(local)
					mu.Unlock()
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				srv.Shutdown()
				return
			}
			res, err := srv.Shutdown()
			if err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if total.other != 0 {
				t.Fatalf("unexpected outcomes: %+v", total)
			}
			responses := total.committed + total.userAborts + total.deadlined + total.shed
			if responses != conns*per {
				t.Fatalf("responses = %d, want %d", responses, conns*per)
			}
			// The ledger must close: every response the clients saw is in
			// exactly one engine counter.
			if got := res.Commits + res.Shed + res.Deadlined; got != responses {
				t.Fatalf("Commits+Shed+Deadlined = %d, want %d (%+v vs result %d/%d/%d)",
					got, responses, total, res.Commits, res.Shed, res.Deadlined)
			}
			if res.Commits != total.committed+total.userAborts {
				t.Fatalf("Result.Commits = %d, clients saw %d committed + %d user aborts",
					res.Commits, total.committed, total.userAborts)
			}
			if res.Shed != total.shed {
				t.Fatalf("Result.Shed = %d, clients saw %d shed", res.Shed, total.shed)
			}
			if res.Deadlined != total.deadlined {
				t.Fatalf("Result.Deadlined = %d, clients saw %d deadlined", res.Deadlined, total.deadlined)
			}
			if res.Offered != conns*per {
				t.Fatalf("Result.Offered = %d, want %d", res.Offered, conns*per)
			}
			// Shutdown is idempotent: same Result again.
			res2, err := srv.Shutdown()
			if err != nil || res2.Commits != res.Commits || res2.MeasureCycles != res.MeasureCycles ||
				res2.Offered != res.Offered || res2.Shed != res.Shed {
				t.Fatalf("second Shutdown diverged: %v", err)
			}
		})
	}
}

func TestWireDeadlinePropagates(t *testing.T) {
	srv := startServer(t, "NO_WAIT", 1, abyss.ServeConfig{QueueDepth: 16}, 8)
	defer srv.Shutdown()
	for _, proto := range []string{"http", "binary"} {
		addr := srv.HTTPAddr()
		if proto == "binary" {
			addr = srv.TCPAddr()
		}
		c, err := client.Dial(proto, addr)
		if err != nil {
			t.Fatalf("%s dial: %v", proto, err)
		}
		rep, err := c.Invoke(serve.InvokeRequest{Partition: -1, Deadline: time.Nanosecond})
		c.Close()
		if err != nil {
			t.Fatalf("%s invoke: %v", proto, err)
		}
		if rep.Outcome != serve.WireDeadlined {
			t.Fatalf("%s: 1ns-deadline outcome = %s, want deadlined", proto, serve.OutcomeName(rep.Outcome))
		}
	}
}

func TestStatsAndHealth(t *testing.T) {
	srv := startServer(t, "NO_WAIT", 1, abyss.ServeConfig{QueueDepth: 16}, 8)
	defer srv.Shutdown()
	c := client.DialHTTP(srv.HTTPAddr())
	if rep, err := c.Invoke(serve.InvokeRequest{Partition: -1}); err != nil || rep.Outcome != serve.WireCommitted {
		t.Fatalf("invoke = %+v, %v", rep, err)
	}
	c.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/stats", srv.HTTPAddr()))
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	var stats struct {
		Scheme   string `json:"scheme"`
		Offered  uint64 `json:"offered"`
		Draining bool   `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	resp.Body.Close()
	if stats.Scheme != "NO_WAIT" || stats.Offered != 1 || stats.Draining {
		t.Fatalf("stats = %+v", stats)
	}

	resp, err = http.Get(fmt.Sprintf("http://%s/healthz", srv.HTTPAddr()))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %v, %v", resp, err)
	}
	resp.Body.Close()
}

func TestBadRequestsRejected(t *testing.T) {
	srv := startServer(t, "NO_WAIT", 1, abyss.ServeConfig{QueueDepth: 16}, 8)
	defer srv.Shutdown()
	c, err := client.DialBinary(srv.TCPAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	rep, err := c.Invoke(serve.InvokeRequest{Proc: "no-such-proc", Partition: -1})
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if rep.Outcome != serve.WireRejected {
		t.Fatalf("unknown proc outcome = %s, want rejected", serve.OutcomeName(rep.Outcome))
	}
	// Rejections never reach the engine: the ledger stays clean.
	if got := srv.Session().Counters(); got.Offered != 0 {
		t.Fatalf("rejected request counted as offered: %+v", got)
	}
}
