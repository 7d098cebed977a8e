package serve_test

// Binary-transport behaviour at the edges: a client that keeps its
// window exactly full, and a client that stops reading its replies.

import (
	"bufio"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abyss1000/abyss"
	"abyss1000/serve"
	"abyss1000/serve/client"
)

// TestFullWindowNeverSheds keeps exactly DefaultWindow requests
// outstanding on one connection, each caller sending its next request
// only after reading the previous reply. A window slot is freed before
// the reply carrying it reaches the socket, so the next request always
// finds a free slot and nothing is shed. The Go scheduler is
// oversubscribed so the host can deschedule a server goroutine at any
// point, which is what exposes a slot freed only after its reply is
// written.
func TestFullWindowNeverSheds(t *testing.T) {
	const total = 20000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4 * runtime.NumCPU()))
	srv := startServer(t, "NO_WAIT", 2, abyss.ServeConfig{QueueDepth: 2 * serve.DefaultWindow}, 0)
	c, err := client.DialBinary(srv.TCPAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var sent, shed, other atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < serve.DefaultWindow; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sent.Add(1) <= int64(total) {
				rep, err := c.Invoke(serve.InvokeRequest{Partition: -1})
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				switch rep.Outcome {
				case serve.WireCommitted, serve.WireUserAbort:
				case serve.WireShed:
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	c.Close()
	res, err := srv.Shutdown()
	if err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if shed.Load() != 0 || res.Shed != 0 {
		t.Fatalf("a full window shed %d of %d requests (Result.Shed = %d)", shed.Load(), total, res.Shed)
	}
	if other.Load() != 0 {
		t.Fatalf("%d unexpected outcomes", other.Load())
	}
	if res.Commits != uint64(total) {
		t.Fatalf("Result.Commits = %d, want %d", res.Commits, total)
	}
}

// TestShutdownWithStalledReader pipelines requests from a raw client
// with a small receive buffer that never reads a reply. Its writer
// stalls, but other connections keep getting replies, Shutdown returns
// promptly, and the drained ledger still closes.
func TestShutdownWithStalledReader(t *testing.T) {
	srv := startServer(t, "NO_WAIT", 2, abyss.ServeConfig{QueueDepth: 256}, 0)
	raw, err := net.Dial("tcp", srv.TCPAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	if err := raw.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatalf("SetReadBuffer: %v", err)
	}

	// Pipeline until the connection stops accepting bytes: the server's
	// reader is then blocked behind a writer that cannot drain.
	w := bufio.NewWriterSize(raw, 64*1024)
	stalled := false
	var frame []byte
	for id := uint64(0); !stalled && id < 1<<22; id++ {
		frame, _ = serve.AppendRequestFrame(frame[:0], id, serve.InvokeRequest{Partition: -1})
		w.Write(frame)
		if w.Buffered() < 32*1024 {
			continue
		}
		raw.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		if err := w.Flush(); err != nil {
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				t.Fatalf("raw write: %v", err)
			}
			stalled = true
		}
	}
	if !stalled {
		t.Fatal("the non-reading client never stalled")
	}

	var healthy tally
	c, err := client.DialBinary(srv.TCPAddr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for i := 0; i < 100; i++ {
		rep, err := c.Invoke(serve.InvokeRequest{Partition: -1})
		if err != nil {
			t.Fatalf("healthy connection, invoke %d: %v", i, err)
		}
		healthy.observe(rep)
	}
	c.Close()
	if healthy.committed+healthy.userAborts != 100 {
		t.Fatalf("healthy connection got %+v, want 100 commits", healthy)
	}

	type shutdown struct {
		res abyss.Result
		err error
	}
	done := make(chan shutdown, 1)
	start := time.Now()
	go func() {
		res, err := srv.Shutdown()
		done <- shutdown{res, err}
	}()
	select {
	case sd := <-done:
		if sd.err != nil {
			t.Fatalf("Shutdown: %v", sd.err)
		}
		t.Logf("Shutdown returned in %v: offered=%d commits=%d shed=%d deadlined=%d",
			time.Since(start), sd.res.Offered, sd.res.Commits, sd.res.Shed, sd.res.Deadlined)
		if got := sd.res.Commits + sd.res.Shed + sd.res.Deadlined; got != sd.res.Offered {
			t.Fatalf("ledger open: commits %d + shed %d + deadlined %d = %d, offered %d",
				sd.res.Commits, sd.res.Shed, sd.res.Deadlined, got, sd.res.Offered)
		}
		if sd.res.Shed == 0 {
			t.Fatal("the stalled connection was never shed; the test did not fill its window")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung on a client that stopped reading")
	}
}
