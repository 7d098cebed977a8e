package client

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"abyss1000/serve"
)

// echoServer answers every binary request with its deadline as the
// reply's elapsed time, replying to each batch it reads in reverse
// order, so a reply reaches the right caller only through its id.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		type req struct {
			id uint64
			dl time.Duration
		}
		var (
			buf, out []byte
			batch    []req
		)
		for {
			payload, grown, err := serve.ReadFrame(r, buf)
			if err != nil {
				return
			}
			buf = grown
			id, rq, err := serve.ParseRequest(payload)
			if err != nil {
				t.Errorf("echo server: %v", err)
				return
			}
			batch = append(batch, req{id, rq.Deadline})
			if r.Buffered() > 0 {
				continue
			}
			out = out[:0]
			for i := len(batch) - 1; i >= 0; i-- {
				out = serve.AppendReplyFrame(out, batch[i].id, serve.WireCommitted, batch[i].dl)
			}
			batch = batch[:0]
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestBinConnSharedByManyCallers has 64 goroutines share one binary
// connection; every reply must reach the caller that sent its request.
func TestBinConnSharedByManyCallers(t *testing.T) {
	c, err := DialBinary(echoServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers, per = 64, 200
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tag := time.Duration(g<<20 | (i + 1))
				rep, err := c.Invoke(serve.InvokeRequest{Partition: -1, Deadline: tag})
				if err != nil {
					t.Errorf("caller %d: %v", g, err)
					return
				}
				if rep.Outcome != serve.WireCommitted || rep.Elapsed != tag {
					t.Errorf("caller %d request %d got reply %+v, want elapsed %d", g, i, rep, tag)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// stuckConn is a net.Conn whose Write blocks until released and then
// fails; reads block until Close.
type stuckConn struct {
	net.Conn
	entered chan struct{}
	release chan struct{}
}

var errInjected = errors.New("injected write failure")

func (s *stuckConn) Write([]byte) (int, error) {
	s.entered <- struct{}{}
	<-s.release
	return 0, errInjected
}

// TestBinConnWriteErrorFailsWaiters queues callers behind a write in
// progress, fails that write, and checks every queued caller gets the
// error instead of staying blocked.
func TestBinConnWriteErrorFailsWaiters(t *testing.T) {
	end, peer := net.Pipe()
	defer peer.Close()
	sc := &stuckConn{Conn: end, entered: make(chan struct{}, 1), release: make(chan struct{})}
	c := newBinConn(sc)
	defer c.Close()

	const callers = 64
	errs := make(chan error, callers)
	invoke := func() {
		_, err := c.Invoke(serve.InvokeRequest{Partition: -1})
		errs <- err
	}
	go invoke()
	<-sc.entered // the first caller is now writing
	for i := 1; i < callers; i++ {
		go invoke()
	}
	for {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n == callers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(sc.release)
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errInjected) {
				t.Fatalf("caller got %v, want the write error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d callers still blocked after the write failed", callers-i, callers)
		}
	}
	if _, err := c.Invoke(serve.InvokeRequest{Partition: -1}); !errors.Is(err, errInjected) {
		t.Fatalf("Invoke on a failed connection = %v, want the write error", err)
	}
}
