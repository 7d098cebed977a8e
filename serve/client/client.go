// Package client is the Go client for an abyss-serve front door: single
// connections over either transport (Dial), and an open-loop remote load
// generator (Run) that offers Poisson/MMPP arrivals over the wire and
// reports offered-vs-goodput with wire-latency histograms.
package client

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"abyss1000/serve"
)

// Conn is one client connection to a server, over either transport.
// Invoke blocks until the reply arrives; binary connections multiplex, so
// many goroutines may Invoke concurrently on one Conn.
type Conn interface {
	// Invoke sends one request and waits for its reply. The error is
	// transport-level only — backpressure outcomes (shed, closed,
	// rejected) come back in the reply.
	Invoke(req serve.InvokeRequest) (serve.InvokeReply, error)

	// Close releases the connection; pending binary invocations fail.
	Close() error
}

// Dial opens one connection: proto is "http" or "binary".
func Dial(proto, addr string) (Conn, error) {
	switch proto {
	case "http":
		return DialHTTP(addr), nil
	case "binary":
		return DialBinary(addr)
	default:
		return nil, fmt.Errorf("client: unknown protocol %q (want \"http\" or \"binary\")", proto)
	}
}

// httpConn serves invocations over HTTP/1.1 JSON. Each httpConn owns its
// transport, capped at one TCP connection, so N httpConns model N real
// connections against the server's per-connection windows.
type httpConn struct {
	url    string
	client *http.Client
}

// DialHTTP prepares an HTTP connection to addr (host:port). The TCP
// connection itself is established lazily by the first Invoke.
func DialHTTP(addr string) Conn {
	t := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     90 * time.Second,
	}
	return &httpConn{
		url:    "http://" + addr + "/invoke",
		client: &http.Client{Transport: t},
	}
}

func (c *httpConn) Invoke(req serve.InvokeRequest) (serve.InvokeReply, error) {
	body, err := serve.EncodeHTTPRequest(req)
	if err != nil {
		return serve.InvokeReply{}, err
	}
	resp, err := c.client.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.InvokeReply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, serve.MaxFrame))
	if err != nil {
		return serve.InvokeReply{}, err
	}
	return serve.DecodeHTTPReply(data)
}

func (c *httpConn) Close() error {
	c.client.CloseIdleConnections()
	return nil
}

// binConn is one pipelined binary connection: requests carry ids, a
// single reader goroutine demultiplexes replies to their waiters.
//
// Writes combine: each Invoke frames its request into the shared out
// buffer, and the first caller that finds no write in progress becomes
// the writer. It hands everything queued to the socket in one Write,
// and keeps writing while other callers append during the syscall — so
// many concurrent callers pay for one syscall, not one each.
type binConn struct {
	conn  net.Conn
	calls sync.Pool // of chan result, each reused once its reply is read

	mu      sync.Mutex
	nextID  uint64
	out     []byte // framed requests not yet handed to the socket
	spare   []byte // the other buffer, reused by the next swap
	writing bool   // a caller is writing out; it will take what is appended meanwhile
	pending map[uint64]chan result
	err     error // first transport error; every later Invoke fails with it
	closed  bool
}

// result is one waiter's answer: a reply, or the transport error.
type result struct {
	rep serve.InvokeReply
	err error
}

// DialBinary opens one binary-protocol connection.
func DialBinary(addr string) (Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newBinConn(conn), nil
}

func newBinConn(conn net.Conn) *binConn {
	c := &binConn{conn: conn, pending: make(map[uint64]chan result)}
	c.calls.New = func() any { return make(chan result, 1) }
	go c.readLoop()
	return c
}

// readLoop demultiplexes reply frames until the connection dies, then
// fails every waiter.
func (c *binConn) readLoop() {
	r := bufio.NewReaderSize(c.conn, 32*1024)
	var buf []byte
	for {
		payload, grown, err := serve.ReadFrame(r, buf)
		if err != nil {
			c.fail(err)
			return
		}
		buf = grown
		id, rep, err := serve.ParseReply(payload)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ok {
			ch <- result{rep: rep} // buffered; never blocks
		}
	}
}

// fail poisons the connection: records the first error and answers
// every pending waiter with it.
func (c *binConn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(err)
}

func (c *binConn) failLocked(err error) {
	if c.err == nil {
		if c.closed {
			err = fmt.Errorf("client: connection closed")
		}
		c.err = err
	}
	for id, ch := range c.pending {
		ch <- result{err: c.err}
		delete(c.pending, id)
	}
}

func (c *binConn) Invoke(req serve.InvokeRequest) (serve.InvokeReply, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return serve.InvokeReply{}, err
	}
	id := c.nextID + 1
	out, err := serve.AppendRequestFrame(c.out, id, req)
	if err != nil {
		c.mu.Unlock()
		return serve.InvokeReply{}, err
	}
	c.nextID, c.out = id, out
	ch := c.calls.Get().(chan result)
	c.pending[id] = ch
	if !c.writing {
		c.writing = true
		for len(c.out) > 0 && c.err == nil {
			batch := c.out
			c.out, c.spare = c.spare[:0], nil
			c.mu.Unlock()
			_, werr := c.conn.Write(batch)
			c.mu.Lock()
			c.spare = batch
			if werr != nil {
				c.failLocked(werr)
			}
		}
		c.writing = false
	}
	c.mu.Unlock()

	r := <-ch
	c.calls.Put(ch)
	return r.rep, r.err
}

func (c *binConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}
