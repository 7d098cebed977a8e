package serve

// The binary TCP transport: length-prefixed frames (see protocol.go),
// pipelined — a client may keep many requests in flight per connection,
// correlated by request id. Replies are written as invocations
// complete, so they can arrive out of order relative to requests; ids
// are the correlation.
//
// Each connection runs two goroutines. The reader decodes requests,
// enforces the window and hands admitted ones to Session.Submit; it
// spawns nothing per request. Completions run on the engine's serving
// workers, so they make no syscall: they append the framed reply to the
// connection's pending buffer and wake the writer. The writer swaps the
// buffer out and hands every reply queued so far to the socket in one
// Write — group commit applied to the socket.
//
// The per-connection window is enforced here: a request arriving with
// Window requests already outstanding is answered WireShed at once, and
// the engine never sees it. An admitted request holds its window slot
// until the writer takes its reply, and the writer frees the slots of a
// batch before writing it, so a client that sends its next request only
// after reading a reply always finds a free slot. Replies queued per
// connection are therefore bounded by 2×Window: up to Window in the
// batch being written, up to Window more pending. Replies that hold no
// slot (shed, rejected, closed) are bounded by pendingCap: past it, the
// reader waits for the writer before reading further requests.

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"abyss1000/abyss"
)

// pendingCap bounds the pending reply bytes the reader may add without
// a window slot (shed, rejected and closed replies) before it waits for
// the writer to take the batch.
const pendingCap = 64 * 1024

// flushTimeout bounds Shutdown's final flush to a client that stopped
// reading its replies.
const flushTimeout = time.Second

// connState is one live binary connection.
type connState struct {
	conn  net.Conn
	win   *window       // admitted requests whose replies the writer has not taken
	wake  chan struct{} // capacity 1: pending has new replies
	rdone chan struct{} // closed when the reader exits

	mu      sync.Mutex
	taken   sync.Cond // broadcast when the writer takes a batch or exits
	pending []byte    // framed replies not yet taken by the writer
	held    int64     // window slots held by replies in pending
	dead    bool      // the connection is closed; replies are dropped
}

func newConnState(conn net.Conn, limit int) *connState {
	c := &connState{
		conn:  conn,
		win:   newWindow(limit),
		wake:  make(chan struct{}, 1),
		rdone: make(chan struct{}),
	}
	c.taken.L = &c.mu
	return c
}

// close closes the socket, which ends both goroutines, and drops every
// later reply.
func (c *connState) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dead {
		c.dead = true
		c.conn.Close()
		c.taken.Broadcast()
	}
}

// push queues one framed reply for the writer; slot marks a reply that
// holds a window slot. It makes no syscall, so engine workers may call
// it.
func (c *connState) push(id uint64, rep InvokeReply, slot bool) {
	c.mu.Lock()
	if !c.dead {
		c.pending = AppendReplyFrame(c.pending, id, rep.Outcome, rep.Elapsed)
		if slot {
			c.held++
		}
	}
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// answerNow queues a reply the reader gives without the engine (shed,
// rejected, closed), which holds no window slot, then waits while the
// pending buffer is over pendingCap — the backpressure that stops a
// client which never reads from growing it without bound.
func (c *connState) answerNow(id uint64, outcome byte) {
	c.push(id, InvokeReply{Outcome: outcome}, false)
	c.mu.Lock()
	for len(c.pending) > pendingCap && !c.dead {
		c.taken.Wait()
	}
	c.mu.Unlock()
}

// writeLoop is the connection's only socket writer. Each pass takes
// every queued reply, frees the window slots they held and writes them
// in one syscall. After the reader exits it keeps flushing until every
// admitted request has been answered, then closes the connection.
func (c *connState) writeLoop() {
	defer c.close()
	var spare []byte
	rdone := c.rdone
	for {
		select {
		case <-c.wake:
		case <-rdone:
			rdone = nil
		}
		c.mu.Lock()
		if c.dead {
			c.mu.Unlock()
			return
		}
		batch, held := c.pending, c.held
		c.pending, c.held = spare[:0], 0
		c.taken.Broadcast()
		c.mu.Unlock()
		c.win.release(held)
		if len(batch) > 0 {
			if _, err := c.conn.Write(batch); err != nil {
				return // the reader fails on its next read
			}
		}
		spare = batch
		if rdone == nil && c.win.n.Load() == 0 {
			return
		}
	}
}

func (s *Server) startTCP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.tcpLn = ln
	s.connWG.Add(1)
	go s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.connWG.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed: draining
		}
		// Under the admission lock, so Shutdown either sees this
		// connection in conns or this loop sees draining.
		s.admit.RLock()
		if s.draining.Load() {
			s.admit.RUnlock()
			conn.Close()
			continue
		}
		c := newConnState(conn, s.window)
		s.conns.Store(c, struct{}{})
		s.connWG.Add(2)
		s.admit.RUnlock()
		go func() {
			defer s.connWG.Done()
			defer s.conns.Delete(c)
			c.writeLoop()
		}()
		go s.serveConn(c)
	}
}

// serveConn is one connection's reader loop: decode frames, enforce the
// window, and submit admitted requests to the session. The reply is
// pushed to the writer by the session's completion callback.
func (s *Server) serveConn(c *connState) {
	defer s.connWG.Done()
	defer close(c.rdone)
	r := bufio.NewReaderSize(c.conn, 32*1024)
	var buf []byte
	for {
		payload, grown, err := ReadFrame(r, buf)
		if err != nil {
			return // EOF, connection reset, or an unframeable stream
		}
		buf = grown
		id, req, err := ParseRequest(payload)
		if err != nil {
			if errors.Is(err, errShortHeader) {
				c.close() // cannot even correlate a reply; drop the conn
				return
			}
			c.answerNow(id, WireRejected)
			continue
		}
		if !c.win.tryAcquire() {
			// Wire-level backpressure: the window is the client's credit;
			// exceeding it is shed before the engine is touched.
			s.session.NoteShed(1)
			c.answerNow(id, WireShed)
			continue
		}
		s.admit.RLock()
		if s.draining.Load() {
			s.admit.RUnlock()
			c.win.release(1)
			c.answerNow(id, WireClosed)
			continue
		}
		s.inflight.Add(1)
		s.admit.RUnlock()
		err = s.session.Submit(invocation(req), func(rep abyss.Reply, err error) {
			c.push(id, reply(rep, err), true)
			s.inflight.Done()
		})
		if err != nil {
			c.push(id, reply(abyss.Reply{}, err), true)
			s.inflight.Done()
		}
	}
}
