package serve

// The wire protocol, shared by the server and the serve/client library.
//
// Two transports carry the same request/reply shapes:
//
//   - HTTP/1.1 JSON on POST /invoke — ergonomic, curl-able, one request
//     per round trip.
//   - A compact length-prefixed binary protocol on a raw TCP listener —
//     pipelined (many requests in flight per connection, correlated by
//     id), built for the load generator.
//
// Binary framing, all fields big-endian:
//
//	frame   := u32 payloadLen | payload          (payloadLen ≤ MaxFrame)
//	request := u64 id | i32 partition | u64 deadlineNs
//	           | u16 procLen | proc bytes | u16 nargs | nargs × i64
//	reply   := u64 id | u8 outcome | u64 elapsedNs
//
// A negative partition means "unrouted" (the server spreads the request
// round-robin); a zero deadline means "server default".

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"
)

// errShortHeader marks a request too short to carry even an id; the
// server cannot correlate a reply, so it drops the connection.
var errShortHeader = errors.New("serve: request payload shorter than the fixed header")

// Wire outcome codes. HTTP carries the same outcomes as strings (see
// OutcomeName); the binary reply carries the byte.
const (
	// WireCommitted: the transaction committed.
	WireCommitted byte = iota

	// WireUserAbort: program-logic rollback — completed work, counted
	// with commits.
	WireUserAbort

	// WireDeadlined: abandoned past its deadline or retry budget.
	WireDeadlined

	// WireShed: rejected by backpressure — a full admission queue or a
	// full per-connection inflight window. Never executed.
	WireShed

	// WireRejected: malformed request (unknown procedure, bad
	// arguments). Never executed.
	WireRejected

	// WireClosed: refused because the server is draining.
	WireClosed
)

// OutcomeName returns the stable string form of a wire outcome code —
// the HTTP reply's "outcome" field.
func OutcomeName(b byte) string {
	switch b {
	case WireCommitted:
		return "committed"
	case WireUserAbort:
		return "user_abort"
	case WireDeadlined:
		return "deadlined"
	case WireShed:
		return "shed"
	case WireRejected:
		return "rejected"
	case WireClosed:
		return "closed"
	default:
		return fmt.Sprintf("outcome(%d)", b)
	}
}

// OutcomeCode is the inverse of OutcomeName: it maps an HTTP reply's
// outcome string back to the wire code.
func OutcomeCode(name string) (byte, bool) {
	switch name {
	case "committed":
		return WireCommitted, true
	case "user_abort":
		return WireUserAbort, true
	case "deadlined":
		return WireDeadlined, true
	case "shed":
		return WireShed, true
	case "rejected":
		return WireRejected, true
	case "closed":
		return WireClosed, true
	default:
		return 0, false
	}
}

// MaxFrame bounds a binary frame's payload; oversized frames poison the
// connection (the reader cannot resynchronize), so both ends enforce it.
const MaxFrame = 1 << 16

// MaxArgs bounds a request's argument list.
const MaxArgs = 1024

// InvokeRequest is the transport-independent request: invoke Proc (empty
// = an anonymous workload draw) with Args, optionally routed to
// Partition (negative = unrouted), abandoned after Deadline (zero =
// server default).
type InvokeRequest struct {
	Proc      string
	Args      []int64
	Partition int
	Deadline  time.Duration
}

// InvokeReply is the transport-independent reply: the outcome code and
// the server-side latency from arrival to completion. Err carries the
// server's explanation for WireRejected.
type InvokeReply struct {
	Outcome byte
	Elapsed time.Duration
	Err     string
}

// httpRequest is the JSON body of POST /invoke. Partition is a pointer
// so an absent field means "unrouted" rather than partition 0.
type httpRequest struct {
	Proc       string  `json:"proc,omitempty"`
	Args       []int64 `json:"args,omitempty"`
	Partition  *int    `json:"partition,omitempty"`
	DeadlineNS int64   `json:"deadline_ns,omitempty"`
}

// httpReply is the JSON body of every /invoke response, success or not.
type httpReply struct {
	Outcome   string `json:"outcome"`
	ElapsedNS int64  `json:"elapsed_ns"`
	Error     string `json:"error,omitempty"`
}

// EncodeHTTPRequest renders the JSON body of POST /invoke. A negative
// partition is omitted (unrouted).
func EncodeHTTPRequest(req InvokeRequest) ([]byte, error) {
	body := httpRequest{
		Proc:       req.Proc,
		Args:       req.Args,
		DeadlineNS: int64(req.Deadline),
	}
	if req.Partition >= 0 {
		p := req.Partition
		body.Partition = &p
	}
	return json.Marshal(body)
}

// DecodeHTTPReply parses an /invoke response body back into the
// transport-independent reply.
func DecodeHTTPReply(data []byte) (InvokeReply, error) {
	var body httpReply
	if err := json.Unmarshal(data, &body); err != nil {
		return InvokeReply{}, fmt.Errorf("serve: bad /invoke reply body: %w", err)
	}
	code, ok := OutcomeCode(body.Outcome)
	if !ok {
		return InvokeReply{}, fmt.Errorf("serve: unknown outcome %q in /invoke reply", body.Outcome)
	}
	return InvokeReply{Outcome: code, Elapsed: time.Duration(body.ElapsedNS), Err: body.Error}, nil
}

// AppendRequest encodes one binary request payload (without the length
// prefix) onto buf.
func AppendRequest(buf []byte, id uint64, req InvokeRequest) ([]byte, error) {
	if len(req.Proc) > MaxFrame/2 {
		return buf, fmt.Errorf("serve: procedure name of %d bytes exceeds the frame bound", len(req.Proc))
	}
	if len(req.Args) > MaxArgs {
		return buf, fmt.Errorf("serve: %d arguments exceed the bound of %d", len(req.Args), MaxArgs)
	}
	part := int32(-1)
	if req.Partition >= 0 {
		if req.Partition > 1<<30 {
			return buf, fmt.Errorf("serve: partition %d out of range", req.Partition)
		}
		part = int32(req.Partition)
	}
	var dl uint64
	if req.Deadline > 0 {
		dl = uint64(req.Deadline)
	}
	buf = binary.BigEndian.AppendUint64(buf, id)
	buf = binary.BigEndian.AppendUint32(buf, uint32(part))
	buf = binary.BigEndian.AppendUint64(buf, dl)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(req.Proc)))
	buf = append(buf, req.Proc...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(req.Args)))
	for _, a := range req.Args {
		buf = binary.BigEndian.AppendUint64(buf, uint64(a))
	}
	return buf, nil
}

// ParseRequest decodes a binary request payload.
func ParseRequest(payload []byte) (id uint64, req InvokeRequest, err error) {
	const fixed = 8 + 4 + 8 + 2
	if len(payload) < fixed {
		return 0, req, fmt.Errorf("%w: %d bytes, want at least %d", errShortHeader, len(payload), fixed)
	}
	id = binary.BigEndian.Uint64(payload)
	part := int32(binary.BigEndian.Uint32(payload[8:]))
	dl := binary.BigEndian.Uint64(payload[12:])
	procLen := int(binary.BigEndian.Uint16(payload[20:]))
	p := fixed
	if len(payload) < p+procLen+2 {
		return 0, req, fmt.Errorf("serve: truncated request (procedure name)")
	}
	req.Proc = string(payload[p : p+procLen])
	p += procLen
	nargs := int(binary.BigEndian.Uint16(payload[p:]))
	p += 2
	if nargs > MaxArgs {
		return 0, req, fmt.Errorf("serve: %d arguments exceed the bound of %d", nargs, MaxArgs)
	}
	if len(payload) != p+8*nargs {
		return 0, req, fmt.Errorf("serve: request payload is %d bytes, want %d for %d arguments", len(payload), p+8*nargs, nargs)
	}
	if nargs > 0 {
		req.Args = make([]int64, nargs)
		for i := range req.Args {
			req.Args[i] = int64(binary.BigEndian.Uint64(payload[p+8*i:]))
		}
	}
	req.Partition = int(part)
	req.Deadline = time.Duration(dl)
	return id, req, nil
}

// AppendReply encodes one binary reply payload (without the length
// prefix) onto buf. Binary replies do not carry the rejection text — the
// outcome byte is the whole story.
func AppendReply(buf []byte, id uint64, outcome byte, elapsed time.Duration) []byte {
	buf = binary.BigEndian.AppendUint64(buf, id)
	buf = append(buf, outcome)
	var e uint64
	if elapsed > 0 {
		e = uint64(elapsed)
	}
	return binary.BigEndian.AppendUint64(buf, e)
}

// ParseReply decodes a binary reply payload.
func ParseReply(payload []byte) (id uint64, rep InvokeReply, err error) {
	if len(payload) != 8+1+8 {
		return 0, rep, fmt.Errorf("serve: reply payload is %d bytes, want 17", len(payload))
	}
	id = binary.BigEndian.Uint64(payload)
	rep.Outcome = payload[8]
	rep.Elapsed = time.Duration(binary.BigEndian.Uint64(payload[9:]))
	return id, rep, nil
}

// ReadFrame reads one length-prefixed frame into buf (grown as needed)
// and returns the payload slice, valid until the next call. The length
// prefix is read into buf too, so a reused buf makes the call
// allocation-free.
func ReadFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	if cap(buf) < 64 {
		buf = make([]byte, 64)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, buf, err
	}
	n := binary.BigEndian.Uint32(buf[:4])
	if n > MaxFrame {
		return nil, buf, fmt.Errorf("serve: frame of %d bytes exceeds the %d-byte bound", n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	return buf, buf, nil
}

// AppendRequestFrame appends one complete request frame — length
// prefix and payload — onto buf, so a connection can queue many frames
// in one buffer and hand them to the socket in a single write. On error
// buf is returned unchanged.
func AppendRequestFrame(buf []byte, id uint64, req InvokeRequest) ([]byte, error) {
	start := len(buf)
	out, err := AppendRequest(append(buf, 0, 0, 0, 0), id, req)
	if err != nil {
		return buf, err
	}
	n := len(out) - start - 4
	if n > MaxFrame {
		return buf, fmt.Errorf("serve: frame of %d bytes exceeds the %d-byte bound", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(out[start:], uint32(n))
	return out, nil
}

// AppendReplyFrame appends one complete reply frame — length prefix and
// payload — onto buf.
func AppendReplyFrame(buf []byte, id uint64, outcome byte, elapsed time.Duration) []byte {
	buf = binary.BigEndian.AppendUint32(buf, 8+1+8)
	return AppendReply(buf, id, outcome, elapsed)
}
