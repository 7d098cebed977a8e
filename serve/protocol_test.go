package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		id   uint64
		req  InvokeRequest
	}{
		{"anonymous", 1, InvokeRequest{Partition: -1}},
		{"routed", 7, InvokeRequest{Proc: "touch", Args: []int64{3, -9, 1 << 40}, Partition: 2, Deadline: 50 * time.Millisecond}},
		{"no-args", 1 << 60, InvokeRequest{Proc: "plain", Partition: -1, Deadline: time.Second}},
		{"negative-partition-normalized", 9, InvokeRequest{Partition: -5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := AppendRequest(nil, tc.id, tc.req)
			if err != nil {
				t.Fatalf("AppendRequest: %v", err)
			}
			id, got, err := ParseRequest(payload)
			if err != nil {
				t.Fatalf("ParseRequest: %v", err)
			}
			if id != tc.id {
				t.Fatalf("id = %d, want %d", id, tc.id)
			}
			want := tc.req
			if want.Partition < 0 {
				want.Partition = -1 // any negative encodes as unrouted
			}
			if got.Proc != want.Proc || got.Partition != want.Partition || got.Deadline != want.Deadline {
				t.Fatalf("round trip = %+v, want %+v", got, want)
			}
			if len(got.Args) != len(want.Args) {
				t.Fatalf("args = %v, want %v", got.Args, want.Args)
			}
			for i := range got.Args {
				if got.Args[i] != want.Args[i] {
					t.Fatalf("args = %v, want %v", got.Args, want.Args)
				}
			}
		})
	}
}

func TestRequestBounds(t *testing.T) {
	if _, err := AppendRequest(nil, 1, InvokeRequest{Args: make([]int64, MaxArgs+1)}); err == nil {
		t.Fatal("AppendRequest accepted too many args")
	}
	if _, err := AppendRequest(nil, 1, InvokeRequest{Proc: strings.Repeat("x", MaxFrame)}); err == nil {
		t.Fatal("AppendRequest accepted an oversized procedure name")
	}
	if _, _, err := ParseRequest(make([]byte, 5)); !errors.Is(err, errShortHeader) {
		t.Fatalf("short payload error = %v, want errShortHeader", err)
	}
	// A valid header claiming more args than the payload carries.
	payload, _ := AppendRequest(nil, 1, InvokeRequest{Partition: -1, Args: []int64{1, 2}})
	if _, _, err := ParseRequest(payload[:len(payload)-8]); err == nil {
		t.Fatal("ParseRequest accepted a truncated argument list")
	}
}

func TestReplyRoundTrip(t *testing.T) {
	payload := AppendReply(nil, 42, WireDeadlined, 7*time.Millisecond)
	id, rep, err := ParseReply(payload)
	if err != nil {
		t.Fatalf("ParseReply: %v", err)
	}
	if id != 42 || rep.Outcome != WireDeadlined || rep.Elapsed != 7*time.Millisecond {
		t.Fatalf("round trip = id %d %+v", id, rep)
	}
	if _, _, err := ParseReply(payload[:10]); err == nil {
		t.Fatal("ParseReply accepted a short payload")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	reqs := []InvokeRequest{
		{Partition: -1},
		{Proc: "touch", Args: []int64{1, -2, 3}, Partition: 5, Deadline: time.Second},
		{Proc: string(bytes.Repeat([]byte{'p'}, 300)), Partition: -1},
	}
	// Frames of both kinds share one buffer, as on a live connection.
	var buf []byte
	for i, req := range reqs {
		var err error
		if buf, err = AppendRequestFrame(buf, uint64(i), req); err != nil {
			t.Fatalf("AppendRequestFrame %d: %v", i, err)
		}
		buf = AppendReplyFrame(buf, uint64(i), WireCommitted, time.Duration(i))
	}
	r := bytes.NewReader(buf)
	var scratch []byte
	for i, want := range reqs {
		payload, grown, err := ReadFrame(r, scratch)
		if err != nil {
			t.Fatalf("ReadFrame request %d: %v", i, err)
		}
		scratch = grown
		id, got, err := ParseRequest(payload)
		if err != nil || id != uint64(i) || got.Proc != want.Proc || got.Partition != want.Partition ||
			got.Deadline != want.Deadline || len(got.Args) != len(want.Args) {
			t.Fatalf("request frame %d = %d %+v, %v; want %+v", i, id, got, err, want)
		}
		payload, scratch, err = ReadFrame(r, scratch)
		if err != nil {
			t.Fatalf("ReadFrame reply %d: %v", i, err)
		}
		if id, rep, err := ParseReply(payload); err != nil || id != uint64(i) || rep.Elapsed != time.Duration(i) {
			t.Fatalf("reply frame %d = %d %+v, %v", i, id, rep, err)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d trailing bytes", r.Len())
	}
	// A failed append leaves the buffer untouched.
	before := len(buf)
	if buf, err := AppendRequestFrame(buf, 9, InvokeRequest{Args: make([]int64, MaxArgs+1)}); err == nil || len(buf) != before {
		t.Fatalf("AppendRequestFrame accepted %d args (len %d -> %d)", MaxArgs+1, before, len(buf))
	}
	// An oversized length prefix poisons the reader.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Fatal("ReadFrame accepted an oversized frame")
	}
}

func TestHTTPEncodingRoundTrip(t *testing.T) {
	body, err := EncodeHTTPRequest(InvokeRequest{Proc: "touch", Args: []int64{1}, Partition: 3, Deadline: time.Millisecond})
	if err != nil {
		t.Fatalf("EncodeHTTPRequest: %v", err)
	}
	if !bytes.Contains(body, []byte(`"partition":3`)) {
		t.Fatalf("routed body missing partition: %s", body)
	}
	body, _ = EncodeHTTPRequest(InvokeRequest{Partition: -1})
	if bytes.Contains(body, []byte("partition")) {
		t.Fatalf("unrouted body carries a partition: %s", body)
	}
	for code := WireCommitted; code <= WireClosed; code++ {
		name := OutcomeName(code)
		back, ok := OutcomeCode(name)
		if !ok || back != code {
			t.Fatalf("OutcomeCode(OutcomeName(%d)) = %d, %v", code, back, ok)
		}
	}
	rep, err := DecodeHTTPReply([]byte(`{"outcome":"shed","elapsed_ns":12}`))
	if err != nil || rep.Outcome != WireShed || rep.Elapsed != 12 {
		t.Fatalf("DecodeHTTPReply = %+v, %v", rep, err)
	}
	if _, err := DecodeHTTPReply([]byte(`{"outcome":"wat"}`)); err == nil {
		t.Fatal("DecodeHTTPReply accepted an unknown outcome")
	}
}
