package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around the call. Parent is the index of the enclosing span
// (-1 for a root); spans of one request share Req (0 when the span is not
// part of a request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req uint64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// do wraps f in a span.
func (t *tracer) do(name string, parent int, f func(id int)) {
	id := t.begin(name, parent, 0)
	f(id)
	t.end(id)
}

// layerTime is one span name's aggregate: calls, total and self time.
type layerTime struct {
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover (overlapping
// children count once; a child sticking out of its parent is clipped).
// Spans never closed are ignored.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	agg := map[string]*layerTime{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		self := d - covered(s.Start, s.End, children[i])
		a := agg[s.Name]
		if a == nil {
			a = &layerTime{Name: s.Name}
			agg[s.Name] = a
		}
		a.Calls++
		a.Total += float64(d) / 1e6
		a.Self += float64(self) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		s, e := max(v[0], cur), min(v[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write dumps every span as one JSON object per line, then the self-time
// table, to path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"self_times": selfTimes(t.spans)}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes renders the per-layer self-time table.
func printSelfTimes(spans []span) {
	fmt.Println("trace: per-layer self time (span minus its children)")
	for _, l := range selfTimes(spans) {
		fmt.Printf("  %-28s calls=%-8d total=%10.2fms self=%10.2fms\n", l.Name, l.Calls, l.Total, l.Self)
	}
}
