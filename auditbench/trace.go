package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into auditd (an HTTP request) or into one of its layers (an in-process
// call). Spans of one request share RID; Parent links a layer call to
// the call that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	RID    int64  `json:"rid"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef is an open span; the zero value belongs to a disabled tracer.
type spanRef struct {
	id, parent, rid int64
	name            string
	start           time.Time
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing and costs one nil check per call.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens the root span of a new request, which becomes its RID.
func (t *tracer) start(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	id := t.next.Add(1)
	return spanRef{id: id, rid: id, name: name, start: time.Now()}
}

// child opens a span under an open one.
func (t *tracer) child(name string, parent spanRef) spanRef {
	if t == nil || parent.id == 0 {
		return spanRef{}
	}
	id := t.next.Add(1)
	return spanRef{id: id, parent: parent.id, rid: parent.rid, name: name, start: time.Now()}
}

func (t *tracer) end(r spanRef) {
	if t == nil || r.id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: r.id, Parent: r.parent, RID: r.rid, Name: r.name,
		Start: int64(r.start.Sub(t.t0)), End: int64(now.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// it covered by its children.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, kids[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeSpans stores the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
