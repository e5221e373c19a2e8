package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"
)

type opKind int

const (
	opWrite opKind = iota
	opRead
)

// sample is one request as the load generator saw it, from send to the
// end of its answer (for a write, through every resume).
type sample struct {
	kind      opKind
	sent      time.Time
	done      time.Time
	lines     int // NDJSON lines in a write
	bytes     int // response body of a read
	ok        bool
	refusals  int // 429 and 503 answers absorbed by resuming
	transport int // transport errors
}

func (s sample) latency() time.Duration { return s.done.Sub(s.sent) }

// sleepFor blocks the calling thread in nanosleep(2). Go's timer-based
// time.Sleep rounds sub-millisecond waits up to the netpoller's
// millisecond tick, which is longer than the boot poll and the first
// resume backoff; nanosleep wakes within the kernel's timer slack.
func sleepFor(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var left syscall.Timespec
		if err := syscall.Nanosleep(&ts, &left); err != syscall.EINTR {
			return
		}
		ts = left
	}
}

// ingestReply is the part of auditd's POST /v1/events answer a resumed
// write needs.
type ingestReply struct {
	RejectedAtLine int `json:"rejected_at_line"`
}

// maxResume bounds how long one write keeps resuming through 429/503
// before it counts as failed.
const maxResume = 5 * time.Second

// lane is one connection's worth of load: it sends its requests strictly
// one after another.
type lane struct {
	client *http.Client
	base   string
	tr     *tracer
	mu     sync.Mutex
	out    []sample
	posts  int // POSTs auditd answered, each a request log line; read after the lane ends
}

func newLane(base string, tr *tracer) *lane {
	return &lane{client: newClient(), base: base, tr: tr}
}

func (l *lane) record(s sample) {
	l.mu.Lock()
	l.out = append(l.out, s)
	l.mu.Unlock()
}

func (l *lane) samples() []sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]sample(nil), l.out...)
}

// write POSTs an NDJSON body with ?wait=1 (the verdicts are visible when
// it returns), resuming at rejected_at_line through backpressure the way
// auditgen -post does.
func (l *lane) write(ctx context.Context, body []byte) (sample, error) {
	s := sample{kind: opWrite, sent: time.Now(), lines: bytes.Count(body, []byte("\n"))}
	sp := l.tr.start("http.write")
	defer func() { l.tr.end(sp) }()
	backoff := time.Millisecond
	for {
		status, reply, err := l.post(ctx, body)
		switch {
		case err != nil:
			s.transport++
		case status == http.StatusAccepted:
			s.ok, s.done = true, time.Now()
			return s, nil
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			s.refusals++
			if reply.RejectedAtLine > 1 {
				body = dropLines(body, reply.RejectedAtLine-1)
			}
		default:
			s.done = time.Now()
			return s, fmt.Errorf("POST /v1/events: status %d", status)
		}
		if time.Since(s.sent) > maxResume || ctx.Err() != nil {
			s.done = time.Now()
			return s, fmt.Errorf("POST /v1/events: no acceptance after %d refusals, %d transport errors (%v)", s.refusals, s.transport, err)
		}
		sleepFor(backoff)
		backoff = min(2*backoff, 100*time.Millisecond)
	}
}

func (l *lane) post(ctx context.Context, body []byte) (int, ingestReply, error) {
	var reply ingestReply
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, l.base+"/v1/events?wait=1", bytes.NewReader(body))
	if err != nil {
		return 0, reply, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, reply, err
	}
	defer resp.Body.Close()
	l.posts++
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, reply, err
	}
	_ = json.Unmarshal(b, &reply) // 503 while draining has a plain-text body
	return resp.StatusCode, reply, nil
}

// dropLines removes the first n lines of an NDJSON body.
func dropLines(body []byte, n int) []byte {
	for ; n > 0 && len(body) > 0; n-- {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return nil
		}
		body = body[i+1:]
	}
	return body
}

// read GETs a path; keep receives the body of a 200 answer.
func (l *lane) read(ctx context.Context, path string, keep func([]byte)) (sample, error) {
	s := sample{kind: opRead, sent: time.Now()}
	sp := l.tr.start("http.read")
	b, err := getBody(ctx, l.client, l.base+path)
	l.tr.end(sp)
	s.done = time.Now()
	if err != nil {
		s.transport++
		return s, err
	}
	s.ok, s.bytes = true, len(b)
	if keep != nil {
		keep(b)
	}
	return s, nil
}
