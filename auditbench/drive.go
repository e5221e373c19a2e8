package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// laneLoad is what one connection sends, closed loop: either every
// pre-generated body, one after another, or reads one after another
// until the window closes. A reader that waits out an interval between
// reads lets the VM's vCPUs idle, and each read then pays their wake-up,
// which on a shared host moves with the neighbours' load; back to back,
// a read's latency is the server's answer time.
type laneLoad struct {
	l *lane
	// body returns the next write (nil when none is left) and a hook to
	// run once it is accepted.
	body func() ([]byte, func())
	// read returns the next read's path and what to do with its answer;
	// false when there is nothing to ask for.
	read   func() (string, func([]byte), bool)
	failed int
}

// run sends the lane's requests. A writer sends every body, whatever
// the window; a reader sends reads until end.
func (ll *laneLoad) run(ctx context.Context, end time.Time) {
	for ctx.Err() == nil {
		if ll.body != nil {
			body, accepted := ll.body()
			if body == nil {
				return
			}
			s, err := ll.l.write(ctx, body)
			ll.l.record(s)
			if err != nil {
				ll.failed++
				continue
			}
			if accepted != nil {
				accepted()
			}
			continue
		}
		if !time.Now().Before(end) {
			return
		}
		path, keep, ok := ll.read()
		if !ok {
			return
		}
		s, err := ll.l.read(ctx, path, keep)
		ll.l.record(s)
		if err != nil {
			ll.failed++
		}
	}
}

// runLanes runs the loads concurrently until end and returns the number
// of requests that failed.
func runLanes(ctx context.Context, end time.Time, loads ...*laneLoad) int {
	var wg sync.WaitGroup
	for _, ll := range loads {
		wg.Add(1)
		go func(ll *laneLoad) {
			defer wg.Done()
			ll.run(ctx, end)
		}(ll)
	}
	wg.Wait()
	failed := 0
	for _, ll := range loads {
		failed += ll.failed
	}
	return failed
}

// picker draws proof targets from the newest proofPool completed cases
// the importer has had accepted.
type picker struct {
	mu    sync.Mutex
	rng   *rand.Rand
	cases []*sentCase
}

func newPicker(seed int64) *picker {
	return &picker{rng: rand.New(rand.NewSource(seed))}
}

func (p *picker) add(cases ...*sentCase) {
	p.mu.Lock()
	p.cases = append(p.cases, cases...)
	p.mu.Unlock()
}

func (p *picker) pick() (*sentCase, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.cases) == 0 {
		return nil, false
	}
	lo := max(0, len(p.cases)-proofPool)
	return p.cases[lo+p.rng.Intn(len(p.cases)-lo)], true
}

// importer sends pre-generated bodies one after another; the cases a
// body completes become proof targets once it is accepted.
func importer(l *lane, bodies []batch, done *picker, entries *int) *laneLoad {
	i := 0
	return &laneLoad{l: l, body: func() ([]byte, func()) {
		if i == len(bodies) {
			return nil, nil
		}
		b := bodies[i]
		i++
		return b.body, func() {
			*entries += b.lines
			done.add(b.completed...)
		}
	}}
}
