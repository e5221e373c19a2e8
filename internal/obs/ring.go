package obs

import "sync"

// DefaultRingCapacity is the capacity of auditd's bounded rings: the
// span ring behind /v1/traces and each flight-recorder ring. NewRing
// and NewFlightRecorder use it when asked for a non-positive capacity.
const DefaultRingCapacity = 256

// ring is the one bounded buffer in this package: the newest items
// win, memory stays bounded, and a snapshot is a copy. It backs Ring
// (spans) and every flight-recorder ring (events). Safe for concurrent
// use.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int    // write cursor
	n     int    // items currently held (≤ len(buf))
	total uint64 // items pushed over the ring's lifetime
}

func newRing[T any](capacity int) ring[T] {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return ring[T]{buf: make([]T, capacity)}
}

// push stores v, evicting the oldest item when full.
func (r *ring[T]) push(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.total++
	r.mu.Unlock()
}

// snapshot copies the held items, oldest first.
func (r *ring[T]) snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, r.n)
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// stats reports the items currently held and pushed over the ring's
// lifetime (the difference is what eviction dropped).
func (r *ring[T]) stats() (held int, total uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n, r.total
}

// Ring is the span recorder behind auditd's GET /v1/traces.
type Ring struct{ r ring[Span] }

// NewRing builds a ring holding up to capacity spans.
func NewRing(capacity int) *Ring { return &Ring{r: newRing[Span](capacity)} }

// Record stores the span, evicting the oldest when full.
func (r *Ring) Record(s Span) { r.r.push(s) }

// Snapshot copies the held spans, oldest first.
func (r *Ring) Snapshot() []Span { return r.r.snapshot() }

// Stats reports spans currently held and recorded over the ring's
// lifetime (the difference is what eviction dropped).
func (r *Ring) Stats() (held int, total uint64) { return r.r.stats() }

// Dropped reports spans evicted by overflow (exported as
// auditd_trace_spans_dropped_total).
func (r *Ring) Dropped() uint64 {
	held, total := r.r.stats()
	return total - uint64(held)
}
