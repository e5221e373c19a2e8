package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlightEvent is one entry in the flight recorder: a coarse pipeline
// event a crashed shard leaves behind for the post-mortem. Seq is a
// recorder-global monotonic ordering (assigned by Record); Shard is
// the originating shard, or -1 for server-level events (WAL failure,
// readiness transitions). Purpose and Outcome are set on verdict
// events only.
type FlightEvent struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Shard   int       `json:"shard"`
	Kind    string    `json:"kind"`
	Case    string    `json:"case,omitempty"`
	Purpose string    `json:"purpose,omitempty"`
	Outcome string    `json:"outcome,omitempty"`
	Detail  string    `json:"detail,omitempty"`
	N       int       `json:"n,omitempty"`
	LSN     uint64    `json:"lsn,omitempty"`
}

// Flight-event kinds. Kept as plain strings in the JSON dump so the
// format is greppable without this package.
const (
	FlightBatchFed   = "batch_fed"        // a batch finished replaying (N = entries, LSN = first)
	FlightVerdict    = "verdict"          // a case's outcome transitioned (Outcome; Detail = reason, N = entries)
	FlightHighWater  = "queue_high_water" // queue occupancy reached a new high-water mark (N = entries)
	FlightPanic      = "panic"            // shard worker panicked; Case/Detail name the poisoned entry
	FlightRestart    = "restart"          // supervisor restarted the shard worker (N = restart count)
	FlightShardFail  = "shard_failed"     // restart budget exhausted, shard is draining
	FlightWALError   = "wal_error"        // WAL append failed
	FlightLedgerErr  = "ledger_error"     // Merkle seal failed
	FlightReadiness  = "readiness"        // server readiness transitioned (Detail = ready|not_ready)
	FlightCheckpoint = "checkpoint"       // notable checkpoint event (Detail)
)

// FlightRecorder is auditd's event log: one always-on bounded ring of
// recent pipeline events per shard plus one for server-level events.
// The rings are dumped to a timestamped JSON file when something goes
// wrong (shard panic, degraded readiness, SIGQUIT), and live consumers
// (GET /v1/watch) read the same events through kind-filtered
// subscriptions. Recording is a mutex-protected ring write per *batch*
// — not per entry — so it stays far off the hot path's critical
// nanoseconds.
type FlightRecorder struct {
	rings []ring[FlightEvent]
	dir   string
	seq   atomic.Uint64
	dumps atomic.Int64

	mu       sync.Mutex // serializes dumps
	lastDump string

	// subs maps each live subscription's channel to its event kind,
	// guarded by subMu; nsubs lets Record skip the lock when there are
	// none. dropped counts events a full subscriber buffer lost.
	subMu   sync.Mutex
	subs    map[chan FlightEvent]string
	nsubs   atomic.Int32
	dropped atomic.Uint64
}

// NewFlightRecorder builds a recorder with one ring per shard plus a
// server ring, each holding up to perRing events (DefaultRingCapacity
// when perRing ≤ 0). Dumps are written under dir (os.TempDir() when
// empty).
func NewFlightRecorder(shards, perRing int, dir string) *FlightRecorder {
	if dir == "" {
		dir = os.TempDir()
	}
	f := &FlightRecorder{
		rings: make([]ring[FlightEvent], shards+1), dir: dir,
		subs: map[chan FlightEvent]string{},
	}
	for i := range f.rings {
		f.rings[i] = newRing[FlightEvent](perRing)
	}
	return f
}

// Record stores the event in the originating shard's ring (shard -1 →
// the server ring), stamping Seq and, if unset, Time, then offers it to
// every subscription for its kind without blocking. Nil-safe.
func (f *FlightRecorder) Record(shard int, ev FlightEvent) {
	if f == nil {
		return
	}
	r := &f.rings[len(f.rings)-1]
	if shard >= 0 && shard < len(f.rings)-1 {
		r = &f.rings[shard]
	}
	ev.Shard = shard
	ev.Seq = f.seq.Add(1)
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	r.push(ev)
	if f.nsubs.Load() == 0 {
		return
	}
	f.subMu.Lock()
	for ch, kind := range f.subs {
		if kind != ev.Kind {
			continue
		}
		select {
		case ch <- ev:
		default:
			f.dropped.Add(1)
		}
	}
	f.subMu.Unlock()
}

// Subscribe registers a live feed of the events of one kind, buffered
// up to buf events: when the buffer is full, Record drops the event
// (counted in SubscriptionDrops) rather than wait. cancel removes the
// subscription; the channel is never closed, so Record can never send
// on a closed channel.
func (f *FlightRecorder) Subscribe(kind string, buf int) (events <-chan FlightEvent, cancel func()) {
	ch := make(chan FlightEvent, buf)
	f.subMu.Lock()
	f.subs[ch] = kind
	f.nsubs.Store(int32(len(f.subs)))
	f.subMu.Unlock()
	return ch, func() {
		f.subMu.Lock()
		delete(f.subs, ch)
		f.nsubs.Store(int32(len(f.subs)))
		f.subMu.Unlock()
	}
}

// Subscribers reports the live subscriptions.
func (f *FlightRecorder) Subscribers() int { return int(f.nsubs.Load()) }

// SubscriptionDrops reports events lost to full subscriber buffers
// since boot.
func (f *FlightRecorder) SubscriptionDrops() uint64 { return f.dropped.Load() }

// Snapshot merges every ring's held events, ordered by Seq (oldest
// first). Nil-safe (returns nil).
func (f *FlightRecorder) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	var out []FlightEvent
	for i := range f.rings {
		out = append(out, f.rings[i].snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Stats reports events currently held across all rings, events
// recorded over the recorder's lifetime, and dumps written.
func (f *FlightRecorder) Stats() (held int, total uint64, dumps int64) {
	if f == nil {
		return 0, 0, 0
	}
	for i := range f.rings {
		n, _ := f.rings[i].stats()
		held += n
	}
	return held, f.seq.Load(), f.dumps.Load()
}

// LastDump returns the path of the most recent dump file ("" if none).
func (f *FlightRecorder) LastDump() string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastDump
}

// FlightDump is the on-disk dump format: why it was taken, when, and
// the merged event snapshot (oldest first).
type FlightDump struct {
	Reason   string        `json:"reason"`
	DumpedAt time.Time     `json:"dumped_at"`
	Events   []FlightEvent `json:"events"`
}

// Dump writes the merged snapshot to a timestamped JSON file named
// flightrec-<reason>-<unixnano>.json under the recorder's directory
// and returns its path. Nil-safe (returns "", nil).
func (f *FlightRecorder) Dump(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d := FlightDump{Reason: reason, DumpedAt: time.Now(), Events: f.Snapshot()}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	// A dump is usually written at the worst possible moment (panic,
	// SIGQUIT); a missing -flight-dir must not lose it.
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	path := filepath.Join(f.dir, fmt.Sprintf("flightrec-%s-%d.json", reason, d.DumpedAt.UnixNano()))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	f.dumps.Add(1)
	f.lastDump = path
	return path, nil
}
