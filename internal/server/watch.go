package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
)

// GET /v1/watch: a Server-Sent-Events stream of verdict transitions —
// the moment a case leaves "compliant" an event goes out, so an
// operator (or purposectl top) sees deviations as they happen instead
// of polling /v1/cases. The stream is a subscription to the flight
// recorder's verdict events: the same events a flight dump shows.
// Publishing is strictly non-blocking: the shard worker must never
// wait on a slow SSE client, so a subscriber whose buffer is full
// loses events (counted as auditd_watch_events_dropped_total) rather
// than stalling replay.

// watchEvent is one SSE payload: a case's first transition out of
// compliant, rendered from its flight-recorder verdict event.
type watchEvent struct {
	Case    string    `json:"case"`
	Purpose string    `json:"purpose,omitempty"`
	Outcome string    `json:"outcome"`
	Detail  string    `json:"detail,omitempty"`
	Entries int       `json:"entries"`
	Shard   int       `json:"shard"`
	Time    time.Time `json:"time"`
}

// watchHeartbeat keeps idle SSE connections alive through proxies and
// lets the handler notice a dead client between events.
const watchHeartbeat = 15 * time.Second

// watchBuffer is each SSE subscriber's event buffer: room for a burst
// of transitions while the handler writes the previous ones to the
// client. A subscriber that falls further behind loses events.
const watchBuffer = 64

// handleWatch streams verdict transitions as SSE. ?outcome= filters to
// one outcome (violation|indeterminate). The subscription is dropped
// the moment the client disconnects (request context), so abandoned
// watchers don't accumulate.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	outcome := r.URL.Query().Get("outcome")
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	events, cancel := s.flight.Subscribe(obs.FlightVerdict, watchBuffer)
	defer cancel()

	fmt.Fprintf(w, ": watching verdict transitions\n\n")
	fl.Flush()

	heartbeat := time.NewTicker(watchHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-events:
			if outcome != "" && ev.Outcome != outcome {
				continue
			}
			data, err := json.Marshal(watchEvent{
				Case: ev.Case, Purpose: ev.Purpose, Outcome: ev.Outcome, Detail: ev.Detail,
				Entries: ev.N, Shard: ev.Shard, Time: ev.Time,
			})
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: verdict\ndata: %s\n\n", data)
			fl.Flush()
		case <-heartbeat.C:
			fmt.Fprintf(w, ": keepalive\n\n")
			fl.Flush()
		}
	}
}
