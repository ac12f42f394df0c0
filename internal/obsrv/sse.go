package obsrv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"hipstr/internal/telemetry"
)

// sseKeepalive is how often an idle /events stream emits a ": keepalive"
// comment so proxies and test clients don't time out half-open
// connections.
const sseKeepalive = 15 * time.Second

// eventHub wakes /events streams when the tracer emits. It is a
// telemetry.Sink, and Emit runs synchronously on the VM's trap paths, so
// it never blocks and never copies the event: each stream owns a
// capacity-1 wake channel and reads the events themselves from the tracer
// ring through its own sequence cursor.
type eventHub struct {
	mu    sync.Mutex
	wakes map[chan struct{}]struct{}
}

// Emit implements telemetry.Sink.
func (h *eventHub) Emit(telemetry.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for wake := range h.wakes {
		select {
		case wake <- struct{}{}:
		default: // a wake is already pending; that read takes this event too
		}
	}
}

func (h *eventHub) subscribe() chan struct{} {
	wake := make(chan struct{}, 1)
	h.mu.Lock()
	h.wakes[wake] = struct{}{}
	h.mu.Unlock()
	return wake
}

func (h *eventHub) unsubscribe(wake chan struct{}) {
	h.mu.Lock()
	delete(h.wakes, wake)
	h.mu.Unlock()
}

// serveSSE streams trace events off the tracer ring: the buffered events
// as backlog, then live events until the client disconnects. Frames carry
// the event sequence number as the SSE id. Events that rotate out of the
// ring before a slow stream reads them surface as one ": dropped N events"
// comment, and idle streams emit periodic ": keepalive" comments so
// half-open connections don't time out.
func serveSSE(w http.ResponseWriter, r *http.Request, tr *telemetry.Tracer, hub *eventHub) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if tr == nil {
		fmt.Fprint(w, ": no tracer attached\n\n")
		fl.Flush()
		return
	}
	// Subscribe before the first read so no emit in between goes unseen.
	wake := hub.subscribe()
	defer hub.unsubscribe(wake)
	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	// Start at the oldest buffered event: events that rotated out before
	// the client connected are history, not a gap in its stream.
	var cursor uint64
	if n, c := tr.Emitted(), uint64(tr.Cap()); n > c {
		cursor = n - c
	}
	for {
		events, dropped := tr.Since(cursor)
		cursor += dropped + uint64(len(events))
		if dropped > 0 {
			fmt.Fprintf(w, ": dropped %d events (slow consumer)\n\n", dropped)
		}
		for _, e := range events {
			if err := writeSSE(w, e); err != nil {
				return
			}
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
		}
	}
}

func writeSSE(w http.ResponseWriter, e telemetry.Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", e.Seq, data)
	return err
}
