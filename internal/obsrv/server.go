// Package obsrv is the HIPStR VM's embedded observability server: it
// exposes the telemetry subsystem over HTTP while a simulation runs —
// Prometheus exposition at /metrics, the full stats snapshot at
// /stats.json, a live server-sent-event stream of the trace ring at
// /events, the sampling profiler at /profile, /healthz, and the stdlib
// pprof handlers under /debug/pprof/ for introspecting the simulator
// itself. The server never touches VM state directly: scrapes read the
// snapshot the goroutine driving the VM last handed over (Options.Snapshot),
// and /events streams read the tracer ring through their own cursors, so a
// slow curl loses its oldest events rather than stalling translation or
// migration trap paths.
package obsrv

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"hipstr/internal/profiler"
	"hipstr/internal/telemetry"
)

// TenantInfo is one guest's scheduling summary in the fleet drill-down:
// identity, lifecycle state, and the numeric fields the host tracks per
// tenant (steps, slices, respawns, latency, ...).
type TenantInfo struct {
	ID       string             `json:"id"`
	Workload string             `json:"workload"`
	State    string             `json:"state"`
	Fields   map[string]float64 `json:"fields,omitempty"`
}

// TenantSource supplies the fleet drill-down endpoints. Implementations
// must be safe to call from HTTP handler goroutines while the fleet is
// executing (the fleet host serializes against the owning worker per
// tenant).
type TenantSource interface {
	// TenantList returns a summary of every tenant, stably ordered.
	TenantList() []TenantInfo
	// TenantSnapshot returns one tenant's summary plus its full private
	// telemetry snapshot; ok=false when the id is unknown.
	TenantSnapshot(id string) (TenantInfo, telemetry.Snapshot, bool)
}

// Options configures the endpoints. Nil fields disable their endpoints
// (404 for /profile, 503 for /metrics and /stats.json, empty stream for
// /events).
type Options struct {
	// Snapshot supplies the latest telemetry snapshot (hipstr-run passes
	// health.Monitor.Latest). ok=false means none has been taken yet.
	Snapshot func() (telemetry.Snapshot, bool)
	// Tracer, when set, feeds /events: each stream replays the buffered
	// ring as backlog on connect, then follows it live.
	Tracer *telemetry.Tracer
	// Spans, when set, serves the bounded span ring at /timeline as
	// Chrome trace-event JSON (loadable in ui.perfetto.dev).
	Spans *telemetry.SpanTracer
	// Profile supplies the live profiler report for /profile.
	Profile func() (profiler.Report, bool)
	// Tenants, when set, serves the multi-tenant fleet drill-down:
	// /tenants lists every guest's summary, /tenants/{id} adds the
	// tenant's full private telemetry snapshot.
	Tenants TenantSource
	// Health, when set, contributes a detail line to /healthz. /healthz
	// stays pure liveness: it answers 200 whenever the process can serve
	// HTTP, regardless of readiness or open incidents.
	Health func() string
	// Ready, when set, gates /readyz: the endpoint answers 200 only once
	// ready is true (e.g. after fleet prototypes are warmed), 503 with
	// the detail otherwise. Nil means always ready.
	Ready func() (ready bool, detail string)
	// History, when set, serves the health engine's rolling metric
	// history at /history (health.Monitor.HistoryHandler).
	History http.Handler
	// Incidents, when set, serves the incident flight recorder at
	// /incidents and /incidents/{id} (health.Recorder.Handler).
	Incidents http.Handler
}

// Server serves the observability endpoints on one listener.
type Server struct {
	srv    *http.Server
	ln     net.Listener
	cancel context.CancelFunc
}

// NewHandler builds the route mux, attaching the /events wake hub to
// o.Tracer when one is given.
func NewHandler(o Options) http.Handler {
	var hub *eventHub
	if o.Tracer != nil {
		hub = &eventHub{wakes: make(map[chan struct{}]struct{})}
		o.Tracer.AddSink(hub)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "hipstr observability\n\n"+
			"/metrics      Prometheus exposition\n"+
			"/stats.json   full telemetry snapshot\n"+
			"/events       live trace stream (SSE)\n"+
			"/timeline     span ring as Chrome trace JSON (ui.perfetto.dev)\n"+
			"/profile      sampling profiler (?format=folded|top|json, ?n=N)\n"+
			"/tenants      fleet drill-down (list; /tenants/{id} for one guest)\n"+
			"/history      rolling metric history (?series=a,b&points=N)\n"+
			"/incidents    incident flight recorder (list; /incidents/{id} for a bundle)\n"+
			"/healthz      liveness\n"+
			"/readyz       readiness (503 until prototypes are warmed)\n"+
			"/debug/pprof  simulator self-profiling\n")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		if o.Health != nil {
			fmt.Fprintln(w, o.Health())
		}
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if o.Ready != nil {
			if ready, detail := o.Ready(); !ready {
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, "not ready")
				if detail != "" {
					fmt.Fprintln(w, detail)
				}
				return
			} else if detail != "" {
				fmt.Fprintln(w, "ready")
				fmt.Fprintln(w, detail)
				return
			}
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/history", func(w http.ResponseWriter, r *http.Request) {
		if o.History == nil {
			http.Error(w, "health engine not attached (hipstr-fleet -health-interval 0 disables it)", http.StatusNotFound)
			return
		}
		o.History.ServeHTTP(w, r)
	})
	incidents := func(w http.ResponseWriter, r *http.Request) {
		if o.Incidents == nil {
			http.Error(w, "health engine not attached (hipstr-fleet -health-interval 0 disables it)", http.StatusNotFound)
			return
		}
		o.Incidents.ServeHTTP(w, r)
	}
	mux.HandleFunc("/incidents", incidents)
	mux.HandleFunc("/incidents/", incidents)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap, ok := latest(o)
		if !ok {
			http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.WriteProm(w)
	})
	mux.HandleFunc("/stats.json", func(w http.ResponseWriter, r *http.Request) {
		snap, ok := latest(o)
		if !ok {
			http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		snap.WriteJSON(w)
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		if o.Profile == nil {
			http.Error(w, "profiler not enabled (run with -profile-out or -profile-interval)", http.StatusNotFound)
			return
		}
		rep, ok := o.Profile()
		if !ok {
			http.Error(w, "no profile yet", http.StatusServiceUnavailable)
			return
		}
		switch r.URL.Query().Get("format") {
		case "json":
			w.Header().Set("Content-Type", "application/json")
			rep.WriteJSON(w)
		case "top":
			n, _ := strconv.Atoi(r.URL.Query().Get("n"))
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rep.WriteTop(w, n)
		default: // folded flamegraph stacks
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rep.WriteFolded(w)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		serveSSE(w, r, o.Tracer, hub)
	})
	mux.HandleFunc("/timeline", func(w http.ResponseWriter, r *http.Request) {
		if o.Spans == nil {
			http.Error(w, "span tracing not enabled (run with -timeline-out)", http.StatusNotFound)
			return
		}
		var events []telemetry.Event
		if o.Tracer != nil && r.URL.Query().Get("events") == "1" {
			events = o.Tracer.Tail(0)
		}
		w.Header().Set("Content-Type", "application/json")
		telemetry.WriteChromeTrace(w, o.Spans.Spans(), events)
	})
	mux.HandleFunc("/tenants", func(w http.ResponseWriter, r *http.Request) {
		if o.Tenants == nil {
			http.Error(w, "no fleet attached (run under hipstr-fleet)", http.StatusNotFound)
			return
		}
		list := o.Tenants.TenantList()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Count   int          `json:"count"`
			Tenants []TenantInfo `json:"tenants"`
		}{len(list), list})
	})
	mux.HandleFunc("/tenants/", func(w http.ResponseWriter, r *http.Request) {
		if o.Tenants == nil {
			http.Error(w, "no fleet attached (run under hipstr-fleet)", http.StatusNotFound)
			return
		}
		id := strings.TrimPrefix(r.URL.Path, "/tenants/")
		info, snap, ok := o.Tenants.TenantSnapshot(id)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown tenant %q", id), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Tenant  TenantInfo         `json:"tenant"`
			Metrics telemetry.Snapshot `json:"metrics"`
		}{info, snap})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func latest(o Options) (telemetry.Snapshot, bool) {
	if o.Snapshot == nil {
		return telemetry.Snapshot{}, false
	}
	return o.Snapshot()
}

// New listens on addr and returns a server ready to Serve. Pass an
// explicit port 0 to let the OS choose (Addr reports the result).
func New(addr string, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obsrv: listen %s: %w", addr, err)
	}
	h := NewHandler(o)
	// Request contexts derive from this base context so Shutdown can end
	// otherwise-unbounded SSE streams.
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			BaseContext:       func(net.Listener) context.Context { return ctx },
		},
		ln:     ln,
		cancel: cancel,
	}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve blocks serving requests until Shutdown; it returns
// http.ErrServerClosed after a graceful shutdown.
func (s *Server) Serve() error { return s.srv.Serve(s.ln) }

// Shutdown gracefully drains in-flight requests. SSE streams hold their
// connections open, so Shutdown first cancels the base context to unblock
// them.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	return s.srv.Shutdown(ctx)
}
