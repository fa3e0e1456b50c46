// Package server exposes continuous copy detection as an HTTP service —
// the deployable face of the VDSMS (the paper built its techniques into
// the PIPA media-management system; this is the equivalent service
// surface, stdlib-only).
//
//	PUT    /queries/{id}   body: MVC1 clip     → subscribe a query
//	DELETE /queries/{id}                       → unsubscribe
//	GET    /queries                            → JSON list of ids
//	POST   /streams/{name} body: MVC1 stream   → NDJSON matches, streamed
//	POST   /streams        {"id": "..."}       → attach a long-lived fleet stream
//	POST   /streams/{id}/frames                → push an MVC1 segment (429 on backpressure)
//	GET    /streams/{id}/stats                 → per-stream counters
//	GET    /streams/{id}/matches               → matches reported so far
//	DELETE /streams/{id}                       → detach (drained unless ?drain=false)
//	GET    /streams                            → attached stream ids
//	GET    /stats                              → JSON service counters
//	GET    /metrics                            → Prometheus text exposition
//	GET    /healthz                            → liveness (always 200)
//	GET    /readyz                             → readiness (200 once restore-on-boot completed;
//	                                             503 while shedding at the maximum level)
//	POST   /snapshot                           → checkpoint service state now
//	GET    /debug/events                       → candidate-lifecycle event journal (filterable)
//	GET    /debug/matches[/{id}]               → match provenance (explain) records
//	GET/POST /debug/slow-window                → read / retune the slow-window budget live
//	GET/POST /debug/spans                      → sampled per-window span records (NDJSON) /
//	                                             retune span sampling live
//	GET    /debug/fleet/top                    → slowest / most-shed / most-backpressured
//	                                             streams (bounded top-K)
//	/debug/pprof/*                             → profiling (opt-in via Options.EnablePprof)
//
// Every stream POST gets its own detection engine; all engines share one
// query set and Hash-Query index, so a subscription covers every stream,
// and concurrent stream uploads monitor in parallel. They form one
// detector lineage (Lineage), which owns the service's diagnostics: the
// trace journal behind /debug/events and /debug/matches, and the span
// collector and outlier sketches behind /debug/spans, /debug/fleet/top
// and /stats "perf". Only /metrics reads the process-wide registry.
//
// /metrics, /healthz and /readyz are wait-free: they read atomics only and
// never take the subscription mutex, so a durable subscription change
// (which fsyncs its log record under that mutex) or a busy monitor loop
// can never stall a scrape or a health probe. /stats is nearly so — it
// additionally takes the overload controller's and the span collector's
// short internal locks (never the subscription mutex).
//
// When the detection configuration arms the overload controller
// (Config.RealTimeBudget), every per-stream engine feeds the shared control
// loop, /stats grows a "shed" block, and /readyz degrades to 503 while the
// service sheds at the maximum level — the back-pressure signal that tells
// a load balancer to route new streams elsewhere until the overload clears.
//
// With Config.CheckpointDir set, New resumes from an existing checkpoint
// and its write-ahead log (restoring the subscription set), every
// subscription change is logged and synced before it takes effect — one
// small record, with a full checkpoint only once the log has outgrown the
// last — and POST /snapshot or Checkpoint persist state on demand, the hook
// vcdserve uses for its SIGTERM handoff.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"vdsms"
	"vdsms/internal/degrade"
	"vdsms/internal/telemetry"
)

// Service-level metrics in the process-wide registry (rendered by
// GET /metrics alongside the engine and durability series).
var (
	telStreamsActive = telemetry.Default.Gauge("vcd_streams_active",
		"Streams currently being monitored.")
	telStreamsServed = telemetry.Default.Counter("vcd_streams_served_total",
		"Stream uploads accepted over the service lifetime.")
	telStreamsRejected = telemetry.Default.Counter("vcd_streams_rejected_total",
		"Stream attach or ingest requests rejected (admission control, duplicate ids, backpressure).")
	telQueries = telemetry.Default.Gauge("vcd_queries",
		"Currently subscribed continuous queries.")
)

// Server is the HTTP copy-detection service. Create with New, mount via
// Handler.
type Server struct {
	root     *vdsms.Detector // owns the shared query set; never monitors
	fleet    *vdsms.Fleet    // attached-stream pool; shares root's query set
	restored bool            // whether New resumed from a checkpoint
	pprof    bool            // mount /debug/pprof/*

	mu      sync.Mutex // serialises subscription changes and checkpoints
	ready   atomic.Bool
	queries atomic.Int64 // subscription count, maintained under mu
	streams atomic.Int64
	active  atomic.Int64 // streams currently monitoring
	matches atomic.Int64
	frames  atomic.Int64
	// compared accumulates the similarity evaluations performed across
	// all served streams.
	compared atomic.Int64
	// Per-stream overload counters, folded in as each stream completes
	// (the per-stream detectors own the live values; the control loop
	// itself is shared through s.root).
	extractShed  atomic.Int64
	decodeShed   atomic.Int64
	resyncs      atomic.Int64
	corruptFrame atomic.Int64
	truncated    atomic.Int64
	readRetries  atomic.Int64
}

// Options tunes the service surface beyond the detection configuration.
type Options struct {
	// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/.
	// Off by default: profiling endpoints expose internals and cost CPU,
	// so production deployments opt in explicitly.
	EnablePprof bool
	// Fleet tunes the attached-stream pool behind POST /streams (worker
	// count, admission limit, per-stream queue budget). The zero value is
	// serviceable: GOMAXPROCS workers, unlimited streams, 8-window queues.
	Fleet vdsms.FleetConfig
}

// New builds a server with the given detection configuration. When
// cfg.CheckpointDir is set and holds a checkpoint, the subscription set is
// restored from it (Restored reports whether that happened). The server is
// ready (GET /readyz → 200) once New returns.
func New(cfg vdsms.Config) (*Server, error) { return NewWithOptions(cfg, Options{}) }

// NewWithOptions is New with service options.
func NewWithOptions(cfg vdsms.Config, opts Options) (*Server, error) {
	var det *vdsms.Detector
	var restored bool
	var err error
	if cfg.CheckpointDir != "" {
		det, restored, err = vdsms.Resume(cfg)
	} else {
		det, err = vdsms.NewDetector(cfg)
	}
	if err != nil {
		return nil, err
	}
	fl, err := det.NewFleet(opts.Fleet)
	if err != nil {
		return nil, err
	}
	s := &Server{
		root: det, fleet: fl, restored: restored, pprof: opts.EnablePprof,
	}
	s.setQueries(det.NumQueries())
	// Restore-on-boot (the Resume above) has completed: the service may
	// accept traffic. Until this store, GET /readyz reports 503.
	s.ready.Store(true)
	return s, nil
}

// Lineage returns the detector that roots the service's lineage: it owns
// the query set, the trace journal and the span collector every stream of
// the service shares, and never monitors itself.
func (s *Server) Lineage() *vdsms.Detector { return s.root }

// Restored reports whether New resumed the query set from a checkpoint.
func (s *Server) Restored() bool { return s.restored }

// setQueries refreshes the wait-free subscription count; callers hold mu
// (or are still single-goroutine, as in NewWithOptions).
func (s *Server) setQueries(n int) {
	s.queries.Store(int64(n))
	telQueries.Set(float64(n))
}

// NumQueries returns the current subscription count. Wait-free: reads the
// count maintained under the subscription mutex rather than taking it.
func (s *Server) NumQueries() int { return int(s.queries.Load()) }

// Checkpoint persists the service state (the shared query set) to the
// configured checkpoint directory — the graceful-shutdown hook.
func (s *Server) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root.Checkpoint()
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/queries", s.handleQueries)
	mux.HandleFunc("/queries/", s.handleQuery)
	mux.HandleFunc("/streams", s.handleFleet)
	mux.HandleFunc("/streams/", s.handleStream)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.Handle("/metrics", telemetry.Handler(telemetry.Default))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/events", s.handleDebugEvents)
	mux.HandleFunc("/debug/matches", s.handleDebugMatches)
	mux.HandleFunc("/debug/matches/", s.handleDebugMatches)
	mux.HandleFunc("/debug/slow-window", s.handleSlowWindow)
	mux.HandleFunc("/debug/spans", s.handleDebugSpans)
	mux.HandleFunc("/debug/fleet/top", s.handleFleetTop)
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleHealthz is the liveness probe: the process is serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, map[string]any{"ok": true})
}

// handleReadyz is the readiness probe: 200 only once restore-on-boot has
// completed and the service can accept subscriptions and streams.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.ready.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"ready": false})
		return
	}
	// Shedding at the maximum level means the service is dropping as much
	// work as it is allowed to and still missing its budget: report
	// not-ready so orchestrators stop routing new streams here. Existing
	// streams keep being served (degraded). Wait-free: ShedLevel is an
	// atomic read.
	if lvl := s.root.ShedLevel(); lvl >= degrade.MaxLevel {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"ready": false, "overloaded": true, "shedLevel": lvl,
		})
		return
	}
	writeJSON(w, map[string]any{"ready": true, "restored": s.restored})
}

// handleSnapshot checkpoints the service state on demand.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !s.root.CheckpointingEnabled() {
		http.Error(w, "checkpointing disabled: start the service with a checkpoint directory",
			http.StatusServiceUnavailable)
		return
	}
	if err := s.Checkpoint(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{"checkpointed": true, "queries": s.NumQueries()})
}

// handleQueries lists subscribed query ids.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, map[string]any{"queries": s.NumQueries()})
}

// handleQuery subscribes (PUT) or unsubscribes (DELETE) one query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/queries/"))
	if err != nil || id <= 0 {
		http.Error(w, "query id must be a positive integer", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodPut:
		s.mu.Lock()
		err := s.root.AddQuery(id, r.Body)
		s.setQueries(s.root.NumQueries())
		s.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]any{"subscribed": id})
	case http.MethodDelete:
		s.mu.Lock()
		err := s.root.RemoveQuery(id)
		s.setQueries(s.root.NumQueries())
		s.mu.Unlock()
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		writeJSON(w, map[string]any{"unsubscribed": id})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// matchEvent is one NDJSON line of a stream response.
type matchEvent struct {
	Query      int     `json:"query"`
	DetectedAt float64 `json:"detectedAt"` // seconds of stream time
	Start      float64 `json:"start"`
	End        float64 `json:"end"`
	Similarity float64 `json:"similarity"`
}

// streamSummary is the final NDJSON line of a stream response. Compared
// counts the similarity evaluations the stream's matching performed.
type streamSummary struct {
	Done     bool   `json:"done"`
	Stream   string `json:"stream"`
	Frames   int    `json:"frames"`
	Windows  int    `json:"windows"`
	Matches  int    `json:"matches"`
	Compared int64  `json:"compared"`
	Error    string `json:"error,omitempty"`
}

// handleStream routes everything under /streams/: the legacy one-shot
// upload (POST /streams/{name} with an MVC1 body → NDJSON matches) and the
// per-stream fleet surface (frames, stats, matches, DELETE) — see fleet.go.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/streams/")
	if id, sub, ok := strings.Cut(rest, "/"); ok {
		s.handleFleetStream(w, r, id, sub)
		return
	}
	if r.Method == http.MethodDelete {
		s.handleFleetDetach(w, r, rest)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	name := rest
	if name == "" {
		http.Error(w, "stream name required", http.StatusBadRequest)
		return
	}
	det, err := s.root.NewStreamNamed(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.streams.Add(1)
	s.active.Add(1)
	telStreamsServed.Inc()
	telStreamsActive.Inc()
	defer func() {
		s.active.Add(-1)
		telStreamsActive.Dec()
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	// Matches are written while the request body is still being consumed;
	// HTTP/1.x needs explicit full-duplex for that. Errors (e.g. HTTP/2,
	// where duplex is the default) are ignored.
	_ = http.NewResponseController(w).EnableFullDuplex()
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	det.OnMatch = func(m vdsms.Match) {
		s.matches.Add(1)
		enc.Encode(matchEvent{
			Query:      m.QueryID,
			DetectedAt: m.DetectedAt.Seconds(),
			Start:      m.Start.Seconds(),
			End:        m.End.Seconds(),
			Similarity: m.Similarity,
		})
		if flusher != nil {
			flusher.Flush()
		}
	}
	_, merr := det.MonitorContext(r.Context(), r.Body)
	// With full duplex the handler owns body consumption: drain whatever a
	// failed or short monitor left behind, or the connection goroutine
	// races on the half-read body after the handler returns.
	io.Copy(io.Discard, r.Body)
	st := det.Stats()
	s.frames.Add(int64(st.Frames))
	ov := det.Overload()
	s.extractShed.Add(ov.ExtractShed)
	s.decodeShed.Add(ov.DecodeShed)
	s.resyncs.Add(ov.Resyncs)
	s.corruptFrame.Add(ov.CorruptFrames)
	s.truncated.Add(ov.Truncated)
	s.readRetries.Add(ov.ReadRetries)
	s.compared.Add(st.Compared)
	sum := streamSummary{
		Done: true, Stream: name,
		Frames: st.Frames, Windows: st.Windows, Matches: st.Matches,
		Compared: st.Compared,
	}
	if merr != nil {
		sum.Error = merr.Error()
	}
	enc.Encode(sum)
}

// handleStats reports service-level counters as a point-in-time snapshot.
// It never takes the subscription mutex — a concurrent monitor loop,
// subscription change or checkpoint fsync cannot stall it — though the
// shed block snapshots the overload controller under its own short lock
// (each field is individually consistent; the set is a best-effort
// snapshot, as with any lock-free multi-counter read).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	ov := s.root.Overload()
	ready, queuedFrames := s.fleet.Backlog()
	writeJSON(w, map[string]any{
		"queries":        s.NumQueries(),
		"streamsServed":  s.streams.Load(),
		"streamsActive":  s.active.Load(),
		"matchesEmitted": s.matches.Load(),
		"framesDecoded":  s.frames.Load(),
		"compared":       s.compared.Load(),
		"checkpointing":  s.root.CheckpointingEnabled(),
		"tracing":        s.root.Tracing(),
		"slowWindow":     s.root.SlowWindowBudget().String(),
		"fleet": map[string]any{
			"streams":      s.fleet.Len(),
			"planeBytes":   s.fleet.PlaneBytes(),
			"queueDepthHW": s.fleet.QueueDepthHW(),
			"ready":        ready,
			"queuedFrames": queuedFrames,
			"workers":      s.fleet.WorkerStats(),
		},
		"perf": s.perfStatsBlock(),
		"shed": map[string]any{
			"armed":       ov.Armed,
			"level":       ov.Level,
			"maxLevel":    ov.MaxLevel,
			"budget":      ov.Budget.String(),
			"ringP99":     ov.RingP99.String(),
			"runP99":      ov.RunP99.String(),
			"windows":     ov.Observed,
			"shedWindows": ov.ShedWindows,
			"transitions": ov.Transitions,
			// Counters below fold in as each stream completes.
			"extractShed":   s.extractShed.Load(),
			"decodeShed":    s.decodeShed.Load(),
			"resyncs":       s.resyncs.Load(),
			"corruptFrames": s.corruptFrame.Load(),
			"truncated":     s.truncated.Load(),
			"readRetries":   s.readRetries.Load(),
		},
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers already sent; nothing sensible left to do.
		_ = fmt.Errorf("encode: %w", err)
	}
}
