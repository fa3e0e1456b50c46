// Decision-provenance debug surface:
//
//	GET  /debug/events                → journaled candidate-lifecycle events
//	GET  /debug/matches               → retained match provenance records
//	GET  /debug/matches/{id}          → one match's explain record
//	GET  /debug/slow-window           → the live slow-window budget
//	POST /debug/slow-window           → retune the budget, no restart
//
// Events and records come from the service lineage's trace journal; they
// are non-empty only when the service was started with tracing armed
// (vcdserve -trace-events / -audit-fraction). The endpoints are read-only
// except /debug/slow-window, which adjusts an observability threshold —
// never detection semantics.
package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"vdsms/internal/trace"
)

// handleDebugEvents serves the journal's retained lifecycle events,
// oldest first. Filters: ?stream=name, ?query=id, ?kind=name (born,
// extended, pruned, dropped, expired, reported, near_miss), ?since=seq,
// ?limit=n (default 256, 0 = all retained).
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	f := trace.Filter{
		Stream: q.Get("stream"),
		Kind:   trace.KindAny,
		Limit:  256,
	}
	if v := q.Get("kind"); v != "" {
		k, ok := trace.ParseKind(v)
		if !ok {
			http.Error(w, "unknown event kind "+strconv.Quote(v), http.StatusBadRequest)
			return
		}
		f.Kind = k
	}
	if v := q.Get("query"); v != "" {
		id, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, "query must be an integer id", http.StatusBadRequest)
			return
		}
		f.QID = id
	}
	if v := q.Get("since"); v != "" {
		seq, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "since must be a sequence number", http.StatusBadRequest)
			return
		}
		f.SinceSeq = seq
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
			return
		}
		f.Limit = n
	}
	j := s.root.Journal()
	evs := j.Events(f)
	writeJSON(w, map[string]any{
		"tracing": s.root.Tracing(),
		"total":   j.EventCount(),
		"events":  evs,
	})
}

// handleDebugMatches serves match provenance: /debug/matches lists the
// retained records (?limit=n, default 64), /debug/matches/{id} returns one
// explain record by journal id.
func (s *Server) handleDebugMatches(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/debug/matches")
	rest = strings.TrimPrefix(rest, "/")
	if rest == "" {
		limit := 64
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
				return
			}
			limit = n
		}
		writeJSON(w, map[string]any{
			"tracing": s.root.Tracing(),
			"matches": s.root.Journal().Matches(limit),
		})
		return
	}
	id, err := strconv.ParseUint(rest, 10, 64)
	if err != nil || id == 0 {
		http.Error(w, "match id must be a positive integer", http.StatusBadRequest)
		return
	}
	rec, ok := s.root.Journal().Match(id)
	if !ok {
		http.Error(w, "no retained record for match "+rest, http.StatusNotFound)
		return
	}
	writeJSON(w, rec)
}

// slowWindowRequest is the POST /debug/slow-window body: a Go duration
// string ("250ms", "2s"), "0" or "off" to disable.
type slowWindowRequest struct {
	Budget string `json:"budget"`
}

// handleSlowWindow reads (GET) or retunes (POST) the slow-window budget of
// the service's detector lineage. The new value reaches every live stream
// engine at its next basic window — no restart, no stream interruption.
func (s *Server) handleSlowWindow(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.writeSlowWindow(w)
	case http.MethodPost:
		var req slowWindowRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "body must be JSON: {\"budget\": \"250ms\"}", http.StatusBadRequest)
			return
		}
		var budget time.Duration
		switch req.Budget {
		case "", "off", "0":
			budget = 0
		default:
			d, err := time.ParseDuration(req.Budget)
			if err != nil || d < 0 {
				http.Error(w, "budget must be a non-negative Go duration, \"off\" or \"0\"",
					http.StatusBadRequest)
				return
			}
			budget = d
		}
		s.root.SetSlowWindow(budget)
		s.writeSlowWindow(w)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// writeSlowWindow reports the live budget (shared across all streams).
func (s *Server) writeSlowWindow(w http.ResponseWriter) {
	b := s.root.SlowWindowBudget()
	writeJSON(w, map[string]any{
		"slowWindow":        b.String(),
		"slowWindowSeconds": b.Seconds(),
		"enabled":           b > 0,
	})
}
