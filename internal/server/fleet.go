// Fleet endpoints: long-lived attached streams multiplexed over the shared
// query plane, complementing the legacy one-shot POST /streams/{name}
// upload (which holds a connection and a goroutine per stream for its
// whole life). Attached streams push segments request by request, so one
// service instance can serve thousands of tenants:
//
//	GET    /streams                      → attached stream ids
//	POST   /streams      {"id": "..."}   → attach (409 duplicate, 429 fleet full)
//	POST   /streams/{id}/frames          → push an MVC1 segment (429 + Retry-After on backpressure)
//	GET    /streams/{id}/stats           → per-stream counters
//	GET    /streams/{id}/matches         → matches reported so far
//	DELETE /streams/{id}[?drain=false]   → detach (drained by default)
package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"vdsms"
)

// handleFleet serves the /streams collection: list and attach.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		ids := s.fleet.StreamIDs()
		writeJSON(w, map[string]any{"streams": ids, "count": len(ids)})
	case http.MethodPost:
		var req struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.ID == "" {
			http.Error(w, `body must be {"id": "<stream id>"}`, http.StatusBadRequest)
			return
		}
		if _, err := s.fleet.Attach(req.ID); err != nil {
			telStreamsRejected.Inc()
			switch {
			case errors.Is(err, vdsms.ErrDuplicateStream):
				http.Error(w, err.Error(), http.StatusConflict)
			case errors.Is(err, vdsms.ErrFleetFull):
				http.Error(w, err.Error(), http.StatusTooManyRequests)
			default:
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		telStreamsServed.Inc()
		w.WriteHeader(http.StatusCreated)
		writeJSON(w, map[string]any{"attached": req.ID})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleFleetStream serves /streams/{id}/{sub} for an attached stream.
func (s *Server) handleFleetStream(w http.ResponseWriter, r *http.Request, id, sub string) {
	fs := s.fleet.Stream(id)
	if fs == nil {
		http.Error(w, "stream not attached", http.StatusNotFound)
		return
	}
	switch {
	case sub == "frames" && r.Method == http.MethodPost:
		if err := fs.PushSegment(r.Body); err != nil {
			switch {
			case errors.Is(err, vdsms.ErrBackpressure):
				telStreamsRejected.Inc()
				// The segment was not enqueued; the producer re-sends the
				// same bytes once the queue drains.
				w.Header().Set("Retry-After", "1")
				http.Error(w, err.Error(), http.StatusTooManyRequests)
			case errors.Is(err, vdsms.ErrSegmentTooLarge):
				// No Retry-After: the same bytes can never be admitted.
				http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			default:
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
		writeJSON(w, map[string]any{"accepted": true, "pending": fs.Pending()})
	case sub == "stats" && r.Method == http.MethodGet:
		st := fs.Stats()
		writeJSON(w, map[string]any{
			"stream":  id,
			"frames":  st.Frames,
			"windows": st.Windows,
			"matches": st.Matches,
			"pending": fs.Pending(),
		})
	case sub == "matches" && r.Method == http.MethodGet:
		writeJSON(w, map[string]any{"stream": id, "matches": matchEvents(fs.Matches())})
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// handleFleetDetach serves DELETE /streams/{id}. The stream's queue is
// drained and its final partial window flushed unless ?drain=false. The
// id leaves the pool immediately, so the response is the stream's last
// word: final counters plus every match it reported.
func (s *Server) handleFleetDetach(w http.ResponseWriter, r *http.Request, id string) {
	fs := s.fleet.Stream(id)
	if fs == nil {
		http.Error(w, "stream not attached", http.StatusNotFound)
		return
	}
	drain := r.URL.Query().Get("drain") != "false"
	fs.Detach(drain)
	st := fs.Stats()
	writeJSON(w, map[string]any{
		"detached": id, "drained": drain,
		"frames": st.Frames, "windows": st.Windows,
		"matches": matchEvents(fs.Matches()),
	})
}

// matchEvents converts facade matches to the NDJSON wire shape the legacy
// stream endpoint already uses.
func matchEvents(matches []vdsms.Match) []matchEvent {
	events := make([]matchEvent, len(matches))
	for i, m := range matches {
		events[i] = matchEvent{
			Query:      m.QueryID,
			DetectedAt: m.DetectedAt.Seconds(),
			Start:      m.Start.Seconds(),
			End:        m.End.Seconds(),
			Similarity: m.Similarity,
		}
	}
	return events
}
