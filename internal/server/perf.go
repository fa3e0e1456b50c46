// Performance-attribution surface: the lineage's kept span export
// (head-sampled or over the slow-window budget), its outlier top-K, live
// sampling control and the per-stage summary of every timed window. See
// internal/perfobs and DESIGN.md §14.
package server

import (
	"encoding/json"
	"net/http"
	"strconv"

	"vdsms/internal/perfobs"
)

// handleDebugSpans exports the kept span ring (GET, oldest first, one
// JSON object per line; ?limit=N caps the count) and retunes span sampling
// live (POST {"sampleEvery": N} — 0 disables, 1 samples every window).
func (s *Server) handleDebugSpans(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		limit := 0
		if v := r.URL.Query().Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
				return
			}
			limit = n
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := s.root.Spans().WriteSpans(w, limit); err != nil {
			// Headers already sent; the connection is the error signal.
			return
		}
	case http.MethodPost:
		var req struct {
			SampleEvery *int64   `json:"sampleEvery"`
			Fraction    *float64 `json:"fraction"`
			AllocEvery  *int64   `json:"allocEvery"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		spans := s.root.Spans()
		switch {
		case req.SampleEvery != nil:
			spans.SetSampleEvery(*req.SampleEvery)
		case req.Fraction != nil:
			spans.SetSampleFraction(*req.Fraction)
		default:
			http.Error(w, `want {"sampleEvery": N} or {"fraction": F}`, http.StatusBadRequest)
			return
		}
		if req.AllocEvery != nil {
			spans.SetAllocEvery(*req.AllocEvery)
		}
		writeJSON(w, map[string]any{"sampleEvery": spans.SampleEvery()})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleFleetTop reports the fleet outlier top-K: the slowest, most-shed
// and most-backpressured streams by approximate weight (?limit=N caps each
// list; bounded space-saving sketches, no per-stream metric cardinality).
func (s *Server) handleFleetTop(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
			return
		}
		limit = n
	}
	writeJSON(w, s.root.Spans().Outliers().Report(limit))
}

// perfStatsBlock is the /stats summary of the attribution machinery: the
// lineage's sampling state and the top outlier of each category, and the
// per-stage summary of every timed window in the process (the registry's
// stage histograms).
func (s *Server) perfStatsBlock() map[string]any {
	stages := map[string]any{}
	for st, h := range perfobs.StageSeconds {
		if n := h.Count(); n > 0 {
			stages[perfobs.Stage(st).String()] = map[string]any{
				"count":  n,
				"meanNs": h.Sum() / float64(n) * 1e9,
				"p99Ns":  h.Quantile(0.99) * 1e9,
			}
		}
	}
	spans := s.root.Spans()
	blk := map[string]any{
		"sampleEvery":  spans.SampleEvery(),
		"spansSampled": spans.Sampled(),
		"windows":      perfobs.StageSeconds[perfobs.StageWindowTotal].Count(),
		"allocSampled": spans.AllocSampled(),
		"stages":       stages,
	}
	rep := spans.Outliers().Report(1)
	out := map[string]any{}
	if len(rep.Slowest) > 0 {
		out["slowest"] = rep.Slowest[0]
	}
	if len(rep.Shed) > 0 {
		out["shed"] = rep.Shed[0]
	}
	if len(rep.Backpressure) > 0 {
		out["backpressure"] = rep.Backpressure[0]
	}
	if len(out) > 0 {
		blk["outliers"] = out
	}
	return blk
}
