// Facade-level decision provenance: the explain API over the
// candidate-lifecycle event journal and the sampled exact-audit channel
// (armed by Detector.arm) that vcdmon -explain and the server's /debug
// endpoints consume.
package vdsms

import "vdsms/internal/trace"

// TraceEvent is one candidate-lifecycle observation; see internal/trace
// for kind semantics (born, extended, pruned, dropped, expired, reported,
// near_miss).
type TraceEvent = trace.Event

// MatchRecord is the provenance record attached to an emitted match:
// window span, per-window estimate trajectory, combination order,
// signature method and (when sampled) the exact-audit measurement.
type MatchRecord = trace.MatchRecord

// AuditResult is one sampled exact-Jaccard audit of a report or prune
// decision, judged against Theorem 1's deviation bound.
type AuditResult = trace.AuditResult

// Journal returns the lineage's trace journal: the events and match
// records of every traced stream of the lineage (/debug/events,
// /debug/matches). It stays empty unless tracing is armed.
func (d *Detector) Journal() *trace.Journal { return d.journal }

// Tracing reports whether decision-provenance tracing is armed.
func (d *Detector) Tracing() bool { return d.tracer != nil }

// StreamName returns this detector's trace-journal stream name, or "" when
// tracing is off.
func (d *Detector) StreamName() string {
	if d.tracer == nil {
		return ""
	}
	return d.tracer.StreamName()
}

// LastMatchID returns the journal id of this detector's most recent match
// (0 when tracing is off or no match was emitted yet). Valid inside an
// OnMatch callback: the provenance record exists before the callback runs.
func (d *Detector) LastMatchID() uint64 { return d.tracer.LastMatchID() }

// MatchRecord returns the provenance record of a match by journal id, if
// tracing is armed and the record is still retained by the bounded ring.
func (d *Detector) MatchRecord(id uint64) (MatchRecord, bool) {
	if d.tracer == nil {
		return MatchRecord{}, false
	}
	return d.tracer.Journal().Match(id)
}

// MatchRecords returns the retained provenance records of this detector's
// stream, oldest first (up to limit; 0 means all retained).
func (d *Detector) MatchRecords(limit int) []MatchRecord {
	if d.tracer == nil {
		return nil
	}
	return d.tracer.Matches(limit)
}

// TraceEvents returns the retained lifecycle events of this detector's
// stream, oldest first (up to limit; 0 means all retained).
func (d *Detector) TraceEvents(limit int) []TraceEvent {
	if d.tracer == nil {
		return nil
	}
	return d.tracer.Events(limit)
}
