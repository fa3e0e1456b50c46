package vdsms

import (
	"bytes"
	"testing"

	"vdsms/internal/trace"
)

// TestDetectorExplain exercises the facade's decision-provenance surface:
// arming via Config, the explain API (LastMatchID/MatchRecord/MatchRecords)
// and the per-stream event feed — the plumbing vcdmon -explain and the
// /debug endpoints stand on.
func TestDetectorExplain(t *testing.T) {
	cfg := testConfig()
	cfg.TraceEvents = 8192
	cfg.AuditFraction = 1
	cfg.StreamName = "facade-explain"
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Tracing() || det.StreamName() != "facade-explain" {
		t.Fatalf("tracing not armed: Tracing=%v StreamName=%q", det.Tracing(), det.StreamName())
	}
	if det.LastMatchID() != 0 {
		t.Errorf("LastMatchID before any match = %d", det.LastMatchID())
	}

	query := clip(t, 31, 20)
	if err := det.AddQuery(3, bytes.NewReader(query)); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	err = ComposeStream(&stream, 80, 1,
		bytes.NewReader(clip(t, 130, 30)),
		bytes.NewReader(query),
		bytes.NewReader(clip(t, 131, 30)),
	)
	if err != nil {
		t.Fatal(err)
	}

	// LastMatchID must already resolve inside the OnMatch callback — the
	// hook vcdmon -explain prints its EXPLAIN line from.
	var callbackRecords []MatchRecord
	det.OnMatch = func(m Match) {
		rec, ok := det.MatchRecord(det.LastMatchID())
		if !ok {
			t.Errorf("no provenance record inside OnMatch for %+v", m)
			return
		}
		callbackRecords = append(callbackRecords, rec)
	}
	matches, err := det.Monitor(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("embedded copy not detected")
	}
	if len(callbackRecords) != len(matches) {
		t.Fatalf("%d records resolved in callbacks for %d matches", len(callbackRecords), len(matches))
	}
	for i, rec := range callbackRecords {
		m := matches[i]
		if rec.QueryID != m.QueryID || rec.Similarity != m.Similarity {
			t.Errorf("record %d does not describe its match:\nrecord: %+v\nmatch:  %+v", rec.ID, rec, m)
		}
		if rec.Stream != "facade-explain" || rec.Order == "" || rec.Method == "" {
			t.Errorf("record %d missing provenance labels: %+v", rec.ID, rec)
		}
		if len(rec.Trajectory) == 0 {
			t.Errorf("record %d has no trajectory", rec.ID)
		}
		if rec.Audit == nil {
			t.Errorf("record %d not audited despite AuditFraction=1", rec.ID)
		} else if rec.Audit.Violated || rec.Audit.AbsError > rec.Audit.Bound {
			t.Errorf("record %d violates Theorem 1's bound: %+v", rec.ID, rec.Audit)
		}
	}

	recs := det.MatchRecords(0)
	if len(recs) != len(matches) {
		t.Errorf("MatchRecords returned %d records for %d matches", len(recs), len(matches))
	}
	evs := det.TraceEvents(0)
	if len(evs) == 0 {
		t.Fatal("no trace events for the detector's stream")
	}
	kinds := map[string]bool{}
	for _, ev := range evs {
		if ev.StreamName != "facade-explain" {
			t.Fatalf("event from foreign stream leaked: %+v", ev)
		}
		kinds[ev.Kind.String()] = true
	}
	for _, k := range []string{"born", "extended", "reported"} {
		if !kinds[k] {
			t.Errorf("no %s events in the detector's feed", k)
		}
	}
}

// TestDetectorTracingOff pins the default: no trace config, no journal
// stream, explain API inert.
func TestDetectorTracingOff(t *testing.T) {
	det, err := NewDetector(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if det.Tracing() || det.StreamName() != "" || det.LastMatchID() != 0 {
		t.Error("untraced detector leaks tracing state")
	}
	if _, ok := det.MatchRecord(1); ok {
		t.Error("untraced MatchRecord returned a record")
	}
	if det.MatchRecords(0) != nil || det.TraceEvents(0) != nil {
		t.Error("untraced record/event feeds not nil")
	}
}

// TestLineagesKeepTheirJournals: each detector lineage owns its journal and
// span collector, so arming a second detector in the process — here with a
// journal larger than the default — leaves the first one's events and
// match records in place, while a NewStream sibling shares its lineage's.
func TestLineagesKeepTheirJournals(t *testing.T) {
	cfg := testConfig()
	cfg.TraceEvents = 8192
	cfg.StreamName = "first"
	first, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	query := clip(t, 31, 20)
	if err := first.AddQuery(3, bytes.NewReader(query)); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := ComposeStream(&stream, 80, 1, bytes.NewReader(clip(t, 130, 30)),
		bytes.NewReader(query), bytes.NewReader(clip(t, 131, 30))); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Monitor(&stream); err != nil {
		t.Fatal(err)
	}
	evs, recs := len(first.TraceEvents(0)), len(first.MatchRecords(0))
	if evs == 0 || recs == 0 {
		t.Fatalf("first detector journaled %d events and %d records, want both > 0", evs, recs)
	}

	cfg.TraceEvents = trace.DefaultEventCap + 1
	cfg.StreamName = "second"
	second, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(first.TraceEvents(0)); got != evs {
		t.Errorf("first detector's events went from %d to %d when a second lineage armed", evs, got)
	}
	if got := len(first.MatchRecords(0)); got != recs {
		t.Errorf("first detector's match records went from %d to %d when a second lineage armed", recs, got)
	}
	if second.Journal() == first.Journal() || second.Spans() == first.Spans() {
		t.Error("two lineages share a journal or a span collector")
	}
	sib, err := second.NewStreamNamed("sibling")
	if err != nil {
		t.Fatal(err)
	}
	if sib.Journal() != second.Journal() || sib.Spans() != second.Spans() {
		t.Error("a NewStream sibling does not share its lineage's journal and span collector")
	}
}
