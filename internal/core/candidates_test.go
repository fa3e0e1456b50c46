package core

import (
	"fmt"
	"slices"
	"testing"

	"vdsms/internal/snapshot"
)

// seqRange returns the cell ids from..to-1, one per key frame.
func seqRange(from, to uint64) []uint64 {
	var out []uint64
	for id := from; id < to; id++ {
		out = append(out, id)
	}
	return out
}

// TestReportOutlivesTracking: a candidate that reported a query and then
// dropped it keeps the query in its reported set — the report must not
// repeat if the query came back, and checkpoints carry the set. Query 1 is
// cells 1..20 and query 2 is the same cells plus 101..110. The stream is
// 1..10, 11..20, 101..110: the first candidate reports query 1 after two
// windows, and the third window, which shares no cell with query 1, drops
// it while query 2 stays tracked.
func TestReportOutlivesTracking(t *testing.T) {
	for _, useIndex := range []bool{true, false} {
		t.Run(fmt.Sprintf("index=%v", useIndex), func(t *testing.T) {
			e, err := NewEngine(Config{
				K: 256, Seed: 3, Delta: 0.6, Lambda: 2, WindowFrames: 10,
				Order: Sequential, Method: Bit, UseIndex: useIndex,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddQuery(1, seqRange(1, 21)); err != nil {
				t.Fatal(err)
			}
			if err := e.AddQuery(2, append(seqRange(1, 21), seqRange(101, 111)...)); err != nil {
				t.Fatal(err)
			}
			e.PushFrames(seqRange(1, 21))
			if !slices.ContainsFunc(e.Matches, func(m Match) bool { return m.QueryID == 1 && m.StartFrame == 0 }) {
				t.Fatalf("the first two windows did not report query 1 from frame 0: %+v", e.Matches)
			}
			e.PushFrames(seqRange(101, 111))
			st := e.ExportState()
			i := slices.IndexFunc(st.Seq, func(c snapshot.SeqCandidate) bool { return c.StartFrame == 0 })
			if i < 0 {
				t.Fatal("the candidate from frame 0 is gone")
			}
			c := st.Seq[i]
			var tracked []int
			for _, s := range c.Sigs {
				tracked = append(tracked, s.QID)
			}
			if !slices.Equal(tracked, []int{2}) {
				t.Errorf("candidate tracks %v, want [2]", tracked)
			}
			if !slices.Contains(c.Reported, 1) {
				t.Errorf("candidate's reported set %v lost query 1 when it stopped tracking it", c.Reported)
			}
		})
	}
}

// TestRestoreRejectsMalformedCandidates: a checkpoint whose candidate list
// the kernel cannot run on — a Sketch-method candidate without a K-value
// sketch, or a query list that is not strictly ascending — is refused at
// restore with an error, not accepted to panic or misbehave at the next
// window. The trailer checksum is no defence: anyone can recompute it.
func TestRestoreRejectsMalformedCandidates(t *testing.T) {
	const k = 64
	planes := func(qid int) snapshot.Signature {
		return snapshot.Signature{QID: qid, Lo: make([]uint64, 1), Hi: make([]uint64, 1)}
	}
	sketch := func(n int) []uint64 { return make([]uint64, n) }
	cases := []struct {
		name   string
		order  Order
		method Method
		seq    snapshot.SeqCandidate
		geo    snapshot.GeoBucket
		ok     bool
	}{
		{name: "seq-sketch-valid", order: Sequential, method: Sketch, ok: true,
			seq: snapshot.SeqCandidate{Windows: 1, Sketch: sketch(k), Related: []int{1, 2}, Reported: []int{1, 2}}},
		{name: "seq-bit-valid", order: Sequential, method: Bit, ok: true,
			seq: snapshot.SeqCandidate{Windows: 1, Sigs: []snapshot.Signature{planes(1), planes(2)}, Reported: []int{2}}},
		{name: "geo-sketch-valid", order: Geometric, method: Sketch, ok: true,
			geo: snapshot.GeoBucket{EndFrame: 7, Windows: 1, Sketch: sketch(k), Related: []int{1, 2}}},
		{name: "seq-sketch-short", order: Sequential, method: Sketch,
			seq: snapshot.SeqCandidate{Windows: 1, Sketch: sketch(5), Related: []int{1}}},
		{name: "seq-sketch-nil", order: Sequential, method: Sketch,
			seq: snapshot.SeqCandidate{Windows: 1, Related: []int{1}}},
		{name: "geo-sketch-short", order: Geometric, method: Sketch,
			geo: snapshot.GeoBucket{EndFrame: 7, Windows: 1, Sketch: sketch(5), Related: []int{1}}},
		{name: "geo-sketch-nil", order: Geometric, method: Sketch,
			geo: snapshot.GeoBucket{EndFrame: 7, Windows: 1, Related: []int{1}}},
		{name: "seq-bit-unsorted-sigs", order: Sequential, method: Bit,
			seq: snapshot.SeqCandidate{Windows: 1, Sigs: []snapshot.Signature{planes(2), planes(1)}}},
		{name: "geo-bit-unsorted-sigs", order: Geometric, method: Bit,
			geo: snapshot.GeoBucket{EndFrame: 7, Windows: 1, Sigs: []snapshot.Signature{planes(2), planes(1)}}},
		{name: "seq-sketch-duplicate-related", order: Sequential, method: Sketch,
			seq: snapshot.SeqCandidate{Windows: 1, Sketch: sketch(k), Related: []int{1, 1}}},
		{name: "geo-sketch-duplicate-related", order: Geometric, method: Sketch,
			geo: snapshot.GeoBucket{EndFrame: 7, Windows: 1, Sketch: sketch(k), Related: []int{1, 1}}},
		{name: "seq-bit-unsorted-reported", order: Sequential, method: Bit,
			seq: snapshot.SeqCandidate{Windows: 1, Sigs: []snapshot.Signature{planes(1)}, Reported: []int{2, 1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := sweepScript(4, c.order, c.method, true)
			e, err := NewEngine(fs.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, ids := range fs.queries {
				if err := e.AddQuery(i+1, ids); err != nil {
					t.Fatal(err)
				}
			}
			st := e.ExportState()
			if c.order == Sequential {
				st.Seq = append(st.Seq, c.seq)
			} else {
				st.Geo = append(st.Geo, c.geo)
			}
			r, err := RestoreEngine(fs.cfg, st)
			if !c.ok {
				if err == nil {
					t.Fatal("restore accepted the candidate")
				}
				return
			}
			if err != nil {
				t.Fatalf("restore refused a well-formed candidate: %v", err)
			}
			r.PushFrames(fs.frames)
			r.Flush()
		})
	}
}
