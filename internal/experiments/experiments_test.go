package experiments

import (
	"strings"
	"testing"

	"vdsms/internal/partition"
)

// tinyLab keeps experiment tests fast: 6 shorts.
func tinyLab() *Lab { return NewLab(Options{Scale: 0.25, Seed: 11}) }

func TestFindRegistry(t *testing.T) {
	if len(Registry) < 14 {
		t.Fatalf("registry has %d experiments", len(Registry))
	}
	for _, e := range Registry {
		if e.Run == nil || e.Name == "" || e.Paper == "" {
			t.Errorf("malformed experiment %+v", e)
		}
	}
	if _, err := Find("fig6"); err != nil {
		t.Error(err)
	}
	if _, err := Find("nonsense"); err == nil {
		t.Error("unknown experiment found")
	}
}

func TestLabWorkloadsCached(t *testing.T) {
	l := tinyLab()
	if l.VS1() != l.VS1() || l.VS2() != l.VS2() || l.BigVS1() != l.BigVS1() {
		t.Error("lab does not cache workloads")
	}
	if l.VS1() == l.VS2() {
		t.Error("VS1 and VS2 are the same workload")
	}
}

func TestDeriveShapes(t *testing.T) {
	l := tinyLab()
	dv, err := derive(l.VS1(), 4, 5, partition.GridPyramid)
	if err != nil {
		t.Fatal(err)
	}
	if len(dv.streamIDs) != l.VS1().Stream.Len() {
		t.Errorf("stream ids %d for %d key frames", len(dv.streamIDs), l.VS1().Stream.Len())
	}
	if len(dv.queryIDs) != len(l.VS1().Queries) {
		t.Errorf("query ids for %d queries, want %d", len(dv.queryIDs), len(l.VS1().Queries))
	}
	for qid, ids := range dv.queryIDs {
		if len(ids) != len(dv.queryFeats[qid]) {
			t.Errorf("query %d ids/feats length mismatch", qid)
		}
	}
}

func TestMembershipSelfRetrievalVS1Style(t *testing.T) {
	// On VS2, originals must retrieve their edited copies most of the time
	// at the membership-test level — this is the foundation Table II rests
	// on.
	l := tinyLab()
	p, r, err := membership(l, 4, 5, partition.GridPyramid, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.5 {
		t.Errorf("membership recall %.2f too low — fingerprints not robust to edits", r)
	}
	if p < 0.5 {
		t.Errorf("membership precision %.2f too low", p)
	}
}

func TestRunEngineSubsetOfQueries(t *testing.T) {
	l := tinyLab()
	dv, err := derive(l.VS1(), 4, 5, partition.GridPyramid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEngine(coreConfig(200, 0.6, 10, seqOrder), dv, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Only 2 queries subscribed → truth restricted to those, and no match
	// may reference an unsubscribed query.
	if res.Eval.Inserted != 2 {
		t.Errorf("Inserted = %d, want 2", res.Eval.Inserted)
	}
	for _, m := range res.Matches {
		if m.QueryID > 2 {
			t.Errorf("match for unsubscribed query %d", m.QueryID)
		}
	}
}

// TestEveryExperimentRuns executes the entire registry at tiny scale and
// sanity-checks table shapes. This is the smoke test that keeps vcdbench
// and bench_test.go honest.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments registry sweep is not -short")
	}
	l := tinyLab()
	for _, e := range Registry {
		if e.Name == "overload" {
			// A wall-clock sweep at a fixed scale, not the lab's, and
			// most of this package's time under -race: TestOverloadTable
			// checks its table and the root package's TestOverloadSmoke
			// gates the layer on exact numbers.
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			tb, err := e.Run(l)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if tb.NumRows() == 0 {
				t.Fatalf("%s produced no rows", e.Name)
			}
			s := tb.String()
			if !strings.Contains(s, "#") {
				t.Errorf("%s table has no title:\n%s", e.Name, s)
			}
		})
	}
}
