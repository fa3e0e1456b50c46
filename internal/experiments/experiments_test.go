package experiments

import (
	"reflect"
	"testing"

	"vdsms/internal/partition"
)

// shapeTests names, for each registry entry, the one test that asserts the
// shape EXPERIMENTS.md states for it. An experiment without one fails
// TestFindRegistry.
var shapeTests = map[string]func(*testing.T){
	"table2":                TestTable2,
	"fig6":                  TestFig6,
	"fig7":                  TestFig7,
	"fig8":                  TestFig8,
	"fig9":                  TestFig9,
	"fig10a":                TestFig10a,
	"fig10b":                TestFig10b,
	"fig11":                 TestFig11,
	"fig12":                 TestFig12,
	"fig13":                 TestFig13,
	"fig14":                 TestFig14,
	"fig15":                 TestFig15,
	"ablation-partition":    TestAblationPartition,
	"ablation-prune":        TestAblationPrune,
	"robustness":            TestRobustness,
	"robustness-temporal":   TestTemporalRobustness,
	"ablation-lambda":       TestAblationLambda,
	"ablation-index-update": TestAblationIndexUpdate,
	"recovery":              TestRecovery,
	"queryscale":            TestQueryScale,
	"fleet":                 TestFleetScale,
}

func TestFindRegistry(t *testing.T) {
	tests := map[uintptr]string{}
	for _, e := range Registry {
		if e.Run == nil || e.Name == "" || e.Paper == "" {
			t.Errorf("malformed experiment %+v", e)
		}
		if f, err := Find(e.Name); err != nil || f.Name != e.Name {
			t.Errorf("Find(%q) = %q, %v", e.Name, f.Name, err)
		}
		test := shapeTests[e.Name]
		if test == nil {
			t.Errorf("experiment %q has no shape test in shapeTests", e.Name)
			continue
		}
		pc := reflect.ValueOf(test).Pointer()
		if other, ok := tests[pc]; ok {
			t.Errorf("experiments %q and %q share one shape test", other, e.Name)
		}
		tests[pc] = e.Name
	}
	if len(shapeTests) != len(tests) {
		t.Errorf("shapeTests names %d experiments, the registry %d", len(shapeTests), len(tests))
	}
	if _, err := Find("nonsense"); err == nil {
		t.Error("unknown experiment found")
	}
}

func TestLabWorkloadsCached(t *testing.T) {
	l := NewLab(Options{Scale: quarter})
	if l.VS1() != l.VS1() || l.VS2() != l.VS2() || l.BigVS1() != l.BigVS1() {
		t.Error("lab does not cache workloads")
	}
	if l.VS1() == l.VS2() {
		t.Error("VS1 and VS2 are the same workload")
	}
}

func TestDeriveShapes(t *testing.T) {
	l := lab(t, "vs1", quarter)
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
	l := lab(t, "table2", quarter)
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
	l := lab(t, "vs1", quarter)
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
