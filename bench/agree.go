package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// agreeFiles compares two metrics.json files of the same commit, one row
// per workload × metric, and reports whether they agree: end-to-end
// timings within the bound BENCHMARK.json fixes, exact counts and recall
// exactly. A timing whose own quartiles are wider apart than its bound is
// unresolved, which is reported but is not a disagreement. Per-layer
// timings have no bound and are listed for information.
func agreeFiles(w io.Writer, benchmarkPath, pathA, pathB string) (bool, error) {
	var bf benchmarkFile
	var a, b report
	for _, f := range []struct {
		path string
		v    any
	}{{benchmarkPath, &bf}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return false, err
		}
	}
	if a.Seed != b.Seed || a.CorpusDigest != b.CorpusDigest {
		return false, fmt.Errorf("different corpora: seed %d digest %s vs seed %d digest %s",
			a.Seed, a.CorpusDigest, b.Seed, b.CorpusDigest)
	}
	bounds := make(map[string]float64)
	for _, d := range bf.EndToEnd {
		bounds[d.Name] = d.Bound
	}
	ok := true
	fmt.Fprintf(w, "%-18s %-38s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *outcome
		for _, o := range b.Workloads {
			if o.Workload == wa.Workload {
				wb = o
			}
		}
		if wb == nil {
			return false, fmt.Errorf("%s: workload %s missing", pathB, wa.Workload)
		}
		for _, pair := range [][2][]metric{{wa.EndToEnd, wb.EndToEnd}, {wa.PerLayer, wb.PerLayer}} {
			other := make(map[string]metric)
			for _, m := range pair[1] {
				other[m.Name] = m
			}
			for _, ma := range pair[0] {
				mb, found := other[ma.Name]
				if !found {
					return false, fmt.Errorf("%s: %s %s missing", pathB, wa.Workload, ma.Name)
				}
				bound, bounded := bounds[ma.Name]
				verdict := compare(ma, mb, bound, bounded)
				if verdict == "DISAGREE" {
					ok = false
				}
				boundCol := ""
				if bounded && !ma.Exact {
					boundCol = fmt.Sprintf("%.0f%%", 100*bound)
				}
				fmt.Fprintf(w, "%-18s %-38s %14.6g %14.6g %7.1f%% %6s  %s\n",
					wa.Workload, ma.Name, ma.Value, mb.Value, 100*relDiff(ma.Value, mb.Value), boundCol, verdict)
			}
		}
	}
	return ok, nil
}

// relDiff is |a−b| as a share of |a|.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Abs(a)
}

func compare(a, b metric, bound float64, bounded bool) string {
	switch {
	case a.Exact || b.Exact:
		if a.Value == b.Value {
			return "agree (exact)"
		}
		return "DISAGREE"
	case !bounded:
		return "info"
	case spread(a) > bound || spread(b) > bound:
		return "unresolved"
	case relDiff(a.Value, b.Value) <= bound:
		return "agree"
	}
	return "DISAGREE"
}

// spread is the distance between a timing's quartiles as a share of its
// median; zero for a metric reported without quartiles.
func spread(m metric) float64 {
	if m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / math.Abs(m.Value)
}
