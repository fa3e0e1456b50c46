package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"vdsms/internal/buildinfo"
)

// report is metrics.json: every workload's outcome plus what is needed to
// say which corpus, machine and commit it was measured on.
type report struct {
	Schema       string     `json:"schema"`
	Seed         int64      `json:"seed"`
	CorpusDigest string     `json:"corpus_digest"`
	Segments     int        `json:"segments"`
	Frames       int        `json:"frames"`
	Bytes        int        `json:"bytes"`
	Seconds      float64    `json:"seconds"`
	Quick        bool       `json:"quick,omitempty"`
	NumCPU       int        `json:"nproc"`
	GOMAXPROCS   int        `json:"gomaxprocs"`
	GoVersion    string     `json:"go"`
	Commit       string     `json:"commit"`
	Started      time.Time  `json:"started"`
	Workloads    []*outcome `json:"workloads"`
}

func newReport(c *corpus, o options) *report {
	return &report{
		Schema: "vdsms-bench/v1", Seed: c.seed, CorpusDigest: c.digest,
		Segments: len(c.segments), Frames: c.frames, Bytes: c.bytes,
		Seconds: o.seconds, Quick: o.quick,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Started: time.Now().UTC(),
	}
}

// commit is the revision the binary was stamped with, or else the working
// directory's HEAD — `go run` does not stamp — or else "unknown".
func commit() string {
	if c := buildinfo.Commit(); c != "unknown" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// print writes the outcome's metrics as "workload metric value unit" lines.
func (out *outcome) print(w io.Writer) {
	for _, ms := range [][]metric{out.EndToEnd, out.PerLayer} {
		for _, m := range ms {
			fmt.Fprintf(w, "%s %s %.6g %s\n", out.Workload, m.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "%s failed_share %.6g ratio (%d of %d)\n",
		out.Workload, float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
}

// driverResult is the one-line result of a single-workload run.
func (out *outcome) driverResult() map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, ms := range [][]metric{out.EndToEnd, out.PerLayer} {
		for _, m := range ms {
			metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	return map[string]any{
		"correct": out.Correct, "attempted": out.Attempted, "failed": out.Failed, "metrics": metrics,
	}
}

// write stores metrics.json, spans.json and summary.md under a new run
// directory of dir and returns it.
func (rep *report) write(dir string) (string, error) {
	run := filepath.Join(dir, fmt.Sprintf("%s-s%d", rep.Started.Format("20060102-150405"), rep.Seed))
	if err := os.MkdirAll(run, 0o755); err != nil {
		return "", err
	}
	spans := make(map[string][]span)
	for _, out := range rep.Workloads {
		if out.spans != nil {
			spans[out.Workload] = out.spans
		}
	}
	var md strings.Builder
	rep.summary(&md)
	for name, v := range map[string]any{"metrics.json": rep, "spans.json": spans} {
		data, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(run, name), append(data, '\n'), 0o644); err != nil {
			return "", err
		}
	}
	return run, os.WriteFile(filepath.Join(run, "summary.md"), []byte(md.String()), 0o644)
}

// summary renders the report for people.
func (rep *report) summary(w io.Writer) {
	fmt.Fprintf(w, "# bench run %s\n\n", rep.Started.Format(time.RFC3339))
	fmt.Fprintf(w, "seed %d, corpus %s (%d segments, %d key frames, %d bytes), %g s timed phases, "+
		"GOMAXPROCS %d of %d CPUs, %s, commit %s\n\n",
		rep.Seed, rep.CorpusDigest, rep.Segments, rep.Frames, rep.Bytes, rep.Seconds,
		rep.GOMAXPROCS, rep.NumCPU, rep.GoVersion, rep.Commit)
	for _, out := range rep.Workloads {
		fmt.Fprintf(w, "## %s\n\n%d of %d operations failed or mismatched the reference\n\n",
			out.Workload, out.Failed, out.Attempted)
		for _, ms := range [][]metric{out.EndToEnd, out.PerLayer} {
			if len(ms) == 0 {
				continue
			}
			fmt.Fprintln(w, "| metric | value | unit | q1 – q3 | n | |\n|---|---:|---|---|---:|---|")
			for _, m := range ms {
				spread, note := "", ""
				if m.Q1 != 0 || m.Q3 != 0 {
					spread = fmt.Sprintf("%.5g – %.5g", m.Q1, m.Q3)
				}
				if m.Exact {
					note = "exact"
				}
				n := ""
				if m.N > 0 {
					n = fmt.Sprint(m.N)
				}
				fmt.Fprintf(w, "| %s | %.6g | %s | %s | %s | %s |\n", m.Name, m.Value, m.Unit, spread, n, note)
			}
			fmt.Fprintln(w)
		}
		if len(out.Shares) > 0 {
			layers := make([]string, 0, len(out.Shares))
			for l := range out.Shares {
				layers = append(layers, l)
			}
			sort.Slice(layers, func(i, j int) bool { return out.Shares[layers[i]] > out.Shares[layers[j]] })
			fmt.Fprintln(w, "| layer | share of traced unit time |\n|---|---:|")
			for _, l := range layers {
				fmt.Fprintf(w, "| %s | %.1f %% |\n", l, 100*out.Shares[l])
			}
			fmt.Fprintln(w)
		}
	}
}
