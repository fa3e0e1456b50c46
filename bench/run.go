package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options are the settings of one invocation that every workload shares.
type options struct {
	seed    int64
	seconds float64
	quick   bool
	outDir  string // scratch and reports go under here
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Q1, Q3 and N describe the sample Value is the median of, for timings
	// taken as a median.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
	N  int     `json:"n,omitempty"`
	// Exact marks a count that repeats exactly for one seed.
	Exact bool `json:"exact,omitempty"`
}

// outcome is what one workload's run produced: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one, or both.
type outcome struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  []metric `json:"end_to_end,omitempty"`
	PerLayer  []metric `json:"per_layer,omitempty"`
	// Shares is each layer's share of the traced unit time on this
	// workload's path.
	Shares map[string]float64 `json:"layer_shares,omitempty"`
	spans  []span
}

// untraced is the raw result of running a workload through its real front
// door with tracing off.
type untraced struct {
	setupS            []float64
	heapMB            float64
	passes            []pass
	recall            float64
	attempted, failed int
}

func (o options) splicedOf(def *workloadDef) int {
	if o.quick {
		return def.quickSpliced
	}
	return def.spliced
}

// runUntraced sets the workload up (setups times over, keeping the last),
// warms it with the reference run and one untimed pass, then runs timed
// passes for the given number of seconds.
func runUntraced(c *corpus, def *workloadDef, o options, setups int, seconds float64) (*untraced, error) {
	scratch, err := os.MkdirTemp(o.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	u := &untraced{}
	baseline := heapAlloc() // the corpus, which is the benchmark's own
	var tg target
	defer func() {
		if tg != nil {
			tg.close()
		}
	}()
	for i := 0; i < setups; i++ {
		if tg != nil {
			tg.close()
			tg = nil
		}
		dir := filepath.Join(scratch, fmt.Sprintf("setup-%d", i))
		heapAlloc() // the previous set-up's garbage is not this one's to collect
		t0 := time.Now()
		if tg, err = setup(c, def, o.splicedOf(def), dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		u.setupS = append(u.setupS, time.Since(t0).Seconds())
	}
	u.heapMB = (heapAlloc() - baseline) / 1e6

	if err := tg.warm(); err != nil {
		return nil, err
	}
	count := func(p pass) {
		u.attempted += p.attempted
		u.failed += p.failed
	}
	p, err := tg.run() // warm-up: checked like any other pass, not timed
	if err != nil {
		return nil, err
	}
	count(p)
	for start := time.Now(); len(u.passes) == 0 || time.Since(start).Seconds() < seconds; {
		if p, err = tg.run(); err != nil {
			return nil, err
		}
		count(p)
		u.passes = append(u.passes, p)
	}
	recall, attempted, failed, err := tg.finish()
	if err != nil {
		return nil, err
	}
	u.recall = recall
	u.attempted += attempted
	u.failed += failed
	return u, nil
}

// meanUnitNS is the mean time of one ingest unit over the timed passes.
func (u *untraced) meanUnitNS() float64 {
	var wall time.Duration
	units := 0
	for _, p := range u.passes {
		wall += p.wall
		units += len(p.unitMS)
	}
	return float64(wall) / float64(units)
}

// endToEnd turns an untraced run into the end-to-end metrics.
//
// Every pass repeats the same units in the same order, so a run holds as
// many repeats of each unit as it has passes. This host slows memory-bound
// work by tens of percent for seconds at a time, and only ever slows it, so
// a unit's time is taken as the fastest of its repeats: the latencies are
// percentiles over a pass's units of those times, and the throughput is a
// pass's frames over the sum of them. What interference did to the run is
// kept beside the throughput as the quartiles of the passes' own whole-pass
// throughput.
func (u *untraced) endToEnd() []metric {
	units := append([]float64(nil), u.passes[0].unitMS...)
	var passFPS []float64
	var sumMS float64
	for _, p := range u.passes {
		passFPS = append(passFPS, float64(p.frames)/p.wall.Seconds())
		for i, ms := range p.unitMS {
			units[i] = min(units[i], ms)
		}
	}
	for _, ms := range units {
		sumMS += ms
	}
	frames := float64(u.passes[0].frames)
	q1, q3 := quartiles(passFPS)
	s := summarise(u.setupS)
	return []metric{
		{Name: "frames_per_s", Value: frames / (sumMS / 1e3), Unit: "1/s", Q1: q1, Q3: q3, N: len(passFPS)},
		{Name: "latency_ms_p50", Value: percentile(units, 50), Unit: "ms", N: len(units)},
		{Name: "latency_ms_p95", Value: percentile(units, 95), Unit: "ms", N: len(units)},
		{Name: "setup_s", Value: s.Median, Unit: "s", Q1: s.Q1, Q3: s.Q3, N: s.N},
		{Name: "heap_after_setup_mb", Value: u.heapMB, Unit: "MB"},
		{Name: "recall", Value: u.recall, Unit: "ratio", Exact: true},
	}
}

// runWorkload runs one workload untraced, traced, or both, for o.seconds
// each.
func runWorkload(c *corpus, def *workloadDef, o options, doUntraced, doTraced bool) (*outcome, error) {
	out := &outcome{Workload: def.name}
	if doUntraced {
		u, err := runUntraced(c, def, o, setupRepeats, o.seconds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		out.EndToEnd = u.endToEnd()
		out.Attempted += u.attempted
		out.Failed += u.failed
	}
	if doTraced {
		// A traced run times the real front door too, briefly, so that the
		// layers' sum can be held against it within one process.
		u, err := runUntraced(c, def, o, 1, o.seconds/4)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		unitNS := u.meanUnitNS()
		out.Attempted += u.attempted
		out.Failed += u.failed
		u = nil

		scratch, err := os.MkdirTemp(o.outDir, "tmp-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(scratch)
		r, err := newReplay(c, def, o.splicedOf(def), scratch)
		if err != nil {
			return nil, err
		}
		if err := r.run(time.Duration(o.seconds*0.75*float64(time.Second)), unitNS); err != nil {
			return nil, fmt.Errorf("%s: traced replay: %w", def.name, err)
		}
		for _, m := range r.out {
			out.PerLayer = append(out.PerLayer, m)
		}
		sort.Slice(out.PerLayer, func(i, j int) bool { return out.PerLayer[i].Name < out.PerLayer[j].Name })
		out.Shares = r.shares
		out.spans = r.tr.spans
		out.Attempted += len(r.tr.spans)
		out.Failed += r.failed
	}
	out.Correct = out.Failed == 0
	return out, nil
}
