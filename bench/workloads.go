package main

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"vdsms"
	"vdsms/internal/workload"
)

// workloadDef is one workload. The why strings are repeated in
// BENCHMARK.json; a test keeps the two in step.
type workloadDef struct {
	name string
	why  string
	// spliced is the number of spliced queries subscribed beside the true
	// ones; quickSpliced replaces it under -quick.
	spliced, quickSpliced int
	preFilter             bool
	streams               int  // > 0: a fleet of this many attached streams
	durable               bool // CheckpointDir set, churn after every churnEvery-th segment
}

const (
	// splicedBase is the id of spliced query 0; true queries have ids 1..numShorts.
	splicedBase = 1000
	churnEvery  = 8
	// fleetLoop is the number of segments each fleet stream loops over, and
	// so the number of rounds in a fleet pass.
	fleetLoop = 16
	// sampledStreams fleet streams are replayed through isolated detectors.
	sampledStreams = 4
	// setupRepeats set-ups are timed in an untraced run; setup_s is their median.
	setupRepeats = 3
)

var workloads = []workloadDef{
	{
		name: "monitor-video",
		why:  "single stream on real bytes vs 20 queries: partial decode is most of the time and the probe almost none, so mpeg/feature/minhash gains show and probe gains must not",
	},
	{
		name:    "monitor-manyquery",
		why:     "same loop vs 20+2048 queries with the Bloom tier on: probe and combine dominate and decode is a few percent, so qindex/prefilter/core gains show and decode gains must not",
		spliced: 2048, quickSpliced: 256, preFilter: true,
	},
	{
		name:    "fleet-rounds",
		why:     "64 pooled streams vs 20+512 queries pushed in aligned rounds then drained: the same kernel under queueing, worker hops and the shared plane, so locking or an ingest fork shows",
		spliced: 512, quickSpliced: 64, streams: 64,
	},
	{
		name:    "churn-durable",
		why:     "WAL append and fsync per window plus a query remove/add with full checkpoints after every 8th segment: index layouts that slow churn, or durability changes, show",
		spliced: 512, quickSpliced: 64, durable: true,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// pass is what one timed pass over the workload's input measured.
type pass struct {
	frames int
	wall   time.Duration
	// unitMS holds one latency per ingest unit — a Monitor(segment) call
	// (plus the churn op that follows it, on churn-durable) or one fleet
	// round — from the call until its matches are returned or readable.
	// Unit i repeats the same work in every pass.
	unitMS []float64
	// attempted and failed count operations (segments, pushes, churn ops)
	// and the pass's own match-list check.
	attempted, failed int
}

// A target is a workload set up and ready to ingest.
type target interface {
	// warm computes the reference match lists; it is not timed.
	warm() error
	// run performs one pass. An error is an operation the workload cannot
	// continue after; refusals and mismatches are counted in the pass.
	run() (pass, error)
	// finish ends the run: it reports the recall and any checks that need
	// the whole run (attempted, failed).
	finish() (recall float64, attempted, failed int, err error)
	close()
}

// clipReader yields spliced clip n when first read, and lets go of the
// bytes at EOF, so subscribing thousands of clips never holds them all.
type clipReader struct {
	c    *corpus
	n    int
	r    *bytes.Reader
	done bool
}

func (cr *clipReader) Read(p []byte) (int, error) {
	if cr.done {
		return 0, io.EOF
	}
	if cr.r == nil {
		cr.r = bytes.NewReader(cr.c.spliced(cr.n))
	}
	n, err := cr.r.Read(p)
	if err == io.EOF {
		cr.r, cr.done = nil, true
	}
	return n, err
}

// subscription returns the ids and clips of the true queries followed by
// spliced queries 0..spliced-1.
func subscription(c *corpus, spliced int) ([]int, []io.Reader) {
	ids := make([]int, 0, len(c.shorts)+spliced)
	clips := make([]io.Reader, 0, cap(ids))
	for i, q := range c.shorts {
		ids = append(ids, i+1)
		clips = append(clips, bytes.NewReader(q))
	}
	for n := 0; n < spliced; n++ {
		ids = append(ids, splicedBase+n)
		clips = append(clips, &clipReader{c: c, n: n})
	}
	return ids, clips
}

// setup builds the workload's detector or fleet and subscribes its queries;
// the time it takes is setup_s. dir is where a durable workload keeps its
// checkpoint and WAL.
func setup(c *corpus, def *workloadDef, spliced int, dir string) (target, error) {
	cfg := vdsms.DefaultConfig()
	cfg.PreFilter = def.preFilter
	if def.durable {
		cfg.CheckpointDir = dir
	}
	det, err := vdsms.NewDetector(cfg)
	if err != nil {
		return nil, err
	}
	ids, clips := subscription(c, spliced)
	if err := det.AddQueries(ids, clips); err != nil {
		return nil, err
	}
	mt := monitorTarget{c: c, det: det}
	switch {
	case def.streams > 0:
		ft, err := newFleetTarget(mt, def.streams)
		if err != nil {
			return nil, err // not a nil *fleetTarget in a non-nil target
		}
		return ft, nil
	case def.durable:
		return &churnTarget{monitorTarget: mt, nextSpliced: spliced}, nil
	}
	return &mt, nil
}

// monitorTarget is the single-stream front door: Detector.Monitor fed one
// segment per call.
type monitorTarget struct {
	c   *corpus
	det *vdsms.Detector
	// ref is one whole-stream Monitor call on the same query plane.
	ref []vdsms.Match
}

// wholeStream replays the corpus's stream as one MVC1 stream, loops times
// over, through a fresh detector on the shared plane, and returns the
// matches of each loop.
func (t *monitorTarget) wholeStream(loops int) ([][]vdsms.Match, error) {
	st, err := t.det.NewStream()
	if err != nil {
		return nil, err
	}
	stream := bytes.Join(append([][]byte{t.c.header}, t.c.library[:t.c.frames]...), nil)
	out := make([][]vdsms.Match, loops)
	for l := range out {
		if out[l], err = st.Monitor(bytes.NewReader(stream)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (t *monitorTarget) warm() error {
	loops, err := t.wholeStream(1)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	t.ref = loops[0]
	return nil
}

func (t *monitorTarget) run() (pass, error) {
	st, err := t.det.NewStream()
	if err != nil {
		return pass{}, err
	}
	p := pass{frames: t.c.frames, unitMS: make([]float64, 0, len(t.c.segments))}
	var got []vdsms.Match
	start := time.Now()
	for _, seg := range t.c.segments {
		t0 := time.Now()
		ms, err := st.Monitor(bytes.NewReader(seg))
		p.unitMS = append(p.unitMS, msSince(t0))
		p.attempted++
		if err != nil {
			p.failed++
			continue
		}
		got = append(got, ms...)
	}
	p.wall = time.Since(start)
	p.attempted++
	if !sameMatches(got, t.ref) {
		p.failed++
	}
	return p, nil
}

func (t *monitorTarget) finish() (float64, int, int, error) {
	return recall(t.ref, t.c.truth), 0, 0, nil
}

func (t *monitorTarget) close() {}

// churnTarget is one durable detector that monitors the stream in a loop
// while spliced queries come and go. Its matches continue in stream time
// from pass to pass, so they are compared, true queries only, with a
// reference that loops the same stream without churn: the first loop for
// the first pass, the (periodic) second loop shifted for every later one.
type churnTarget struct {
	monitorTarget
	refSteady   []vdsms.Match
	passes      int
	oldest      int // oldest spliced query still subscribed
	nextSpliced int // next fresh spliced query
}

func (t *churnTarget) warm() error {
	loops, err := t.wholeStream(2)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	t.ref, t.refSteady = trueOnly(loops[0]), trueOnly(loops[1])
	return nil
}

func (t *churnTarget) run() (pass, error) {
	p := pass{frames: t.c.frames, unitMS: make([]float64, 0, len(t.c.segments))}
	var got []vdsms.Match
	start := time.Now()
	for i, seg := range t.c.segments {
		t0 := time.Now()
		ms, err := t.det.Monitor(bytes.NewReader(seg))
		p.attempted++
		if err != nil {
			p.failed++
		}
		got = append(got, ms...)
		if (i+1)%churnEvery == 0 {
			p.attempted++
			if err := t.churn(); err != nil {
				p.failed++
			}
		}
		p.unitMS = append(p.unitMS, msSince(t0))
	}
	p.wall = time.Since(start)

	want := t.ref
	if t.passes > 0 {
		want = t.refSteady
	}
	// Pass n starts n stream lengths in; the reference's second loop one.
	streamDur := frameTime(t.c.frames)
	shift := time.Duration(t.passes-min(t.passes, 1)) * streamDur
	p.attempted++
	if !sameMatches(shifted(trueOnly(got), -shift), want) {
		p.failed++
	}
	t.passes++
	return p, nil
}

// churn is one subscription change: the oldest spliced query leaves and a
// fresh one arrives, each made durable by the detector before it returns.
func (t *churnTarget) churn() error {
	if err := t.det.RemoveQuery(splicedBase + t.oldest); err != nil {
		return err
	}
	t.oldest++
	id := splicedBase + t.nextSpliced
	t.nextSpliced++
	return t.det.AddQuery(id, bytes.NewReader(t.c.spliced(id-splicedBase)))
}

func (t *churnTarget) close() { t.det.Close() }

// fleetTarget is a pool of streams fed in rounds: one segment per stream,
// then Drain. Stream i loops over the fleetLoop segments that start i/streams
// of the way into the corpus's stream, so the streams between them cover
// the whole stream several times over and a pass — one loop, fleetLoop
// rounds — repeats the same rounds every time.
type fleetTarget struct {
	monitorTarget
	fleet   *vdsms.Fleet
	streams []*vdsms.FleetStream
	rounds  int
}

func newFleetTarget(mt monitorTarget, streams int) (*fleetTarget, error) {
	fl, err := mt.det.NewFleet(vdsms.FleetConfig{Workers: max(1, runtime.GOMAXPROCS(0)-1)})
	if err != nil {
		return nil, err
	}
	t := &fleetTarget{monitorTarget: mt, fleet: fl}
	for i := 0; i < streams; i++ {
		fs, err := fl.Attach(fmt.Sprintf("s%02d", i))
		if err != nil {
			fl.Close()
			return nil, err
		}
		t.streams = append(t.streams, fs)
	}
	return t, nil
}

// fleetSegment returns the index of the segment that stream i of streams
// pushes in the given round.
func fleetSegment(c *corpus, streams, i, round int) int {
	n := len(c.segments)
	return (i*n/streams + round%fleetLoop) % n
}

func (t *fleetTarget) segmentOf(i, round int) []byte {
	return t.c.segments[fleetSegment(t.c, len(t.streams), i, round)]
}

func (t *fleetTarget) warm() error { return nil }

func (t *fleetTarget) run() (pass, error) {
	p := pass{frames: fleetLoop * len(t.streams) * segmentFrames}
	start := time.Now()
	for r := 0; r < fleetLoop; r++ {
		t0 := time.Now()
		for i, fs := range t.streams {
			p.attempted++
			if err := fs.PushSegment(bytes.NewReader(t.segmentOf(i, t.rounds))); err != nil {
				p.failed++
			}
		}
		t.fleet.Drain()
		p.unitMS = append(p.unitMS, msSince(t0))
		t.rounds++
	}
	p.wall = time.Since(start)
	return p, nil
}

// finish replays sampled streams through isolated detectors on the same
// plane and compares the complete match lists. Recall is over every stream
// whose stretch does not wrap: its first loop's matches against the inserts
// that lie wholly inside the stretch.
func (t *fleetTarget) finish() (float64, int, int, error) {
	attempted, failed := 0, 0
	for k := 0; k < sampledStreams; k++ {
		i := k * len(t.streams) / sampledStreams
		st, err := t.det.NewStream()
		if err != nil {
			return 0, 0, 0, err
		}
		var want []vdsms.Match
		for r := 0; r < t.rounds; r++ {
			ms, err := st.Monitor(bytes.NewReader(t.segmentOf(i, r)))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("isolated replay of stream %d: %w", i, err)
			}
			want = append(want, ms...)
		}
		attempted++
		if !sameMatches(t.streams[i].Matches(), want) {
			failed++
		}
	}
	detected, inserted := 0, 0
	for i, fs := range t.streams {
		first := fleetSegment(t.c, len(t.streams), i, 0)
		if first+fleetLoop > len(t.c.segments) {
			continue
		}
		begin, end := first*segmentFrames, (first+min(t.rounds, fleetLoop))*segmentFrames
		var truth []workload.Insertion
		for _, ins := range t.c.truth {
			if ins.Begin >= begin && ins.End+segmentFrames <= end {
				truth = append(truth, ins)
			}
		}
		var ms []vdsms.Match
		for _, m := range fs.Matches() {
			if m.DetectedAt <= frameTime(end-begin) {
				m.DetectedAt += frameTime(begin)
				ms = append(ms, m)
			}
		}
		ev := score(ms, truth)
		detected += ev.Detected
		inserted += ev.Inserted
	}
	if inserted == 0 {
		return 1, attempted, failed, nil
	}
	return float64(detected) / float64(inserted), attempted, failed, nil
}

func (t *fleetTarget) close() {
	t.fleet.Drain()
	t.fleet.Close()
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// keyFrame converts stream time to a key-frame index at the corpus's
// 2 key frames/s, and frameTime back.
func keyFrame(d time.Duration) int  { return int(d * 2 / time.Second) }
func frameTime(f int) time.Duration { return time.Duration(f) * time.Second / 2 }

// sameMatches reports whether two match lists are identical, order and
// similarity included. A nil and an empty list are the same.
func sameMatches(a, b []vdsms.Match) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func trueOnly(ms []vdsms.Match) []vdsms.Match {
	var out []vdsms.Match
	for _, m := range ms {
		if m.QueryID < splicedBase {
			out = append(out, m)
		}
	}
	return out
}

func shifted(ms []vdsms.Match, by time.Duration) []vdsms.Match {
	out := make([]vdsms.Match, len(ms))
	for i, m := range ms {
		m.Start += by
		m.End += by
		m.DetectedAt += by
		out[i] = m
	}
	return out
}

// score evaluates matches against ground truth by the paper's rule
// (workload.Evaluate) with the basic window as tolerance.
func score(ms []vdsms.Match, truth []workload.Insertion) workload.Eval {
	reports := make([]workload.Position, len(ms))
	for i, m := range ms {
		reports[i] = workload.Position{QueryID: m.QueryID, P: keyFrame(m.DetectedAt)}
	}
	return workload.Evaluate(reports, truth, segmentFrames)
}

// recall is score's recall. With no insert to find, none was missed.
func recall(ms []vdsms.Match, truth []workload.Insertion) float64 {
	if len(truth) == 0 {
		return 1
	}
	return score(ms, truth).Recall
}
