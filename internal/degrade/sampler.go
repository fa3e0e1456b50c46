package degrade

// Content-aware shed decisions. At each shed level a target fraction of
// frames is dropped, but *which* frames is decided by content: every frame
// carries a cheap interest score (mean |ΔDC| after decode, payload-size
// delta before decode) and the sampler keeps the frames whose score clears
// a self-adapting quantile threshold. Static content — where consecutive
// key frames fingerprint almost identically and the window sketch barely
// changes — is shed first; high-motion content keeps its full sampling
// density. A max-run guard bounds consecutive extract sheds so no span of
// content, however static, goes completely unobserved.
//
// Decode shedding runs under a per-window budget on the basic-window
// cadence given at construction: at most winFrames·(1−drop) entropy decodes
// per window, rounded half up and at least one, with the threshold choosing
// which frames get them and a forced keep spending any leftover budget at
// the window tail. The cap is what actually bounds tail latency —
// a pure quantile threshold sheds only where content is static, so the p99
// window (all-motion, nothing shed) would still run at full cost; under a
// real-time budget every window must shed, and content decides which
// frames inside the window survive, not whether the window pays.

// Shed fractions per level. Extract shedding starts at level 1; decode
// shedding (skipping entropy decode entirely) starts at level 2. At level
// 3 extract shedding is off again: the decode budget leaves so few real
// frames per window that substituting one of them would zero out the
// window's information for a saving that is a rounding error next to the
// skipped decodes.
var (
	extractDrop = [MaxLevel + 1]float64{0, 0.35, 0.35, 0}
	decodeDrop  = [MaxLevel + 1]float64{0, 0, 0.5, 0.75}
)

// maxExtractRun is how many consecutive extract sheds force a keep
// regardless of score. Every shed frame substitutes a stale cell id whose
// age grows with the run, so the run bound directly limits how far the
// emitted cell sequence can lag the content. Runs beyond ~3 key frames
// destroy sequence similarity faster than they save work (measured: recall
// collapses to 0 at run cap 7 on workloads that survive cap 3 with two
// thirds of their recall). Decode sheds need no such guard: the window
// budget keeps at least one decode in every window.
const maxExtractRun = 3

// thresholdTracker follows the f-quantile of a score stream with O(1)
// stochastic updates (the classic Robbins–Monro quantile estimator): the
// threshold steps up when a score exceeds it and down otherwise, with
// asymmetric step sizes so it converges on the value that exactly f of the
// scores fall below. The step is scaled by a running mean magnitude so the
// tracker adapts to whatever units the signal arrives in.
type thresholdTracker struct {
	f      float64 // target drop fraction: keep scores above the f-quantile
	thr    float64
	mag    float64 // running mean |score|
	primed bool
}

// update feeds one score and reports whether it clears the threshold.
func (t *thresholdTracker) update(score float64) bool {
	abs := score
	if abs < 0 {
		abs = -abs
	}
	if !t.primed {
		t.mag = abs
		t.thr = score
		t.primed = true
		return true
	}
	t.mag += 0.05 * (abs - t.mag)
	keep := score >= t.thr
	eta := 0.05 * (t.mag + 1e-9)
	if keep {
		t.thr += eta * t.f
	} else {
		t.thr -= eta * (1 - t.f)
	}
	return keep
}

// Sampler makes per-frame keep/shed decisions for one monitored stream at
// the controller's current level. Not safe for concurrent use.
type Sampler struct {
	extract  thresholdTracker
	decode   thresholdTracker
	extRun   int // consecutive extract sheds
	prevSize int
	haveSize bool

	// The decode budget's window: winFrames key frames per basic window,
	// the next KeepDecode's position in it and the decodes it has kept.
	winFrames    int
	frameInWin   int
	decodedInWin int
}

// NewSampler returns a sampler for a stream of winFrames key frames per
// basic window (at least 1), with untrained thresholds: the first frames at
// each level are kept while the trackers prime.
func NewSampler(winFrames int) *Sampler {
	return &Sampler{winFrames: max(winFrames, 1)}
}

// SetPhase places the next KeepDecode phase frames into the current basic
// window — where a previous segment left its last window. A phase the
// sampler already stands at keeps that window's decode count, so the
// budget holds across segments; any other restarts the count.
func (s *Sampler) SetPhase(phase int) {
	if phase < 0 || phase >= s.winFrames {
		phase = 0
	}
	if phase != s.frameInWin {
		s.frameInWin, s.decodedInWin = phase, 0
	}
}

// KeepExtract decides whether a decoded key frame gets full feature
// extraction at the given shed level. score is the motion proxy (mean
// |ΔDC|, feature.MotionScorer); scoreOK is false when no comparable
// previous frame exists, which forces a keep. Frames that are not kept
// substitute the previous frame's cell id downstream.
func (s *Sampler) KeepExtract(level int, score float64, scoreOK bool) bool {
	if level <= 0 || level > MaxLevel || extractDrop[level] == 0 {
		s.extRun = 0
		return true
	}
	if !scoreOK || s.extRun >= maxExtractRun {
		s.extRun = 0
		// Prime the tracker even on forced keeps so the threshold keeps
		// learning the stream's score scale.
		if scoreOK {
			s.extract.f = extractDrop[level]
			s.extract.update(score)
		}
		return true
	}
	s.extract.f = extractDrop[level]
	if s.extract.update(score) {
		s.extRun = 0
		return true
	}
	s.extRun++
	return false
}

// KeepDecode decides, before any entropy decoding, whether a key frame is
// worth decoding at the given shed level. payloadBytes is the frame's
// compressed size — its delta against the previous kept-or-shed frame is
// the pre-decode change proxy (a static scene compresses to nearly the
// same size every frame; a cut or high motion moves it sharply). The
// decision runs under the per-window decode budget.
func (s *Sampler) KeepDecode(level int, payloadBytes int) bool {
	delta := 0
	if s.haveSize {
		delta = payloadBytes - s.prevSize
		if delta < 0 {
			delta = -delta
		}
	}
	s.prevSize = payloadBytes
	s.haveSize = true

	pos := s.frameInWin
	if pos == 0 {
		s.decodedInWin = 0
	}
	s.frameInWin = (pos + 1) % s.winFrames
	keep := s.keepDecode(level, float64(delta), pos)
	if keep {
		s.decodedInWin++
	}
	return keep
}

// keepDecode decides frame pos of the window: the budget caps the window's
// decodes (the latency bound) and a forced keep spends what is left when the
// remaining frames could not otherwise use it (the fidelity floor — every
// window keeps at least one real frame). The threshold learns from every
// frame, kept or not.
func (s *Sampler) keepDecode(level int, delta float64, pos int) bool {
	if level < 2 || level > MaxLevel {
		return true
	}
	s.decode.f = decodeDrop[level]
	budget := max(int(float64(s.winFrames)*(1-decodeDrop[level])+0.5), 1)
	keep := s.decode.update(delta)
	switch left := budget - s.decodedInWin; {
	case left <= 0:
		return false
	case left >= s.winFrames-pos:
		return true
	}
	return keep
}
