// Checkpoint/restore glue between the live engine and the durable format
// of internal/snapshot. The candidate lists are held ascending, so export
// copies them as they are and identical logical state serialises to
// identical bytes; restore refuses lists the kernel cannot walk, and a
// restored engine's subsequent matches and stats are byte-identical to an
// uninterrupted run (see TestCrashPointSweep).
package core

import (
	"fmt"
	"sort"

	"vdsms/internal/bitsig"
	"vdsms/internal/minhash"
	"vdsms/internal/snapshot"
)

// snapshotConfig maps the detection-relevant configuration into the durable
// form. PreFilter is dropped: it changes nothing, so a checkpoint taken
// with it set restores with it clear and vice versa.
func (c Config) snapshotConfig() snapshot.Config {
	return snapshot.Config{
		K:            c.K,
		Seed:         c.Seed,
		Delta:        c.Delta,
		Lambda:       c.Lambda,
		WindowFrames: c.WindowFrames,
		Order:        uint8(c.Order),
		Method:       uint8(c.Method),
		UseIndex:     c.UseIndex,
		DisablePrune: c.DisablePrune,
	}
}

// Fingerprint returns the compatibility fingerprint of this configuration
// under the given pipeline meta — the value stamped into checkpoint and
// WAL headers.
func (c Config) Fingerprint(m snapshot.Meta) uint64 {
	return snapshot.Fingerprint(m, c.snapshotConfig())
}

// ExportState captures the engine's complete matching state in canonical
// form. The engine must be quiescent — between PushFrame/PushFrames calls —
// which is the only state an Engine is ever observed in by its caller.
func (e *Engine) ExportState() *snapshot.EngineState {
	st := &snapshot.EngineState{
		Config: e.cfg.snapshotConfig(),
		Frame:  e.frame,
		CurIDs: append([]uint64(nil), e.curIDs...),
		Stats:  exportStats(e.stats),
	}
	// The plane in insertion order, the order restore re-inserts it so the
	// rebuilt index passes through the same construction sequence. A query
	// held by its cells comes without a sketch, which the checkpoint does
	// not write and a restore derives again; its cells are the plane's own
	// slice, which nothing changes.
	st.Queries = e.qs.view().index.Queries()

	for _, c := range e.seq {
		sc := snapshot.SeqCandidate{
			StartFrame: c.startFrame,
			Windows:    c.windows,
			Sketch:     c.sketch.Clone(),
			Reported:   append([]int(nil), c.reported...),
		}
		sc.Sigs, sc.Related = c.export(e.cfg.Method)
		st.Seq = append(st.Seq, sc)
	}

	for _, b := range e.geo {
		gb := snapshot.GeoBucket{
			StartFrame: b.startFrame,
			EndFrame:   b.endFrame,
			Windows:    b.windows,
			Sketch:     b.sketch.Clone(),
		}
		gb.Sigs, gb.Related = b.export(e.cfg.Method)
		st.Geo = append(st.Geo, gb)
	}
	for k := range e.geoReported {
		st.GeoReported = append(st.GeoReported, snapshot.GeoReport{QID: k.qid, Start: k.start})
	}
	sort.Slice(st.GeoReported, func(i, j int) bool {
		a, b := st.GeoReported[i], st.GeoReported[j]
		if a.QID != b.QID {
			return a.QID < b.QID
		}
		return a.Start < b.Start
	})
	return st
}

// RestoreEngine rebuilds an engine from exported state under cfg, which
// must be detection-compatible with the state's recorded configuration
// (same fingerprint fields). Every check of the state runs before its
// plane is built, under cfg's K and seed.
func RestoreEngine(cfg Config, st *snapshot.EngineState) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := snapshot.CompatibilityError(snapshot.Meta{}, snapshot.Meta{}, st.Config, cfg.snapshotConfig()); err != nil {
		return nil, err
	}
	if len(st.CurIDs) >= cfg.WindowFrames {
		return nil, fmt.Errorf("core: restored window holds %d frames but w=%d (a full window is never checkpointed unprocessed)",
			len(st.CurIDs), cfg.WindowFrames)
	}
	if st.Frame < len(st.CurIDs) {
		return nil, fmt.Errorf("core: restored frame position %d precedes its own partial window (%d frames)",
			st.Frame, len(st.CurIDs))
	}

	var seq []*seqCandidate
	for _, sc := range st.Seq {
		t, sk, err := importTracked(cfg, sc.Sigs, sc.Related, sc.Sketch)
		if err == nil {
			err = ascending("reported", sc.Reported)
		}
		if err != nil {
			return nil, fmt.Errorf("core: restored candidate from frame %d: %w", sc.StartFrame, err)
		}
		seq = append(seq, &seqCandidate{
			startFrame: sc.StartFrame,
			windows:    sc.Windows,
			sketch:     sk,
			tracked:    t,
			reported:   append([]int(nil), sc.Reported...),
		})
	}
	var geo []*geoBucket
	for _, gb := range st.Geo {
		t, sk, err := importTracked(cfg, gb.Sigs, gb.Related, gb.Sketch)
		if err != nil {
			return nil, fmt.Errorf("core: restored bucket from frame %d: %w", gb.StartFrame, err)
		}
		geo = append(geo, &geoBucket{
			startFrame: gb.StartFrame,
			endFrame:   gb.EndFrame,
			windows:    gb.Windows,
			sketch:     sk,
			tracked:    t,
		})
	}

	qs, err := NewQuerySet(cfg.K, cfg.Seed, cfg.UseIndex)
	if err != nil {
		return nil, err
	}
	if err := qs.insert(st.Queries); err != nil {
		return nil, fmt.Errorf("core: restored query: %w", err)
	}
	e := newEngine(cfg, qs)
	e.frame = st.Frame
	e.curIDs = append([]uint64(nil), st.CurIDs...)
	e.stats = restoreStats(st.Stats)
	e.seq, e.geo = seq, geo
	for _, r := range st.GeoReported {
		e.geoReported[geoKey{qid: r.QID, start: r.Start}] = true
	}
	return e, nil
}

// exportStats maps live counters to the durable form. The format keeps a
// list of per-shard work counters from when the kernel was partitioned; the
// engine writes exactly one entry.
func exportStats(s Stats) snapshot.Stats {
	return snapshot.Stats{
		Frames: s.Frames, Windows: s.Windows,
		SketchCombines: s.SketchCombines, SketchCompares: s.SketchCompares,
		SigOrs: s.SigOrs, SigTests: s.SigTests,
		ProbeComparisons: s.ProbeComparisons,
		SignatureSum:     s.SignatureSum, CandidateSum: s.CandidateSum,
		Matches: s.Matches,
		Shards:  []snapshot.ShardStats{{Probed: s.Probed, Pruned: s.Pruned, Compared: s.Compared}},
	}
}

// restoreStats maps durable counters back, summing however many work
// counter entries the checkpoint carries (older checkpoints hold one per
// query shard of the run that wrote them).
func restoreStats(s snapshot.Stats) Stats {
	out := Stats{
		Frames: s.Frames, Windows: s.Windows,
		SketchCombines: s.SketchCombines, SketchCompares: s.SketchCompares,
		SigOrs: s.SigOrs, SigTests: s.SigTests,
		ProbeComparisons: s.ProbeComparisons,
		SignatureSum:     s.SignatureSum, CandidateSum: s.CandidateSum,
		Matches: s.Matches,
	}
	for _, sh := range s.Shards {
		out.Probed += sh.Probed
		out.Pruned += sh.Pruned
		out.Compared += sh.Compared
	}
	return out
}

// export writes the list in the checkpoint's form: signatures with copied
// planes under the Bit method, ids under Sketch, both already ascending.
func (t *tracked) export(method Method) (sigs []snapshot.Signature, related []int) {
	if method == Sketch {
		return nil, append([]int(nil), t.ids...)
	}
	for i, qid := range t.ids {
		sigs = append(sigs, snapshot.Signature{
			QID: qid,
			Lo:  append([]uint64(nil), t.sigs[i].Lo...),
			Hi:  append([]uint64(nil), t.sigs[i].Hi...),
		})
	}
	return sigs, nil
}

// importTracked rebuilds a candidate's list and sketch from their checkpoint
// form under cfg's method, refusing what the kernel cannot run on: a list
// that is not strictly ascending, signature planes of the wrong width, or a
// Sketch-method candidate without a K-value sketch. A sketch the Bit method
// never reads is carried over as it is.
func importTracked(cfg Config, sigs []snapshot.Signature, related []int, sketch []uint64) (tracked, minhash.Sketch, error) {
	var t tracked
	sk := minhash.Sketch(sketch).Clone()
	if cfg.Method == Sketch {
		if len(sk) != cfg.K {
			return t, nil, fmt.Errorf("sketch has %d values, K=%d", len(sk), cfg.K)
		}
		t.ids = append([]int(nil), related...)
		return t, sk, ascending("related", t.ids)
	}
	// Every signature is checked before the block is sized by their number:
	// a list of empty signatures costs its input two bits apiece.
	planeWords := (cfg.K + 63) / 64
	for _, s := range sigs {
		if len(s.Lo) != planeWords || len(s.Hi) != planeWords {
			return t, nil, fmt.Errorf("signature for query %d has %d+%d plane words, K=%d needs %d",
				s.QID, len(s.Lo), len(s.Hi), cfg.K, planeWords)
		}
	}
	t.ids = make([]int, len(sigs))
	t.sigs = bitsig.NewBlock(cfg.K, len(sigs))
	for i, s := range sigs {
		t.ids[i] = s.QID
		copy(t.sigs[i].Lo, s.Lo)
		copy(t.sigs[i].Hi, s.Hi)
	}
	return t, sk, ascending("signature", t.ids)
}

// ascending returns an error naming the list unless ids is strictly
// ascending, the order every candidate walk depends on.
func ascending(list string, ids []int) error {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return fmt.Errorf("%s list is not strictly ascending at query %d", list, ids[i])
		}
	}
	return nil
}
