// Checkpoint/restore glue between the live engine and the durable format
// of internal/snapshot. Export canonicalises the engine's maps — every list
// sorted — so identical logical state serialises to identical bytes, and a
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

// exportQueries returns the subscribed queries in insertion order, the
// order restore re-inserts them so the rebuilt query index passes through
// the same construction sequence.
func (qs *QuerySet) exportQueries() []snapshot.Query {
	v := qs.view()
	out := make([]snapshot.Query, 0, len(v.scan.Queries))
	for _, iq := range v.scan.Queries {
		out = append(out, snapshot.Query{
			ID:     iq.ID,
			Frames: iq.Length,
			Sketch: append([]uint64(nil), iq.Sketch...),
		})
	}
	return out
}

// addSketched inserts an already-sketched query, the restore-side inverse
// of exportQueries.
func (qs *QuerySet) addSketched(id, frames int, sk minhash.Sketch) error {
	if frames <= 0 {
		return fmt.Errorf("core: restored query %d has non-positive length", id)
	}
	if len(sk) != qs.k {
		return fmt.Errorf("core: restored query %d sketch has %d values, engine K=%d", id, len(sk), qs.k)
	}
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if _, dup := qs.view().queries[id]; dup {
		return fmt.Errorf("core: restored query id %d duplicated", id)
	}
	np := qs.begin()
	if err := qs.insert(np, &queryInfo{id: id, frames: frames, sketch: sk}); err != nil {
		return err
	}
	qs.publish(np)
	return nil
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
	st.Queries = e.qs.exportQueries()

	for _, c := range e.seq {
		sc := snapshot.SeqCandidate{
			StartFrame: c.startFrame,
			Windows:    c.windows,
			Sigs:       exportSigs(c.sigs),
			Related:    sortedKeys(nil, c.related),
			Reported:   sortedKeys(nil, c.reported),
		}
		if c.sketch != nil {
			sc.Sketch = append([]uint64(nil), c.sketch...)
		}
		st.Seq = append(st.Seq, sc)
	}

	for _, b := range e.geo {
		gb := snapshot.GeoBucket{
			StartFrame: b.startFrame,
			EndFrame:   b.endFrame,
			Windows:    b.windows,
			Sigs:       exportSigs(b.sigs),
			Related:    sortedKeys(nil, b.related),
		}
		if b.sketch != nil {
			gb.Sketch = append([]uint64(nil), b.sketch...)
		}
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
// (same fingerprint fields).
func RestoreEngine(cfg Config, st *snapshot.EngineState) (*Engine, error) {
	qs, err := NewQuerySet(cfg.K, cfg.Seed, cfg.UseIndex)
	if err != nil {
		return nil, err
	}
	for _, q := range st.Queries {
		if err := qs.addSketched(q.ID, q.Frames, minhash.Sketch(append([]uint64(nil), q.Sketch...))); err != nil {
			return nil, err
		}
	}
	return RestoreEngineWith(cfg, st, qs)
}

// RestoreEngineWith is RestoreEngine against an existing shared QuerySet:
// the state's own Queries section is ignored (it may be empty — fleet
// checkpoints strip it, storing the shared plane once instead of once per
// stream) and the engine joins qs like NewEngineWith would. cfg.K must
// match the set's K.
func RestoreEngineWith(cfg Config, st *snapshot.EngineState, qs *QuerySet) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := snapshot.CompatibilityError(snapshot.Meta{}, snapshot.Meta{}, st.Config, cfg.snapshotConfig()); err != nil {
		return nil, err
	}
	if cfg.K != qs.K() {
		return nil, fmt.Errorf("core: engine K=%d but query set K=%d", cfg.K, qs.K())
	}
	if len(st.CurIDs) >= cfg.WindowFrames {
		return nil, fmt.Errorf("core: restored window holds %d frames but w=%d (a full window is never checkpointed unprocessed)",
			len(st.CurIDs), cfg.WindowFrames)
	}
	if st.Frame < len(st.CurIDs) {
		return nil, fmt.Errorf("core: restored frame position %d precedes its own partial window (%d frames)",
			st.Frame, len(st.CurIDs))
	}

	e := newEngine(cfg, qs)
	var err error
	e.frame = st.Frame
	e.curIDs = append([]uint64(nil), st.CurIDs...)
	e.stats = restoreStats(st.Stats)

	for _, sc := range st.Seq {
		c := &seqCandidate{
			startFrame: sc.StartFrame,
			windows:    sc.Windows,
			reported:   importSet(sc.Reported),
		}
		if sc.Sketch != nil {
			c.sketch = minhash.Sketch(append([]uint64(nil), sc.Sketch...))
		}
		if cfg.Method == Bit {
			if c.sigs, err = importSigs(sc.Sigs, cfg.K); err != nil {
				return nil, err
			}
		} else {
			c.related = importSet(sc.Related)
		}
		e.seq = append(e.seq, c)
	}

	for _, gb := range st.Geo {
		b := &geoBucket{
			startFrame: gb.StartFrame,
			endFrame:   gb.EndFrame,
			windows:    gb.Windows,
		}
		if gb.Sketch != nil {
			b.sketch = minhash.Sketch(append([]uint64(nil), gb.Sketch...))
		}
		if cfg.Method == Bit {
			if b.sigs, err = importSigs(gb.Sigs, cfg.K); err != nil {
				return nil, err
			}
		} else {
			b.related = importSet(gb.Related)
		}
		e.geo = append(e.geo, b)
	}
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

// exportSigs flattens a signature map into one qid-ascending slice with
// copied planes.
func exportSigs(m map[int]*bitsig.Signature) []snapshot.Signature {
	var out []snapshot.Signature
	for _, qid := range sortedKeys(nil, m) {
		sig := m[qid]
		out = append(out, snapshot.Signature{
			QID: qid,
			Lo:  append([]uint64(nil), sig.Lo...),
			Hi:  append([]uint64(nil), sig.Hi...),
		})
	}
	return out
}

// importSigs rebuilds a signature map from its canonical list; the map is
// never nil, since the kernels mutate it in place.
func importSigs(sigs []snapshot.Signature, k int) (map[int]*bitsig.Signature, error) {
	planeWords := (k + 63) / 64
	m := make(map[int]*bitsig.Signature, len(sigs))
	for _, s := range sigs {
		if len(s.Lo) != planeWords || len(s.Hi) != planeWords {
			return nil, fmt.Errorf("core: restored signature for query %d has %d+%d plane words, K=%d needs %d",
				s.QID, len(s.Lo), len(s.Hi), k, planeWords)
		}
		m[s.QID] = &bitsig.Signature{
			K:  k,
			Lo: append([]uint64(nil), s.Lo...),
			Hi: append([]uint64(nil), s.Hi...),
		}
	}
	return m, nil
}

// importSet rebuilds a non-nil query-id set from its canonical list.
func importSet(ids []int) map[int]bool {
	m := make(map[int]bool, len(ids))
	for _, qid := range ids {
		m[qid] = true
	}
	return m
}
