package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"vdsms/internal/minhash"
	"vdsms/internal/prefilter"
	"vdsms/internal/qindex"
)

// QuerySet holds the subscribed continuous queries — sketches, lengths, the
// Hash-Query index and the optional Bloom pre-filter — independently of any
// stream. Multiple Engines (one per monitored stream, the paper's "many
// concurrent video streams" setting) share one QuerySet, so query memory is
// O(queries), not O(queries × streams).
//
// The set is organised as a sequence of immutable versioned planes
// (queryPlane): window processing loads the current plane once per basic
// window with a single atomic pointer read and probes it lock-free, while
// Add/AddBatch/Remove build a copy-on-write successor off to the side and
// publish it atomically. Churn therefore never stalls ingest — an engine
// mid-window keeps the plane it captured (old version), and picks up the
// new version at its next window. All sharers see the same hash family, so
// sketches are comparable by construction.
type QuerySet struct {
	fam      *minhash.Family
	k        int
	seed     int64
	useIndex bool

	// mu serialises writers only (subscription churn). Readers never take
	// it: they load cur and work on that immutable plane.
	mu         sync.Mutex
	pfRebuilds atomic.Int64
	// cur is the current immutable plane, swapped atomically on churn.
	cur atomic.Pointer[queryPlane]
}

// queryPlane is one immutable version of the shared query plane: the
// subscription map, the insertion-ordered authoritative list, the
// Hash-Query index and the Bloom pre-filter, all consistent with each
// other. Nothing in a published plane is ever mutated — writers clone what
// they change — so engines and their worker shards read it without locks.
type queryPlane struct {
	version   uint64
	queries   map[int]*queryInfo
	maxFrames int
	scan      qindex.Scan   // insertion-ordered; rebuilds pass through the same sequence
	index     *qindex.Index // nil until the first query when useIndex
	preFilter bool
	pf        *prefilter.Filter // nil until EnablePreFilter

	// ownedIndex/ownedPF are builder-only flags, meaningful while the plane
	// is under construction by a writer holding mu: they record that index
	// (resp. pf) is already a private copy, so a multi-insert operation
	// (LoadQuerySet, RestoreEngine) clones once, not per query. begin()
	// starts successors with both flags clear.
	ownedIndex, ownedPF bool
}

// lookup returns the plane's query with the given id, or nil.
func (v *queryPlane) lookup(id int) *queryInfo { return v.queries[id] }

// usingIndex reports whether this plane probes through the Hash-Query index.
func (v *queryPlane) usingIndex() bool { return v.index != nil }

// probeShard runs the configured prober for one query shard against this
// plane, into the shard's scratch (the output is valid until the scratch is
// probed again). Shard outputs and scan counts partition the full probe's
// exactly (see qindex.ShardOf), so per-window stats are worker-count
// invariant. Lock-free: the plane is immutable.
func (v *queryPlane) probeShard(ps *qindex.ProbeScratch, sk minhash.Sketch, delta float64, shard, nshards int, mask qindex.RowMask) (*qindex.ProbeOutput, int) {
	if v.index != nil {
		return v.index.ProbeInto(ps, sk, delta, shard, nshards, mask), 0
	}
	return v.scan.ProbeInto(ps, sk, delta, shard, nshards)
}

// windowRowMask computes the pre-filter admission mask for one window
// sketch against this plane: row i is admitted iff the filter may hold
// (i, sk[i]). Returns a nil mask (admit all) when the tier is off or
// probing is not indexed. rejected counts the rows dropped — each one
// saves a binary search and rejects every candidate query at that hash
// position in O(1).
func (v *queryPlane) windowRowMask(sk minhash.Sketch) (mask qindex.RowMask, probed, rejected int) {
	if !v.preFilter || v.pf == nil || v.index == nil {
		return nil, 0, 0
	}
	mask = qindex.NewRowMask(len(sk))
	for i, val := range sk {
		probed++
		if v.pf.MayContain(i, val) {
			mask.Set(i)
		} else {
			rejected++
		}
	}
	return mask, probed, rejected
}

// bytes estimates the plane's memory footprint: sketches and retained raw
// cell ids, the Hash-Query index entries, and the Bloom filter bits. This
// is the term the fleet's bytes-per-stream accounting shows is paid once
// per process, not once per stream.
func (v *queryPlane) bytes() int {
	b := 0
	for _, q := range v.queries {
		b += 8*len(q.sketch) + 8*len(q.cellIDs) + 64 // sketch + audit ids + struct/map overhead
	}
	// scan entries and index slots share sketch backing arrays with the
	// queries map; count the slice headers only.
	b += len(v.scan.Queries) * 40
	if v.index != nil {
		b += v.index.Bytes()
	}
	if v.pf != nil {
		b += v.pf.Bytes()
	}
	return b
}

// view returns the current immutable plane (never nil).
func (qs *QuerySet) view() *queryPlane { return qs.cur.Load() }

// begin starts a copy-on-write successor of the current plane: the
// subscription map and scan list are copied (their entries are immutable
// and shared), the index and filter pointers carry over until the mutating
// operation clones or rebuilds them. Callers hold mu.
func (qs *QuerySet) begin() *queryPlane {
	old := qs.cur.Load()
	np := &queryPlane{
		version:   old.version + 1,
		queries:   make(map[int]*queryInfo, len(old.queries)+1),
		scan:      qindex.Scan{Queries: append([]qindex.Query(nil), old.scan.Queries...)},
		index:     old.index,
		preFilter: old.preFilter,
		pf:        old.pf,
	}
	for id, q := range old.queries {
		np.queries[id] = q
	}
	return np
}

// publish recomputes the plane's derived fields and swaps it in as the
// current version; callers hold mu.
func (qs *QuerySet) publish(np *queryPlane) {
	np.maxFrames = 0
	for _, q := range np.queries {
		if q.frames > np.maxFrames {
			np.maxFrames = q.frames
		}
	}
	qs.cur.Store(np)
	if np.preFilter {
		qs.publishPreFilterGauges(np)
	}
}

// NewQuerySet builds an empty query set with K hash functions drawn from
// seed. useIndex selects Hash-Query-index probing over linear scans.
func NewQuerySet(k int, seed int64, useIndex bool) (*QuerySet, error) {
	fam, err := minhash.NewFamily(k, seed)
	if err != nil {
		return nil, err
	}
	qs := &QuerySet{
		fam:      fam,
		k:        k,
		seed:     seed,
		useIndex: useIndex,
	}
	qs.cur.Store(&queryPlane{queries: make(map[int]*queryInfo)})
	return qs, nil
}

// K returns the number of hash functions.
func (qs *QuerySet) K() int { return qs.k }

// Family exposes the shared hash family.
func (qs *QuerySet) Family() *minhash.Family { return qs.fam }

// Len returns the number of subscribed queries.
func (qs *QuerySet) Len() int { return len(qs.view().queries) }

// Version returns the current query-plane version: 0 for the empty set,
// incremented by every Add/AddBatch/Remove/EnablePreFilter. Engines stamp
// the version they captured, so tests (and the fleet's stats surface) can
// verify that in-flight windows stay on the plane they started with.
func (qs *QuerySet) Version() uint64 { return qs.view().version }

// PlaneBytes estimates the memory footprint of the current query plane —
// sketches, Hash-Query index and pre-filter. Shared by every engine on the
// set: the whole point of the plane split is that this figure is paid once
// per process regardless of the stream count.
func (qs *QuerySet) PlaneBytes() int { return qs.view().bytes() }

// IDs returns the subscribed query ids (unordered).
func (qs *QuerySet) IDs() []int {
	v := qs.view()
	out := make([]int, 0, len(v.queries))
	for id := range v.queries {
		out = append(out, id)
	}
	return out
}

// checkAdd is every reason Add and AddBatch refuse a subscription, tested
// against this plane without touching it.
func (v *queryPlane) checkAdd(ids []int, cellIDs [][]uint64) error {
	if len(ids) != len(cellIDs) {
		return fmt.Errorf("core: AddBatch got %d ids but %d queries", len(ids), len(cellIDs))
	}
	for i, id := range ids {
		if len(cellIDs[i]) == 0 {
			return fmt.Errorf("core: query %d has no frames", id)
		}
		if _, dup := v.queries[id]; dup {
			return fmt.Errorf("core: query id %d already subscribed", id)
		}
	}
	if len(ids) > 1 {
		seen := make(map[int]bool, len(ids))
		for _, id := range ids {
			if seen[id] {
				return fmt.Errorf("core: query id %d duplicated in batch", id)
			}
			seen[id] = true
		}
	}
	return nil
}

// checkRemove is the one reason Remove refuses.
func (v *queryPlane) checkRemove(id int) error {
	if _, ok := v.queries[id]; !ok {
		return fmt.Errorf("core: query id %d not subscribed", id)
	}
	return nil
}

// CheckAdd reports the error Add (one id) or AddBatch would return for
// these subscriptions against the current plane, and nil when they would
// land. A caller that must make a change durable before it takes effect
// validates with it first, so that nothing invalid is ever logged.
func (qs *QuerySet) CheckAdd(ids []int, cellIDs [][]uint64) error {
	return qs.view().checkAdd(ids, cellIDs)
}

// CheckRemove is CheckAdd's counterpart for Remove.
func (qs *QuerySet) CheckRemove(id int) error { return qs.view().checkRemove(id) }

// Add subscribes a query given the cell ids of its key frames. The new
// plane is built copy-on-write and published atomically: engines mid-window
// finish on the old version and see the query at their next window.
func (qs *QuerySet) Add(id int, cellIDs []uint64) error {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if err := qs.view().checkAdd([]int{id}, [][]uint64{cellIDs}); err != nil {
		return err
	}
	q := &queryInfo{
		id:      id,
		frames:  len(cellIDs),
		sketch:  qs.fam.SketchSet(cellIDs),
		cellIDs: append([]uint64(nil), cellIDs...),
	}
	np := qs.begin()
	if err := qs.insert(np, q); err != nil {
		return err
	}
	qs.publish(np)
	return nil
}

// insert wires an already-sketched query into a not-yet-published plane,
// cloning the index and filter it mutates; callers hold mu.
func (qs *QuerySet) insert(np *queryPlane, q *queryInfo) error {
	iq := qindex.Query{ID: q.id, Length: q.frames, Sketch: q.sketch}
	if qs.useIndex {
		if np.index == nil {
			idx, err := qindex.Build([]qindex.Query{iq})
			if err != nil {
				return err
			}
			np.index, np.ownedIndex = idx, true
		} else {
			if !np.ownedIndex {
				np.index, np.ownedIndex = np.index.Clone(), true
			}
			if err := np.index.Add(iq); err != nil {
				return err
			}
		}
	}
	np.queries[q.id] = q
	np.scan.Queries = append(np.scan.Queries, iq)
	if np.preFilter {
		if np.pf == nil || np.pf.NeedsRebuild() {
			qs.rebuildPreFilter(np)
		} else {
			if !np.ownedPF {
				np.pf, np.ownedPF = np.pf.Clone(), true
			}
			np.pf.AddSketch(q.sketch)
		}
	}
	return nil
}

// AddBatch subscribes many queries in one operation. The Hash-Query index
// is rebuilt once with a bulk Build — O(K·m log m) for the whole batch
// instead of the O(K·m) slice insertions per query the incremental path
// pays (O(K·m²) total), which is the difference between seconds and hours
// at the 10⁵–10⁶ query scale the pre-filter tier targets. The batch is
// validated before any mutation, so an error leaves the set unchanged, and
// the whole batch lands as a single new plane version.
func (qs *QuerySet) AddBatch(ids []int, cellIDs [][]uint64) error {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if err := qs.view().checkAdd(ids, cellIDs); err != nil {
		return err
	}
	np := qs.begin()
	batch := make([]*queryInfo, len(ids))
	all := np.scan.Queries
	for i, id := range ids {
		q := &queryInfo{
			id:      id,
			frames:  len(cellIDs[i]),
			sketch:  qs.fam.SketchSet(cellIDs[i]),
			cellIDs: append([]uint64(nil), cellIDs[i]...),
		}
		batch[i] = q
		all = append(all, qindex.Query{ID: q.id, Length: q.frames, Sketch: q.sketch})
	}
	if qs.useIndex && len(all) > 0 {
		idx, err := qindex.Build(all)
		if err != nil {
			return err
		}
		np.index = idx
	}
	for _, q := range batch {
		np.queries[q.id] = q
	}
	np.scan.Queries = all
	if np.preFilter {
		qs.rebuildPreFilter(np)
	}
	qs.publish(np)
	return nil
}

// Remove unsubscribes a query. Like Add, the removal lands as a new plane
// version: candidates tracking the query on engines mid-window finish
// their window against the old plane and drop it at their next one.
func (qs *QuerySet) Remove(id int) error {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if err := qs.view().checkRemove(id); err != nil {
		return err
	}
	np := qs.begin()
	delete(np.queries, id)
	for i, q := range np.scan.Queries {
		if q.ID == id {
			np.scan.Queries = append(np.scan.Queries[:i], np.scan.Queries[i+1:]...)
			break
		}
	}
	if np.index != nil {
		idx := np.index.Clone()
		if err := idx.Remove(id); err != nil {
			return err
		}
		np.index, np.ownedIndex = idx, true
	}
	if np.preFilter && np.pf != nil {
		// Bloom bits are shared, so removal only marks keys dead; rebuild
		// from the authoritative list once staleness trips the threshold.
		pf := np.pf.Clone()
		pf.RemoveKeys(qs.k)
		np.pf, np.ownedPF = pf, true
		if pf.NeedsRebuild() {
			qs.rebuildPreFilter(np)
		}
	}
	qs.publish(np)
	return nil
}

// EnablePreFilter turns the Bloom tier on for this set (idempotent). The
// filter is built from the current subscriptions; subsequent Add/Remove
// keep it consistent through the copy-on-write plane.
func (qs *QuerySet) EnablePreFilter() {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if qs.view().preFilter {
		return
	}
	np := qs.begin()
	np.preFilter = true
	qs.rebuildPreFilter(np)
	qs.publish(np)
}

// rebuildPreFilter reconstructs the plane's filter from its authoritative
// query list, sized with ~25% headroom so steady churn doesn't rebuild
// every insert; callers hold mu and own np (not yet published).
func (qs *QuerySet) rebuildPreFilter(np *queryPlane) {
	n := len(np.scan.Queries)
	pf := prefilter.New((n+n/4+4)*qs.k, 0)
	for _, iq := range np.scan.Queries {
		pf.AddSketch(iq.Sketch)
	}
	np.pf, np.ownedPF = pf, true
	qs.pfRebuilds.Add(1)
	telPrefilterRebuilds.Inc()
}

// publishPreFilterGauges refreshes the tier's memory-accounting gauges.
// Gauge stores are single atomics, so doing this on every churn operation
// is free relative to the O(K) filter work.
func (qs *QuerySet) publishPreFilterGauges(np *queryPlane) {
	if np.pf == nil {
		return
	}
	b := float64(np.pf.Bytes())
	telPrefilterBytes.Set(b)
	if n := len(np.queries); n > 0 {
		telPrefilterBytesPerQuery.Set(b / float64(n))
	} else {
		telPrefilterBytesPerQuery.Set(0)
	}
}

// preFilterStats returns the tier's memory accounting: filter bytes, live
// keys, rebuild count and whether the tier is active.
func (qs *QuerySet) preFilterStats() (bytes, keys int, rebuilds int64, enabled bool) {
	v := qs.view()
	if !v.preFilter || v.pf == nil {
		return 0, 0, qs.pfRebuilds.Load(), v.preFilter
	}
	return v.pf.Bytes(), v.pf.Keys(), qs.pfRebuilds.Load(), true
}

// Serialisation format "VQS1": K, seed, useIndex, count, then per query
// id, length and K raw sketch values — everything needed to reconstruct
// the set (the index is rebuilt on load, which the paper treats as an
// offline step anyway).
var qsMagic = [4]byte{'V', 'Q', 'S', '1'}

// ErrBadQuerySet is returned by LoadQuerySet on malformed input.
var ErrBadQuerySet = errors.New("core: not a VQS1 query-set stream")

// Save writes the query set to w. The snapshot is one consistent plane:
// concurrent churn lands in the next version and is not torn across the
// written stream.
func (qs *QuerySet) Save(w io.Writer) error {
	v := qs.view()
	var hdr [25]byte
	copy(hdr[:4], qsMagic[:])
	binary.BigEndian.PutUint32(hdr[4:], uint32(qs.k))
	binary.BigEndian.PutUint64(hdr[8:], uint64(qs.seed))
	if qs.useIndex {
		hdr[16] = 1
	}
	binary.BigEndian.PutUint64(hdr[17:], uint64(len(v.queries)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	// Deterministic order via the scan list (insertion order).
	for _, iq := range v.scan.Queries {
		var qh [16]byte
		binary.BigEndian.PutUint64(qh[:8], uint64(iq.ID))
		binary.BigEndian.PutUint64(qh[8:], uint64(iq.Length))
		if _, err := w.Write(qh[:]); err != nil {
			return err
		}
		buf := make([]byte, 8*len(iq.Sketch))
		for i, val := range iq.Sketch {
			binary.BigEndian.PutUint64(buf[i*8:], val)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// LoadQuerySet reconstructs a query set saved with Save, rebuilding the
// Hash-Query index through the same insertion sequence.
func LoadQuerySet(r io.Reader) (*QuerySet, error) {
	var hdr [25]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: reading query-set header: %w", err)
	}
	if [4]byte(hdr[:4]) != qsMagic {
		return nil, ErrBadQuerySet
	}
	k := int(binary.BigEndian.Uint32(hdr[4:]))
	seed := int64(binary.BigEndian.Uint64(hdr[8:]))
	useIndex := hdr[16] == 1
	count := binary.BigEndian.Uint64(hdr[17:])
	if count > 1<<20 {
		return nil, fmt.Errorf("core: implausible query count %d", count)
	}
	qs, err := NewQuerySet(k, seed, useIndex)
	if err != nil {
		return nil, err
	}
	qs.mu.Lock()
	defer qs.mu.Unlock()
	np := qs.begin()
	for n := uint64(0); n < count; n++ {
		var qh [16]byte
		if _, err := io.ReadFull(r, qh[:]); err != nil {
			return nil, fmt.Errorf("core: reading query %d: %w", n, err)
		}
		id := int(binary.BigEndian.Uint64(qh[:8]))
		length := int(binary.BigEndian.Uint64(qh[8:]))
		if length <= 0 {
			return nil, fmt.Errorf("core: query %d has non-positive length", id)
		}
		buf := make([]byte, 8*k)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("core: reading query %d sketch: %w", id, err)
		}
		sk := make(minhash.Sketch, k)
		for i := range sk {
			sk[i] = binary.BigEndian.Uint64(buf[i*8:])
		}
		if _, dup := np.queries[id]; dup {
			return nil, fmt.Errorf("core: query id %d duplicated in stream", id)
		}
		if err := qs.insert(np, &queryInfo{id: id, frames: length, sketch: sk}); err != nil {
			return nil, err
		}
	}
	qs.publish(np)
	return qs, nil
}
