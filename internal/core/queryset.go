package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"vdsms/internal/minhash"
	"vdsms/internal/qindex"
	"vdsms/internal/snapshot"
)

// QuerySet holds the subscribed continuous queries — sketches, lengths and
// the query index — independently of any stream. Multiple Engines (one per
// monitored stream, the paper's "many concurrent video streams" setting)
// share one QuerySet, so query memory is O(queries), not O(queries ×
// streams).
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
	mu sync.Mutex
	// cur is the current immutable plane, swapped atomically on churn.
	cur atomic.Pointer[queryPlane]
}

// queryPlane is one immutable version of the shared query plane: its
// number and the query index, whose slots are the plane's one copy of the
// subscription set — with the index on, the index of paper Section V.C;
// without it, the same slots without postings, which a probe scans. Nothing
// in a published plane is ever mutated — writers build a successor beside
// it — so engines read it without locks.
type queryPlane struct {
	version uint64
	index   *qindex.Index
}

// view returns the current immutable plane (never nil).
func (qs *QuerySet) view() *queryPlane { return qs.cur.Load() }

// NewQuerySet builds an empty query set with K hash functions drawn from
// seed. useIndex selects query-index probing over linear scans.
func NewQuerySet(k int, seed int64, useIndex bool) (*QuerySet, error) {
	fam, err := minhash.NewFamily(k, seed)
	if err != nil {
		return nil, err
	}
	build := qindex.NewScan
	if useIndex {
		build = qindex.New
	}
	idx, err := build(fam, nil)
	if err != nil {
		return nil, err
	}
	qs := &QuerySet{fam: fam, k: k, seed: seed, useIndex: useIndex}
	qs.publish(&queryPlane{index: idx})
	return qs, nil
}

// K returns the number of hash functions.
func (qs *QuerySet) K() int { return qs.k }

// CheckConfig reports why an engine under cfg cannot run on the set — a K
// or a seed other than the set's, which would compare sketches of two hash
// families — and nil when it can.
func (qs *QuerySet) CheckConfig(cfg Config) error {
	if cfg.K != qs.k || cfg.Seed != qs.seed {
		return fmt.Errorf("core: config has K=%d seed=%d but the query set has K=%d seed=%d",
			cfg.K, cfg.Seed, qs.k, qs.seed)
	}
	return nil
}

// Family exposes the shared hash family.
func (qs *QuerySet) Family() *minhash.Family { return qs.fam }

// Len returns the number of subscribed queries.
func (qs *QuerySet) Len() int { return qs.view().index.Len() }

// Version returns the current query-plane version: 0 for the empty set,
// incremented by every Add/AddBatch/Remove. Engines stamp the version they
// captured, so tests (and the fleet's stats surface) can verify that
// in-flight windows stay on the plane they started with.
func (qs *QuerySet) Version() uint64 { return qs.view().version }

// PlaneBytes estimates the memory footprint of the current query plane:
// the index's slots, postings and tries and the sketches and retained cell
// ids its slots carry, all counted as they change. Shared by every engine
// on the set: the whole point of the plane split is that this figure is
// paid once per process regardless of the stream count.
func (qs *QuerySet) PlaneBytes() int {
	idx := qs.view().index
	return idx.Bytes() + idx.HeldBytes()
}

// IndexBytes returns the memory the current plane's query index holds
// beside the sketches (qindex.Index.Bytes); 0 without an index.
func (qs *QuerySet) IndexBytes() int {
	if !qs.useIndex {
		return 0
	}
	return qs.view().index.Bytes()
}

// IDs returns the subscribed query ids, ascending.
func (qs *QuerySet) IDs() []int { return qs.view().index.QueryIDs(nil) }

// subscriptions pairs ids with the cell ids of their key frames as queries
// the plane's index validates and, when they join, sketches.
func subscriptions(ids []int, cellIDs [][]uint64) ([]qindex.Query, error) {
	if len(ids) != len(cellIDs) {
		return nil, fmt.Errorf("core: AddBatch got %d ids but %d queries", len(ids), len(cellIDs))
	}
	batch := make([]qindex.Query, len(ids))
	for i, id := range ids {
		batch[i] = qindex.Query{ID: id, Length: len(cellIDs[i]), CellIDs: cellIDs[i]}
	}
	return batch, nil
}

// CheckAdd reports the error Add (one id) or AddBatch would return for
// these subscriptions against the current plane, and nil when they would
// land. A caller that must make a change durable before it takes effect
// validates with it first, so that nothing invalid is ever logged.
func (qs *QuerySet) CheckAdd(ids []int, cellIDs [][]uint64) error {
	batch, err := subscriptions(ids, cellIDs)
	if err != nil {
		return err
	}
	return qs.view().index.Check(batch)
}

// CheckRemove is CheckAdd's counterpart for Remove.
func (qs *QuerySet) CheckRemove(id int) error {
	if qs.view().index.Lookup(id) == nil {
		return fmt.Errorf("core: query id %d not subscribed", id)
	}
	return nil
}

// Add subscribes a query given the cell ids of its key frames. The new
// plane is built copy-on-write and published atomically: engines mid-window
// finish on the old version and see the query at their next window.
func (qs *QuerySet) Add(id int, cellIDs []uint64) error {
	return qs.AddBatch([]int{id}, [][]uint64{cellIDs})
}

// AddBatch subscribes many queries in one operation: one index clone, one
// insert per query into it, and the whole batch lands as a single new
// plane version. The batch is validated before any mutation, so an error
// leaves the set unchanged.
func (qs *QuerySet) AddBatch(ids []int, cellIDs [][]uint64) error {
	batch, err := subscriptions(ids, cellIDs)
	if err != nil {
		return err
	}
	return qs.insert(batch)
}

// insert is the one way queries join the set — Add, AddBatch, LoadQuerySet
// and RestoreEngine all come through it: the index validates the batch,
// takes it into a clone of itself, and the clone is published as the next
// plane version.
func (qs *QuerySet) insert(batch []qindex.Query) error {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	v := qs.view()
	idx, err := v.index.With(batch)
	if err != nil {
		return err
	}
	qs.publish(&queryPlane{version: v.version + 1, index: idx})
	return nil
}

// Remove unsubscribes a query. Like Add, the removal lands as a new plane
// version: candidates tracking the query on engines mid-window finish
// their window against the old plane and drop it at their next one.
func (qs *QuerySet) Remove(id int) error {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	v := qs.view()
	idx := v.index.Clone()
	if err := idx.Remove(id); err != nil {
		return err
	}
	qs.publish(&queryPlane{version: v.version + 1, index: idx})
	return nil
}

// publish makes p the current plane and reports it on the
// vcd_fleet_plane_bytes and vcd_fleet_plane_version gauges, whichever
// caller — a fleet, a detector, the server — changed the subscription set.
func (qs *QuerySet) publish(p *queryPlane) {
	qs.cur.Store(p)
	telPlaneBytes.Set(float64(qs.PlaneBytes()))
	telPlaneVersion.Set(float64(p.version))
}

// EnablePreFilter does nothing. It turned on a row pre-filter in front of
// the query index, which the index now is itself (DESIGN.md §10); it stays
// for one release so that code calling it still compiles.
func (qs *QuerySet) EnablePreFilter() {}

// Saved query sets. Save writes "VQS2": the magic, K (32 bits) and the
// seed (64 bits), big-endian, then the query codec's bytes
// (internal/snapshot) — each query's id and key-frame cell ids, from which
// LoadQuerySet derives its sketch. "VQS1", the format before it, went on
// with an index flag and a count (8 bytes) and then per query its id and
// length (8 bytes each) and its K raw sketch values; LoadQuerySet still
// reads it, to sketch-only queries, which Save writes back as the codec's
// sketch entries.
var (
	qsMagic       = [4]byte{'V', 'Q', 'S', '2'}
	qsMagicSketch = [4]byte{'V', 'Q', 'S', '1'}
)

// ErrBadQuerySet is returned by LoadQuerySet on input that is not a saved
// query set.
var ErrBadQuerySet = errors.New("core: not a saved query-set stream")

// Save writes the query set to w. The snapshot is one consistent plane:
// concurrent churn lands in the next version and is not torn across the
// written stream.
func (qs *QuerySet) Save(w io.Writer) error {
	hdr := binary.BigEndian.AppendUint32(qsMagic[:], uint32(qs.k))
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(qs.seed))
	_, err := w.Write(snapshot.AppendQueries(hdr, qs.view().index.Queries()))
	return err
}

// LoadQuerySet reconstructs a query set saved with Save under cfg's K, seed
// and UseIndex. The K and seed its header names must be cfg's, and a
// mismatch is refused before one query is read. The queries join in saved
// order through the one validated insert, which sketches each from its
// cells under cfg's hash family. r must end where the set ends: a VQS2
// set is read to the end of r, and bytes after it are refused.
func LoadQuerySet(cfg Config, r io.Reader) (*QuerySet, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: reading query-set header: %w", err)
	}
	magic := [4]byte(hdr[:4])
	if magic != qsMagic && magic != qsMagicSketch {
		return nil, ErrBadQuerySet
	}
	k, seed := binary.BigEndian.Uint32(hdr[4:]), int64(binary.BigEndian.Uint64(hdr[8:]))
	if int64(k) != int64(cfg.K) || seed != cfg.Seed {
		return nil, fmt.Errorf("core: saved query set has K=%d seed=%d, config has K=%d seed=%d", k, seed, cfg.K, cfg.Seed)
	}
	qs, err := NewQuerySet(cfg.K, cfg.Seed, cfg.UseIndex)
	if err != nil {
		return nil, err
	}
	var batch []qindex.Query
	if magic == qsMagic {
		var data []byte
		if data, err = io.ReadAll(r); err == nil {
			batch, err = snapshot.ParseQueries(data)
		}
	} else {
		batch, err = readSketchQueries(r, cfg.K)
	}
	if err != nil {
		return nil, fmt.Errorf("core: reading saved queries: %w", err)
	}
	if err := qs.insert(batch); err != nil {
		return nil, err
	}
	return qs, nil
}

// readSketchQueries reads the rest of a VQS1 stream, whose K and seed have
// been checked: the index flag (the loader's UseIndex rules instead), the
// count, then per query its id, its length and its k sketch values.
func readSketchQueries(r io.Reader, k int) ([]qindex.Query, error) {
	buf := make([]byte, 16+8*k)
	if _, err := io.ReadFull(r, buf[:9]); err != nil {
		return nil, err
	}
	count := binary.BigEndian.Uint64(buf[1:])
	if count > 1<<20 {
		return nil, fmt.Errorf("implausible query count %d", count)
	}
	var batch []qindex.Query
	for n := uint64(0); n < count; n++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("query %d: %w", n, err)
		}
		sk := make(minhash.Sketch, k)
		for i := range sk {
			sk[i] = binary.BigEndian.Uint64(buf[16+8*i:])
		}
		batch = append(batch, qindex.Query{ID: int(binary.BigEndian.Uint64(buf)),
			Length: int(binary.BigEndian.Uint64(buf[8:])), Sketch: sk})
	}
	return batch, nil
}
