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

// Serialisation format "VQS1": K, seed, useIndex, count, then per query
// id, length and K raw sketch values — everything needed to reconstruct
// the set (the index is rebuilt on load by inverting the sketches into
// their cells, which the paper treats as an offline step anyway).
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
	binary.BigEndian.PutUint64(hdr[17:], uint64(v.index.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, iq := range v.index.Queries() {
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
// query index through the same insertion sequence.
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
	var batch []qindex.Query
	for n := uint64(0); n < count; n++ {
		var qh [16]byte
		if _, err := io.ReadFull(r, qh[:]); err != nil {
			return nil, fmt.Errorf("core: reading query %d: %w", n, err)
		}
		id := int(binary.BigEndian.Uint64(qh[:8]))
		buf := make([]byte, 8*k)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("core: reading query %d sketch: %w", id, err)
		}
		sk := make(minhash.Sketch, k)
		for i := range sk {
			sk[i] = binary.BigEndian.Uint64(buf[i*8:])
		}
		batch = append(batch, qindex.Query{ID: id, Length: int(binary.BigEndian.Uint64(qh[8:])), Sketch: sk})
	}
	if err := qs.insert(batch); err != nil {
		return nil, err
	}
	return qs, nil
}
