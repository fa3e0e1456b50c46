// The query codec: the module's one encoding of subscribed queries, shared
// by the WAL's add record, a checkpoint's plane section and core's saved
// query sets (QuerySet.Save, which is also a fleet checkpoint's plane). A
// query is stored as what it was built from — its id and the cell id of
// each key frame — never as its sketch: a K-min-hash sketch is a function
// of K, the seed and the cells, so a loader derives it under the K and
// seed of its own configuration, through the plane's one validated insert.
//
//	queries = uvarint n | n × entry
//	entry   = varint id | uvarint cells (> 0) | cells × uvarint cell id
//	        | varint id | 0 | uvarint length | uvarint k | k × uvarint sketch value
//
// The second form holds a query that arrived through a format that kept
// only sketches (VQS1, a version 1 checkpoint or fleet container): its
// cells are gone, since a sketch names premixed winners, which cannot be
// turned back into raw cell ids. No query has zero frames, so a zero cell
// count cannot start a cell entry. Only such queries are written this way,
// so a resumed old checkpoint folds into a new one; a lineage that starts
// from cells never writes it.
package snapshot

import (
	"encoding/binary"
	"fmt"

	"vdsms/internal/qindex"
)

// AppendQueries appends the encoding of queries to p: cell entries for the
// queries that carry their cells, sketch entries for those that do not.
func AppendQueries(p []byte, queries []qindex.Query) []byte {
	p = binary.AppendUvarint(p, uint64(len(queries)))
	for _, q := range queries {
		p = binary.AppendVarint(p, int64(q.ID))
		vs := q.CellIDs
		if vs == nil {
			p = binary.AppendUvarint(binary.AppendUvarint(p, 0), uint64(q.Length))
			vs = q.Sketch
		}
		p = binary.AppendUvarint(p, uint64(len(vs)))
		for _, v := range vs {
			p = binary.AppendUvarint(p, v)
		}
	}
	return p
}

// ParseQueries decodes all of p as AppendQueries wrote it. A query of cells
// comes back with Length its cell count and no sketch; a query of a sketch
// with that sketch and no cells. Every count is held against the bytes
// left, so p cannot make it allocate more than a small multiple of len(p).
func ParseQueries(p []byte) ([]qindex.Query, error) {
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	count := func() (int, bool) {
		v, ok := uvarint()
		return int(v), ok && v <= uint64(len(p))
	}
	fail := func(what string, i int) ([]qindex.Query, error) {
		return nil, fmt.Errorf("malformed %s of query %d", what, i)
	}
	nq, ok := count()
	if !ok {
		return fail("count", 0)
	}
	out := make([]qindex.Query, nq)
	for i := range out {
		q := &out[i]
		id, n := binary.Varint(p)
		if n <= 0 {
			return fail("id", i)
		}
		p = p[n:]
		q.ID = int(id)
		nv, ok := count()
		sketch := ok && nv == 0
		if sketch {
			length, lok := uvarint()
			nv, ok = count()
			q.Length = int(length)
			ok = ok && lok && q.Length > 0
		}
		if !ok {
			return fail("header", i)
		}
		vs := make([]uint64, nv)
		for j := range vs {
			if vs[j], ok = uvarint(); !ok {
				return fail("values", i)
			}
		}
		if sketch {
			q.Sketch = vs
		} else {
			q.Length, q.CellIDs = nv, vs
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("malformed queries (%d trailing bytes)", len(p))
	}
	return out, nil
}
