package core

import (
	"cmp"
	"slices"
	"sort"

	"vdsms/internal/bitsig"
	"vdsms/internal/qindex"
)

// Candidate maps are iterated in sorted query-id order wherever iteration
// can emit matches, so identical inputs always produce identical match
// sequences — a requirement for reproducible experiments.

// sortedKeys returns the keys of a per-query map in ascending order,
// appended to buf[:0]: callers hand in the engine's key buffer and store
// the result back, so the walk allocates only when the buffer grows.
func sortedKeys[V any](buf []int, m map[int]V) []int {
	buf = buf[:0]
	for qid := range m {
		buf = append(buf, qid)
	}
	sort.Ints(buf)
	return buf
}

// findSig returns the signature of query qid in a related list sorted by
// query id, or nil when the query is not related to the window.
func findSig(rel []qindex.Result, qid int) *bitsig.Signature {
	i, ok := slices.BinarySearchFunc(rel, qid, func(r qindex.Result, qid int) int { return cmp.Compare(r.QID, qid) })
	if !ok {
		return nil
	}
	return rel[i].Sig
}
