// Bounded heavy-hitter tracking: the space-saving sketch of Metwally,
// Agrawal & El Abbadi ("Efficient Computation of Frequent and Top-k
// Elements in Data Streams", ICDT 2005). Memory is O(k) regardless of how
// many distinct keys flow through — the property that lets a 1024-stream
// fleet name its worst streams without per-stream metric labels.
package perfobs

import (
	"sort"
	"sync"
)

// Item is one tracked heavy hitter. Count over-estimates the key's true
// weight by at most Err (the count of the entry it displaced), the standard
// space-saving guarantee.
type Item struct {
	Key   string `json:"key"`
	Count int64  `json:"count"`
	Err   int64  `json:"err,omitempty"`
}

// TopK is a concurrency-safe space-saving sketch over weighted keys.
// Eviction ties break on the lexicographically smallest key so two runs
// observing the same sequence produce identical sketches.
type TopK struct {
	mu    sync.Mutex
	k     int
	items map[string]*Item
	max   int64
}

// NewTopK builds a sketch tracking at most k keys (k < 1 is clamped to 1);
// its map is made by the first observation.
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k}
}

// Observe adds weight w to key. Non-positive weights are ignored.
func (t *TopK) Observe(key string, w int64) {
	if w <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if it, ok := t.items[key]; ok {
		it.Count += w
		if it.Count > t.max {
			t.max = it.Count
		}
		return
	}
	if len(t.items) < t.k {
		if t.items == nil {
			t.items = make(map[string]*Item, t.k)
		}
		it := &Item{Key: key, Count: w}
		t.items[key] = it
		if it.Count > t.max {
			t.max = it.Count
		}
		return
	}
	// Displace the minimum-count entry (deterministic tie-break), keeping
	// its count as the newcomer's floor and error bound.
	var min *Item
	for _, it := range t.items {
		if min == nil || it.Count < min.Count ||
			(it.Count == min.Count && it.Key < min.Key) {
			min = it
		}
	}
	delete(t.items, min.Key)
	it := &Item{Key: key, Count: min.Count + w, Err: min.Count}
	t.items[key] = it
	if it.Count > t.max {
		t.max = it.Count
	}
}

// Items returns the tracked entries sorted by descending count (key
// ascending on ties), truncated to limit when limit > 0.
func (t *TopK) Items(limit int) []Item {
	t.mu.Lock()
	out := make([]Item, 0, len(t.items))
	for _, it := range t.items {
		out = append(out, *it)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

// Max returns the largest count ever held by an entry (0 when empty).
func (t *TopK) Max() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.max
}

// Len returns the number of tracked keys.
func (t *TopK) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.items)
}
