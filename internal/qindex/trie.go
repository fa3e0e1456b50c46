package qindex

import (
	"math/bits"
	"slices"
)

// token marks what an index may change in place: the trie nodes and posting
// lists it made since it was built or last cloned. Clone hands both sides a
// fresh one, so that neither writes anything the other can reach.
type token struct{ _ byte }

// keyed is a value a trie holds; it carries its own key.
type keyed interface{ key() uint64 }

// trie is a persistent map from uint64 keys to values: a hash array mapped
// trie of 16-way nodes, each holding its leaves and its child nodes in two
// arrays, one entry per set bit of the matching bitmap. A change copies the
// nodes on its key's path that its token does not own, so a version costs
// O(log n) bytes and is never seen by the versions it shares nodes with. A
// node holds at least two keys below it, and a key's leaf sits at the
// shallowest depth that tells it apart: the shape depends on the keys
// alone, not on the history that put them there.
type trie[V keyed] struct {
	root  *tnode[V]
	n     int // values held
	bytes int // footprint of the nodes
}

type tnode[V keyed] struct {
	leafBits, subBits uint32 // which children are leaves, which nodes
	owner             *token
	leaves            []V
	subs              []*tnode[V]
}

const (
	fanBits   = 4
	nodeBytes = 64 // a tnode
)

func (n *tnode[V]) size() int { return nodeBytes + 8*(cap(n.leaves)+cap(n.subs)) }

// spread is the SplitMix64 finaliser, a bijection: two keys share the hash
// bits a depth reads only while they share every bit read before it, and
// differ by the last depth.
func spread(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ k>>31
}

// bitAt is the bit of hash h's child at depth d.
func bitAt(h uint64, d int) uint32 { return 1 << (h >> (fanBits * d) & (1<<fanBits - 1)) }

// below is the place in an array of the child with bit b.
func below(set, b uint32) int { return bits.OnesCount32(set & (b - 1)) }

// get returns the value of key k.
func (t *trie[V]) get(k uint64) (v V, ok bool) {
	h := spread(k)
	for n, d := t.root, 0; n != nil; d++ {
		b := bitAt(h, d)
		if n.subBits&b != 0 {
			n = n.subs[below(n.subBits, b)]
			continue
		}
		if n.leafBits&b != 0 {
			if leaf := n.leaves[below(n.leafBits, b)]; leaf.key() == k {
				return leaf, true
			}
		}
		break
	}
	return v, false
}

// writable returns *p once tok owns it: *p itself, or a copy put in its
// place. The caller owns the node holding p, so owned nodes' ancestors are
// owned too.
func (t *trie[V]) writable(tok *token, p **tnode[V]) *tnode[V] {
	n := *p
	if n.owner != tok {
		c := &tnode[V]{leafBits: n.leafBits, subBits: n.subBits, owner: tok,
			leaves: slices.Clone(n.leaves), subs: slices.Clone(n.subs)}
		t.bytes += c.size() - n.size()
		*p, n = c, c
	}
	return n
}

// put sets the value of v's key to v.
func (t *trie[V]) put(tok *token, v V) {
	k := v.key()
	h := spread(k)
	if t.root == nil {
		t.root = &tnode[V]{owner: tok}
		t.bytes += t.root.size()
	}
	for p, d := &t.root, 0; ; d++ {
		n := t.writable(tok, p)
		b := bitAt(h, d)
		if n.subBits&b != 0 {
			p = &n.subs[below(n.subBits, b)]
			continue
		}
		before := n.size()
		i := below(n.leafBits, b)
		switch {
		case n.leafBits&b == 0:
			n.leaves = slices.Insert(n.leaves, i, v)
			n.leafBits |= b
			t.n++
		case n.leaves[i].key() == k:
			n.leaves[i] = v
		default: // another key's leaf: move it one level down and go on
			old := n.leaves[i]
			sub := &tnode[V]{leafBits: bitAt(spread(old.key()), d+1), owner: tok, leaves: []V{old}}
			t.bytes += sub.size()
			n.leaves = slices.Delete(n.leaves, i, i+1)
			n.leafBits &^= b
			j := below(n.subBits, b)
			n.subs = slices.Insert(n.subs, j, sub)
			n.subBits |= b
			t.bytes += n.size() - before
			p = &n.subs[j]
			continue
		}
		t.bytes += n.size() - before
		return
	}
}

// del removes key k, which the trie holds.
func (t *trie[V]) del(tok *token, k uint64) {
	t.delAt(tok, &t.root, spread(k), 0)
	t.n--
}

// delAt removes the leaf of hash h from the subtree at *p, of depth d, and
// lifts a leaf left alone in a node into the node's place.
func (t *trie[V]) delAt(tok *token, p **tnode[V], h uint64, d int) {
	n := t.writable(tok, p)
	b := bitAt(h, d)
	before := n.size()
	if n.subBits&b != 0 {
		j := below(n.subBits, b)
		t.delAt(tok, &n.subs[j], h, d+1)
		if sub := n.subs[j]; sub.subBits == 0 && len(sub.leaves) == 1 {
			n.subs = slices.Delete(n.subs, j, j+1)
			n.subBits &^= b
			n.leaves = slices.Insert(n.leaves, below(n.leafBits, b), sub.leaves[0])
			n.leafBits |= b
			t.bytes -= sub.size()
		}
	} else {
		i := below(n.leafBits, b)
		n.leaves = slices.Delete(n.leaves, i, i+1)
		n.leafBits &^= b
	}
	t.bytes += n.size() - before
	if n.leafBits|n.subBits == 0 { // only the root ever empties
		t.bytes -= n.size()
		*p = nil
	}
}

// each calls f with every value, in hash order.
func (t *trie[V]) each(f func(V)) {
	if t.root != nil {
		t.root.each(f)
	}
}

func (n *tnode[V]) each(f func(V)) {
	for _, leaf := range n.leaves {
		f(leaf)
	}
	for _, sub := range n.subs {
		sub.each(f)
	}
}
