package core

import "atmcac/internal/bitstream"

// node is one member of a persistent treap keyed by ConnID; a nil *node is
// the empty tree. Nodes are immutable: an edit copies the nodes on one
// root-to-leaf path and shares every other subtree, so a published root can
// be read without a lock while writers build its successors.
//
// A node's heap rank is a hash of its key, so the shape of the tree is a
// function of the key set alone, whatever inserts and removes produced it.
// Every node stores the Algorithm 3.2 sum of its subtree, always taken as
// (left, own, right): with the shape fixed so is the order of every float
// addition, and two trees over the same members hold bit-identical sums.
type node[V summand] struct {
	key         ConnID
	rank        uint64
	val         V
	sum         bitstream.Stream
	left, right *node[V]
}

// summand is a tree member's say in its subtree's aggregate: given the
// aggregates of the subtrees to its left and right it returns the node's
// own. A tree used as a plain index returns the zero stream and pays nothing.
type summand interface {
	sumWith(left, right bitstream.Stream) bitstream.Stream
}

// rankOf hashes a key to its heap rank: FNV-1a, then the murmur3 finalizer,
// because IDs that differ only in a trailing counter must still get
// unrelated ranks for the tree to stay O(log n) deep. It is unkeyed on
// purpose — primary, standby and replay have to build the same tree.
func rankOf(key ConnID) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// above reports whether n belongs nearer the root than m; equal ranks fall
// back to key order so the shape stays unique.
func (n *node[V]) above(m *node[V]) bool {
	return n.rank > m.rank || n.rank == m.rank && n.key < m.key
}

// total returns the aggregate of the whole tree.
func (n *node[V]) total() bitstream.Stream {
	if n == nil {
		return bitstream.Stream{}
	}
	return n.sum
}

// with returns a copy of n over the children l and r, re-summed.
func (n *node[V]) with(l, r *node[V]) *node[V] {
	return &node[V]{key: n.key, rank: n.rank, val: n.val, left: l, right: r,
		sum: n.val.sumWith(l.total(), r.total())}
}

// get returns the value stored under key.
func (n *node[V]) get(key ConnID) (val V, ok bool) {
	for n != nil && n.key != key {
		if key < n.key {
			n = n.left
		} else {
			n = n.right
		}
	}
	if n == nil {
		return val, false
	}
	return n.val, true
}

// insert returns the tree with val stored under key, which must be absent.
func (n *node[V]) insert(key ConnID, val V) *node[V] {
	return n.place(&node[V]{key: key, rank: rankOf(key), val: val})
}

func (n *node[V]) place(m *node[V]) *node[V] {
	switch {
	case n == nil:
		return m.with(nil, nil)
	case m.above(n):
		return m.with(n.split(m.key))
	case m.key < n.key:
		return n.with(n.left.place(m), n.right)
	default:
		return n.with(n.left, n.right.place(m))
	}
}

// split partitions the tree into the keys below and above key.
func (n *node[V]) split(key ConnID) (below, above *node[V]) {
	if n == nil {
		return nil, nil
	}
	if n.key < key {
		below, above = n.right.split(key)
		return n.with(n.left, below), above
	}
	below, above = n.left.split(key)
	return below, n.with(above, n.right)
}

// remove returns the tree without key, which must be present. The path
// above it is re-summed, not demultiplexed (Algorithm 3.3): no rounding stays.
func (n *node[V]) remove(key ConnID) *node[V] {
	switch {
	case key == n.key:
		return merge(n.left, n.right)
	case key < n.key:
		return n.with(n.left.remove(key), n.right)
	default:
		return n.with(n.left, n.right.remove(key))
	}
}

// merge joins two trees, every key of l below every key of r.
func merge[V summand](l, r *node[V]) *node[V] {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.above(r):
		return l.with(l.left, merge(l.right, r))
	default:
		return r.with(merge(l, r.left), r.right)
	}
}
