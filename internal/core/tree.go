package core

// node is one member of the switch's ConnID -> hop entries index, a
// persistent treap; a nil *node is the empty tree. Nodes are immutable: an
// edit copies the nodes on one root-to-leaf path and shares every other
// subtree, so a published root can be read without a lock while writers
// build its successors. A node's heap rank is a hash of its key, so the
// shape of the tree is a function of the key set alone, whatever inserts
// and removes produced it.
type node struct {
	key         ConnID
	rank        uint64
	val         hops
	left, right *node
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
func (n *node) above(m *node) bool {
	return n.rank > m.rank || n.rank == m.rank && n.key < m.key
}

// with returns a copy of n over the children l and r.
func (n *node) with(l, r *node) *node {
	return &node{key: n.key, rank: n.rank, val: n.val, left: l, right: r}
}

// get returns the value stored under key.
func (n *node) get(key ConnID) (val hops, ok bool) {
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
func (n *node) insert(key ConnID, val hops) *node {
	return n.place(&node{key: key, rank: rankOf(key), val: val})
}

func (n *node) place(m *node) *node {
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
func (n *node) split(key ConnID) (below, above *node) {
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

// remove returns the tree without key, which must be present.
func (n *node) remove(key ConnID) *node {
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
func merge(l, r *node) *node {
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
