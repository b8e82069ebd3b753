package graph

import (
	"math"
	"math/bits"
)

// radixHeap is the priority queue of the Dijkstra core: a monotone radix
// heap over node IDs keyed on math.Float64bits of their tentative distance.
// For non-negative, non-NaN float64 values the IEEE-754 bit patterns sort
// exactly like the values, so the queue is exact. Its preconditions:
//
//   - keys are >= 0 and not NaN. Edge weights are validated that way, and
//     +Inf distances are never queued; -0 keys as +0.
//   - pops are monotone: no key is pushed below the last key popped.
//     Dijkstra satisfies this because every push is a popped distance plus
//     a non-negative weight; RepairSSSP pushes its seeds before the first
//     pop, while the last key is still 0. A violating push panics.
//
// Bucket b in 1..64 holds the queued nodes whose key first differs from the
// last popped key in bit b-1; bucket 0 holds the nodes whose key equals it.
// A pop that finds bucket 0 empty re-scatters the lowest non-empty bucket
// around a lower bound of its keys, tracked as nodes are linked in, and
// every node it moves lands in a strictly lower bucket, so a node moves at
// most 64 times while queued.
//
// Bucket 0 is a binary min-heap on node ID, so nodes pop in (distance,
// node) order: a total order that makes the settle sequence a pure
// function of the graph. Trees on graphs with zero-weight edges depend on
// that sequence (see runHeap); all other trees do not.
//
// Each node is queued at most once: pushing a queued node moves it, so the
// queue holds no stale entries. Buckets 1..64 are intrusive doubly
// linked lists threaded through per-node arrays; grow sizes them to the
// node count once and every later run on the same Workspace reuses them,
// so a warm run allocates nothing.
type radixHeap struct {
	last uint64     // last key popped, or a lower bound refill settled on
	mask uint64     // bit b-1 is set iff bucket b (1..64) is non-empty
	head [64]int32  // first node of bucket b at head[b-1], -1 when empty
	min  [64]uint64 // lower bound of bucket b's keys at min[b-1]
	ties []int32    // bucket 0: a min-heap of node IDs
	node []radixNode
}

// radixNode is a node's queue state: its key and bucket list links.
type radixNode struct {
	key        uint64 // unqueued when the node is not in the queue
	next, prev int32  // bucket list neighbours, -1 at either end
}

// unqueued marks a node outside the queue; real keys have the sign bit
// clear, so none collides with it.
const unqueued = ^uint64(0)

// grow sizes the per-node array for n nodes. It allocates only when n
// exceeds every earlier size.
func (h *radixHeap) grow(n int) {
	if len(h.node) < n {
		h.node = make([]radixNode, n)
		h.ties = make([]int32, 0, n)
		h.unqueueAll()
	}
}

func (h *radixHeap) unqueueAll() {
	for i := range h.node {
		h.node[i].key = unqueued
	}
}

// reset empties the queue in O(1): every run drains it, which leaves
// every node unqueued.
func (h *radixHeap) reset() {
	if !h.empty() {
		h.unqueueAll() // a run abandoned mid-drain, e.g. by a panicking predicate
	}
	h.last, h.mask, h.ties = 0, 0, h.ties[:0]
	for i := range h.head {
		h.head[i], h.min[i] = -1, unqueued
	}
}

func (h *radixHeap) empty() bool { return h.mask == 0 && len(h.ties) == 0 }

// push queues node v at distance d, or moves it there if it is already
// queued at a larger distance (never in bucket 0, whose key no push may
// undercut).
func (h *radixHeap) push(v int32, d float64) {
	k := math.Float64bits(d) &^ (1 << 63)
	if k < h.last {
		panic("graph: radix heap push below the last pop")
	}
	if old := h.node[v].key; old != unqueued {
		h.unlink(v, bits.Len64(old^h.last))
	}
	h.link(v, k)
}

// pop removes and returns the smallest queued node among those with the
// smallest distance. The queue must not be empty.
func (h *radixHeap) pop() int32 {
	for len(h.ties) == 0 {
		h.refill()
	}
	t := h.ties
	n := len(t) - 1
	v := t[0]
	t[0] = t[n]
	t = t[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && t[r] < t[c] {
			c = r
		}
		if t[i] <= t[c] {
			break
		}
		t[i], t[c] = t[c], t[i]
		i = c
	}
	h.ties = t
	h.node[v].key = unqueued
	return v
}

// refill moves last up to the lower bound of the lowest non-empty bucket
// and re-scatters that bucket around it. The bound is exact unless the
// bucket's minimum was re-keyed away, in which case no node lands in
// bucket 0 and pop refills again.
func (h *radixHeap) refill() {
	b := bits.TrailingZeros64(h.mask)
	v := h.head[b]
	h.last = h.min[b]
	h.head[b], h.min[b] = -1, unqueued
	h.mask &^= 1 << b
	for v >= 0 {
		next := h.node[v].next
		h.link(v, h.node[v].key)
		v = next
	}
}

// link inserts v with key k into its bucket relative to last.
func (h *radixHeap) link(v int32, k uint64) {
	e := &h.node[v]
	e.key = k
	b := bits.Len64(k ^ h.last)
	if b == 0 {
		t := append(h.ties, v)
		for i := len(t) - 1; i > 0; {
			p := (i - 1) / 2
			if t[p] <= t[i] {
				break
			}
			t[p], t[i] = t[i], t[p]
			i = p
		}
		h.ties = t
		return
	}
	b--
	first := h.head[b]
	e.next, e.prev = first, -1
	if first >= 0 {
		h.node[first].prev = v
	}
	h.head[b] = v
	h.mask |= 1 << b
	if k < h.min[b] {
		h.min[b] = k
	}
}

// unlink removes v from bucket b >= 1.
func (h *radixHeap) unlink(v int32, b int) {
	b--
	next, prev := h.node[v].next, h.node[v].prev
	if prev >= 0 {
		h.node[prev].next = next
	} else {
		h.head[b] = next
		if next < 0 {
			h.mask &^= 1 << b
			h.min[b] = unqueued
		}
	}
	if next >= 0 {
		h.node[next].prev = prev
	}
}
