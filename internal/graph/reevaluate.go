package graph

import "math"

// reevaluate turns sp into the exact single-source result on g, using
// sp.Prev only as a warm start. It is what RepairSSSP does once the
// affected cone outgrows RepairFallbackFraction: between two constellation
// ticks only a few percent of predecessors change, so the old tree is an
// almost-exact guess of the new one, and re-evaluating it under the new
// weights costs two O(N+M) passes plus a radix-heap correction of the
// nodes it improves, instead of a full Dijkstra.
//
//  1. Order the nodes so that every node follows its old predecessor:
//     walk up Prev from each node not yet placed and place the walked
//     chain ancestors first. A chain ends at a placed node, at an
//     out-of-range ID, or where it closes a cycle.
//  2. Sweep that order once, relaxing every edge of each forwarding node
//     with a finite label by runHeap's canonical rule, starting from +Inf
//     everywhere but the source. A node reaches its scan with a label no
//     worse than its old tree path priced under the new weights, so few
//     labels drop after their node was scanned; only those nodes are
//     queued. All pushes precede the first pop, as the radix heap
//     requires.
//  3. Drain the queue with runHeap.
//
// The result is bit-identical to a full run. Every label is the length of
// a real path, so none falls below Dijkstra's. Every node relaxes its edges
// with its final label (at its scan, or at its last pop), so the labels end
// at a fixed point, which by the monotonicity of float addition none
// exceeds Dijkstra's either. Every finite label was last set by a strict
// improvement from a supporter, and every other supporter relaxes the node
// with its final label, so the predecessors end as the canonical minima.
// The input sp.Dist is ignored and sp.Prev may hold any values; only the
// speed depends on them. Like the fast path it relies on the canonical
// rule, so g must have no zero-weight edge; g must be frozen and ws sized
// for it.
func (g *Graph) reevaluate(sp *ShortestPaths, transit func(node int) bool, ws *Workspace) {
	n, src := g.n, sp.Source
	rs, re, et, wt := g.rowStart, g.rowEnd, g.edgeTo, g.weight
	dist, prev := sp.Dist, sp.Prev

	// Step 1: the old-tree order, built in the cone queue's storage.
	onPath, placed := ws.prepareRepair()
	stamp := ws.stamp
	order := append(ws.queue[:0], int32(src))
	stamp[src] = placed
	for v := 0; v < n; v++ {
		if stamp[v] == placed {
			continue
		}
		from := len(order)
		for x := v; ; {
			stamp[x] = onPath
			order = append(order, int32(x))
			p := prev[x]
			if p < 0 || p >= n || stamp[p] == onPath || stamp[p] == placed {
				break
			}
			x = p
		}
		chain := order[from:]
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		for _, x := range chain {
			stamp[x] = placed
		}
	}
	ws.queue = order

	// Step 2: one sweep in that order. No node is on a path any more, so
	// the onPath stamp is free to mark the scanned ones.
	scanned := onPath
	for v := range dist {
		dist[v] = Inf
	}
	dist[src] = 0
	h := &ws.heap
	h.reset()
	for _, u32 := range order {
		u := int(u32)
		stamp[u] = scanned
		du := dist[u]
		if math.IsInf(du, 1) || (transit != nil && u != src && !transit(u)) {
			continue
		}
		for idx := rs[u]; idx < re[u]; idx++ {
			to := et[idx]
			w := wt[idx]
			nd := du + w
			if nd < dist[to] {
				dist[to] = nd
				prev[to] = u
				if stamp[to] == scanned {
					h.push(to, nd)
				}
			} else if nd == dist[to] && w > 0 && u < prev[to] {
				prev[to] = u
			}
		}
	}

	// Step 3: settle the improvements, then clear the predecessors the
	// old tree left on the source and on unreachable nodes.
	g.runHeap(sp, transit, h)
	prev[src] = -1
	for v, d := range dist {
		if math.IsInf(d, 1) {
			prev[v] = -1
		}
	}
}
