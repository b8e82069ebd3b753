package graph

import (
	"fmt"
	"math"
)

// EdgeDelta describes one undirected edge difference between the graph a
// ShortestPaths result was computed on (the "old" graph) and the graph it
// is being repaired for. OldW and NewW are the edge's weight on the old and
// the new side; a negative value marks a side on which the edge does not
// exist. A weight change is expressed with both sides set.
type EdgeDelta struct {
	A, B       int
	OldW, NewW float64
}

// RepairFallbackFraction is the dynamic-repair cutoff: when the affected
// cone (nodes whose shortest-path tree support was invalidated) exceeds
// this fraction of all nodes, re-settling it costs about as much as
// settling the whole graph, so RepairSSSP abandons the cone and instead
// re-evaluates the whole old tree under the new weights and corrects it:
// two O(N+M) passes plus a radix-heap correction of the nodes that
// improve, under half a full Dijkstra on a constellation tick.
const RepairFallbackFraction = 0.2

// RepairSSSP repairs sp — a single-source result computed on a graph that
// differs from g by deltas — into a result valid for g, in the spirit of
// Ramalingam–Reps dynamic shortest paths: only the cone of nodes whose old
// tree support broke is unsettled and re-settled from a priority queue
// seeded with its boundary and the endpoints of improved edges, so a small
// diff costs O(affected nodes + their edges) instead of a full O(N+M) run
// (both on the radix heap, see radixHeap). A cone larger than
// RepairFallbackFraction of the graph falls back to re-evaluating the old
// tree: one sweep over all nodes in old-tree order, parents first, then a
// radix-heap correction of the nodes whose labels the sweep left too high
// (see reevaluate). Either way the result is bit-identical — distances and
// predecessors — to a fresh run on g, because every path resolves
// equal-distance ties with the canonical rule of runHeap.
//
// sp's Dist/Prev arrays are rewritten in place and must be exclusively
// owned by the caller; transit must be the same predicate the original run
// used. deltas must list every edge that differs between the two graphs
// (extra entries whose two sides are equal are ignored; listing an edge as
// removed and re-added is allowed and merely widens the cone). The
// returned repaired flag reports whether the incremental fast path was
// taken; it is false when the repair fell back — to the re-evaluation for
// a cone larger than RepairFallbackFraction of the graph, or to a full
// recompute when a zero-weight edge is present (see runHeap) or sp is
// sized for a different node count. Either way the resulting sp is exact.
func (g *Graph) RepairSSSP(sp *ShortestPaths, deltas []EdgeDelta, transit func(node int) bool, ws *Workspace) (repaired bool, err error) {
	if sp == nil || sp.Source < 0 || sp.Source >= g.n {
		src := -1
		if sp != nil {
			src = sp.Source
		}
		return false, fmt.Errorf("graph: repair source %d out of range [0, %d)", src, g.n)
	}
	for _, d := range deltas {
		if d.A < 0 || d.A >= g.n || d.B < 0 || d.B >= g.n || d.A == d.B {
			return false, fmt.Errorf("graph: invalid edge delta (%d, %d) on %d nodes", d.A, d.B, g.n)
		}
	}
	if ws == nil {
		ws = new(Workspace)
	}
	ws.size(g.n)
	if g.zeroW || len(sp.Dist) != g.n || len(sp.Prev) != g.n {
		nsp, err := g.dijkstra(sp.Source, transit, sp.Dist, sp.Prev, &ws.heap)
		if err != nil {
			return false, err
		}
		*sp = nsp
		return false, nil
	}
	if len(deltas) == 0 {
		return true, nil
	}
	g.Freeze()

	// Phase 1: roots of the affected cone — nodes whose tree edge to
	// their predecessor was removed or became heavier. Edges that were
	// not part of the old tree cannot worsen any distance, and (because
	// predecessors are canonical minima) cannot have been a recorded
	// predecessor either.
	cone, seeded := ws.prepareRepair()
	stamp := ws.stamp
	queue := ws.queue[:0]
	for _, d := range deltas {
		worse := d.NewW < 0 || (d.OldW >= 0 && d.NewW > d.OldW)
		if !worse {
			continue
		}
		if sp.Prev[d.B] == d.A && stamp[d.B] != cone {
			stamp[d.B] = cone
			queue = append(queue, int32(d.B))
		}
		if sp.Prev[d.A] == d.B && stamp[d.A] != cone {
			stamp[d.A] = cone
			queue = append(queue, int32(d.A))
		}
	}

	// Past the fallback threshold — checked on the roots too, since a
	// handover storm can root more leaf stations than phase 2 would ever
	// append — re-settling the cone stops being cheaper than
	// re-evaluating the whole old tree.
	limit := int(RepairFallbackFraction * float64(g.n))
	if len(queue) > limit {
		g.reevaluate(sp, transit, ws)
		return false, nil
	}

	// Phase 2: grow the cone to all old-tree descendants of the roots.
	// Tree edges still present are found by scanning the new CSR; tree
	// edges that were themselves removed rooted their child directly in
	// phase 1.
	rs, re, et := g.rowStart, g.rowEnd, g.edgeTo
	for i := 0; i < len(queue); i++ {
		u := int(queue[i])
		for idx := rs[u]; idx < re[u]; idx++ {
			v := int(et[idx])
			if sp.Prev[v] == u && stamp[v] != cone {
				stamp[v] = cone
				queue = append(queue, int32(v))
				if len(queue) > limit {
					g.reevaluate(sp, transit, ws)
					return false, nil
				}
			}
		}
	}
	ws.queue = queue

	// Phase 3: unsettle the cone, then seed the heap with (a) each cone
	// node's lexicographically best candidate among its settled
	// neighbors — heap traffic stays proportional to the cone, not to
	// its (much larger) boundary — and (b) the endpoints of added or
	// cheapened edges, whose rescans propagate improvements. The seed
	// scan considers every settled supporter of a cone node, and
	// cone-internal supporters relax it when they settle, so the final
	// predecessors are the same canonical minima a full run computes.
	// Rescanning a settled node is idempotent under canonical
	// relaxation, so over-seeding never changes the result.
	for _, v := range queue {
		sp.Dist[v] = Inf
		sp.Prev[v] = -1
	}
	h := &ws.heap
	h.reset()
	src := sp.Source
	wts := g.weight
	for _, u := range queue {
		b := int(u)
		bd, bp := Inf, -1
		for idx := rs[b]; idx < re[b]; idx++ {
			v := int(et[idx])
			if stamp[v] == cone {
				continue // unsettled alongside b
			}
			dv := sp.Dist[v]
			if math.IsInf(dv, 1) || (transit != nil && v != src && !transit(v)) {
				continue
			}
			w := wts[idx]
			if cand := dv + w; cand < bd || (cand == bd && w > 0 && v < bp) {
				bd, bp = cand, v
			}
		}
		if bp >= 0 {
			sp.Dist[b] = bd
			sp.Prev[b] = bp
			h.push(u, bd)
		}
	}
	for _, d := range deltas {
		if d.OldW < 0 || (d.NewW >= 0 && d.NewW < d.OldW) {
			for _, v := range [2]int{d.A, d.B} {
				if stamp[v] != cone && stamp[v] != seeded && !math.IsInf(sp.Dist[v], 1) {
					stamp[v] = seeded
					h.push(int32(v), sp.Dist[v])
				}
			}
		}
	}
	g.runHeap(sp, transit, h)
	return true, nil
}
