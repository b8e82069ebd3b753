// Package graph provides the shortest-path machinery of the Constellation
// Calculation: a compact weighted undirected graph with a frozen
// compressed-sparse-row core, Dijkstra's algorithm over a monotone radix
// heap keyed on the distances' float64 bit patterns (exact for the
// non-negative, non-NaN weights the graph accepts), incremental repair of
// single-source results under edge diffs (RepairSSSP), and the
// Floyd-Warshall all-pairs algorithm. The paper uses efficient
// implementations of these to compute shortest network paths within the
// constellation and their end-to-end latency (§3.1).
package graph

import (
	"fmt"
	"math"
)

// Inf marks an unreachable node in distance results.
var Inf = math.Inf(1)

// Graph is a weighted undirected graph over nodes 0..N-1. Edges are
// inserted into adjacency lists; shortest-path computations run over a
// frozen compressed-sparse-row (CSR) image of those lists — flat edgeTo /
// weight / rowStart arrays that the Dijkstra inner loop scans without
// chasing per-node slice headers. The CSR is (re)built by Freeze, lazily on
// the first shortest-path call after a mutation, or explicitly by callers
// that run concurrent queries (a lazy build is not safe under concurrency).
//
// A frozen image can also be maintained without touching the adjacency
// lists at all: CopyFrozenFrom clones another graph's image and PatchFrozen
// applies per-link edge deltas to it in place (weight changes written
// through, additions into per-row slack slots reserved by FreezeSlack,
// removals by swapping with the row's last live entry). This is the
// steady-state path of the constellation update loop, which stops paying
// the O(N+M) re-freeze once per tick. A patched graph serves shortest-path
// queries exactly like a rebuilt one — the canonical tie-break of runHeap
// makes results independent of row order — but its adjacency lists are
// stale; Reset returns it to the mutable regime.
//
// The zero value is not usable; create graphs with New.
type Graph struct {
	n   int
	adj [][]Edge
	m   int

	// Frozen CSR image of adj: the directed entries of node v live at
	// indices [rowStart[v], rowEnd[v]) of edgeTo and weight, with
	// [rowEnd[v], rowStart[v+1]) unused slack for in-place additions.
	// int32 halves the per-entry footprint of the hot scan (12 bytes vs
	// the 16 of Edge); node and directed-edge counts must stay below
	// 2^31, far beyond any constellation.
	rowStart []int32
	rowEnd   []int32
	edgeTo   []int32
	weight   []float64
	frozen   bool

	// patched marks a frozen image maintained by CopyFrozenFrom /
	// PatchFrozen: the CSR arrays are authoritative and the adjacency
	// lists stale. Only Reset leaves this mode.
	patched bool

	// patchSlack is the per-row slack the image was last spread with;
	// compactions reuse it.
	patchSlack int

	// csrScratch holds the swap arrays of compactFrozen so periodic
	// compactions allocate nothing once warm.
	csrScratch struct {
		rowStart []int32
		rowEnd   []int32
		edgeTo   []int32
		weight   []float64
	}

	// zeroW records whether any zero-weight edge was inserted. The
	// canonical tie-break rule (see runHeap) cannot order predecessors
	// across zero-weight ties, so RepairSSSP refuses its fast path on
	// such graphs.
	zeroW bool
}

// Edge is an outgoing adjacency entry.
type Edge struct {
	To     int
	Weight float64
}

// New creates a graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]Edge, n)}
}

// Reset empties the graph and resizes it to n nodes, keeping the adjacency
// lists' backing arrays so that rebuilding a graph of similar shape (as
// every constellation tick does) allocates nothing in steady state.
func (g *Graph) Reset(n int) {
	if n < 0 {
		n = 0
	}
	if n <= cap(g.adj) {
		g.adj = g.adj[:n]
	} else {
		g.adj = append(g.adj[:cap(g.adj)], make([][]Edge, n-cap(g.adj))...)
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.n = n
	g.m = 0
	g.frozen = false
	g.patched = false
	g.zeroW = false
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts an undirected edge between a and b. Negative weights and
// out-of-range nodes are rejected; parallel edges are allowed (shortest
// path computations simply use the cheaper one).
func (g *Graph) AddEdge(a, b int, weight float64) error {
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		return fmt.Errorf("graph: edge (%d, %d) out of range [0, %d)", a, b, g.n)
	}
	if a == b {
		return fmt.Errorf("graph: self-loop on node %d", a)
	}
	if weight < 0 || math.IsNaN(weight) {
		return fmt.Errorf("graph: invalid weight %v on edge (%d, %d)", weight, a, b)
	}
	g.AddEdgeUnchecked(a, b, weight)
	return nil
}

// AddEdgeUnchecked inserts an undirected edge without the range, self-loop
// and weight validation of AddEdge. It is the fast path for callers whose
// edges are validated once at construction time — the constellation's
// per-tick graph rebuild inserts tens of thousands of precomputed plan
// edges and must not pay per-edge checks or error allocation. Out-of-range
// nodes panic; external callers should use AddEdge.
func (g *Graph) AddEdgeUnchecked(a, b int, weight float64) {
	g.adj[a] = append(g.adj[a], Edge{To: b, Weight: weight})
	g.adj[b] = append(g.adj[b], Edge{To: a, Weight: weight})
	g.m++
	g.frozen = false
	if weight == 0 {
		g.zeroW = true
	}
}

// Freeze (re)builds the graph's CSR image from the adjacency lists,
// preserving each node's insertion order so that frozen and unfrozen
// shortest-path runs are bit-identical. It is idempotent and O(N+M); Reset
// and edge insertion invalidate it. Callers that issue concurrent
// shortest-path queries (such as the constellation's sharded path cache)
// must Freeze once beforehand — the lazy build inside a query is only safe
// single-threaded.
func (g *Graph) Freeze() { g.FreezeSlack(0) }

// FreezeSlack is Freeze with slack unused slots reserved after every row,
// giving later PatchFrozen calls room to add edges in place before a
// compaction is forced. Slack does not change any query result — scans
// cover only the live range [rowStart[v], rowEnd[v]).
func (g *Graph) FreezeSlack(slack int) {
	if g.frozen {
		return
	}
	if g.patched {
		// The adjacency lists went stale the moment the image was
		// patched; rebuilding from them would silently revert the
		// patches. Mutations after a patch must go through Reset.
		panic("graph: Freeze after PatchFrozen without Reset")
	}
	if slack < 0 {
		slack = 0
	}
	dir := 2*g.m + slack*g.n
	g.rowStart = resizeSlice(g.rowStart, g.n+1)
	g.rowEnd = resizeSlice(g.rowEnd, g.n)
	g.edgeTo = resizeSlice(g.edgeTo, dir)
	g.weight = resizeSlice(g.weight, dir)
	off := int32(0)
	for v := range g.adj {
		g.rowStart[v] = off
		for _, e := range g.adj[v] {
			g.edgeTo[off] = int32(e.To)
			g.weight[off] = e.Weight
			off++
		}
		g.rowEnd[v] = off
		off += int32(slack)
	}
	g.rowStart[g.n] = off
	g.patchSlack = slack
	g.frozen = true
}

// Frozen reports whether the CSR image is current.
func (g *Graph) Frozen() bool { return g.frozen }

// CopyFrozenFrom clones src's frozen CSR image into g, reusing g's backing
// arrays. It is the cheap half of the steady-state graph path: three flat
// array copies replace the per-edge adjacency rebuild plus re-freeze, and
// PatchFrozen then applies the tick's link deltas on top. src must be
// frozen and is only read, so a published snapshot's graph can be cloned
// while concurrent readers query it. g ends up frozen and patched (its
// adjacency lists are stale until Reset); g and src must be distinct.
func (g *Graph) CopyFrozenFrom(src *Graph) error {
	if src == nil || !src.frozen {
		return fmt.Errorf("graph: CopyFrozenFrom needs a frozen source")
	}
	if src == g {
		return fmt.Errorf("graph: CopyFrozenFrom from itself")
	}
	g.n = src.n
	g.m = src.m
	g.zeroW = src.zeroW
	g.patchSlack = src.patchSlack
	g.rowStart = resizeSlice(g.rowStart, len(src.rowStart))
	copy(g.rowStart, src.rowStart)
	g.rowEnd = resizeSlice(g.rowEnd, len(src.rowEnd))
	copy(g.rowEnd, src.rowEnd)
	g.edgeTo = resizeSlice(g.edgeTo, len(src.edgeTo))
	copy(g.edgeTo, src.edgeTo)
	g.weight = resizeSlice(g.weight, len(src.weight))
	copy(g.weight, src.weight)
	g.frozen = true
	g.patched = true
	return nil
}

// defaultPatchSlack is the per-row slack a compaction re-spreads the image
// with when the original freeze reserved none.
const defaultPatchSlack = 4

// PatchFrozen applies per-link edge deltas directly to the frozen CSR
// image: weight changes are written in place on both directed entries,
// removals swap the entry with its row's last live one (shrinking the live
// range and returning the slot to slack), and additions fill a slack slot —
// forcing a compaction that re-spreads every row with fresh slack when the
// row is full. Deltas follow the EdgeDelta convention of RepairSSSP: a
// negative side marks absence, and every (A, B, OldW) of a removal or
// weight change must name exactly the live entry the image holds (the
// per-link merged deltas of a constellation diff do).
//
// Patching mutates only the CSR arrays; the adjacency lists are stale
// afterwards and only Reset leaves the patched mode (Freeze panics to keep
// a stale rebuild from silently reverting patches). Because the canonical
// tie-break of runHeap makes shortest paths independent of row order, a
// patched image yields bit-identical Dijkstra and RepairSSSP results to a
// graph rebuilt and frozen from scratch with the same edge set.
//
// On an unmatched delta the image is left partially patched and an error is
// returned; the caller must rebuild from scratch (the constellation pool
// falls back to the full assembly path).
func (g *Graph) PatchFrozen(deltas []EdgeDelta) error {
	if !g.frozen {
		return fmt.Errorf("graph: PatchFrozen on an unfrozen graph")
	}
	for _, d := range deltas {
		if d.A < 0 || d.A >= g.n || d.B < 0 || d.B >= g.n || d.A == d.B {
			return fmt.Errorf("graph: invalid edge delta (%d, %d) on %d nodes", d.A, d.B, g.n)
		}
		if d.OldW < 0 && d.NewW < 0 {
			continue // absent on both sides: nothing to do
		}
		g.patched = true
		switch {
		case d.OldW < 0:
			// Addition into the slack slots of both rows.
			if d.NewW == 0 {
				g.zeroW = true
			}
			g.addDirected(d.A, d.B, d.NewW)
			g.addDirected(d.B, d.A, d.NewW)
			g.m++
		case d.NewW < 0:
			// Removal: swap with the last live entry of each row.
			if err := g.removeDirected(d.A, d.B, d.OldW); err != nil {
				return err
			}
			if err := g.removeDirected(d.B, d.A, d.OldW); err != nil {
				return err
			}
			g.m--
		default:
			if d.NewW == 0 {
				g.zeroW = true
			}
			if err := g.reweightDirected(d.A, d.B, d.OldW, d.NewW); err != nil {
				return err
			}
			if err := g.reweightDirected(d.B, d.A, d.OldW, d.NewW); err != nil {
				return err
			}
		}
	}
	return nil
}

// addDirected appends a directed CSR entry into row a's slack, compacting
// the whole image first when the row is full.
func (g *Graph) addDirected(a, b int, w float64) {
	if g.rowEnd[a] == g.rowStart[a+1] {
		slack := g.patchSlack
		if slack <= 0 {
			slack = defaultPatchSlack
		}
		g.compactFrozen(slack)
	}
	at := g.rowEnd[a]
	g.edgeTo[at] = int32(b)
	g.weight[at] = w
	g.rowEnd[a] = at + 1
}

// removeDirected deletes the directed entry (a -> b, weight w) by swapping
// the row's last live entry into its place.
func (g *Graph) removeDirected(a, b int, w float64) error {
	for idx := g.rowStart[a]; idx < g.rowEnd[a]; idx++ {
		if g.edgeTo[idx] == int32(b) && g.weight[idx] == w {
			last := g.rowEnd[a] - 1
			g.edgeTo[idx] = g.edgeTo[last]
			g.weight[idx] = g.weight[last]
			g.rowEnd[a] = last
			return nil
		}
	}
	return fmt.Errorf("graph: patch removal (%d, %d, %v): no such edge", a, b, w)
}

// reweightDirected rewrites the weight of the directed entry (a -> b,
// weight oldW) in place.
func (g *Graph) reweightDirected(a, b int, oldW, newW float64) error {
	for idx := g.rowStart[a]; idx < g.rowEnd[a]; idx++ {
		if g.edgeTo[idx] == int32(b) && g.weight[idx] == oldW {
			g.weight[idx] = newW
			return nil
		}
	}
	return fmt.Errorf("graph: patch reweight (%d, %d, %v): no such edge", a, b, oldW)
}

// compactFrozen re-spreads the CSR image so every row gets slack free
// slots again, using the scratch arrays kept on the graph (the periodic
// compaction of a long patch chain allocates nothing once warm). Live
// entries keep their order, so compaction never changes a query result.
func (g *Graph) compactFrozen(slack int) {
	dir := 0
	for v := 0; v < g.n; v++ {
		dir += int(g.rowEnd[v] - g.rowStart[v])
	}
	dir += slack * g.n
	s := &g.csrScratch
	s.rowStart = resizeSlice(s.rowStart, g.n+1)
	s.rowEnd = resizeSlice(s.rowEnd, g.n)
	s.edgeTo = resizeSlice(s.edgeTo, dir)
	s.weight = resizeSlice(s.weight, dir)
	off := int32(0)
	for v := 0; v < g.n; v++ {
		s.rowStart[v] = off
		n := g.rowEnd[v] - g.rowStart[v]
		copy(s.edgeTo[off:off+n], g.edgeTo[g.rowStart[v]:g.rowEnd[v]])
		copy(s.weight[off:off+n], g.weight[g.rowStart[v]:g.rowEnd[v]])
		off += n
		s.rowEnd[v] = off
		off += int32(slack)
	}
	s.rowStart[g.n] = off
	g.rowStart, s.rowStart = s.rowStart, g.rowStart
	g.rowEnd, s.rowEnd = s.rowEnd, g.rowEnd
	g.edgeTo, s.edgeTo = s.edgeTo, g.edgeTo
	g.weight, s.weight = s.weight, g.weight
	g.patchSlack = slack
}

// resizeSlice returns s with length n, reusing its backing array when large
// enough.
func resizeSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// FrozenRow appends node v's live entries from the frozen CSR image to buf
// and returns it. Unlike Neighbors it reflects PatchFrozen mutations, so
// differential tests can compare a patched image against a rebuilt one;
// entry order within a row is unspecified (patching reorders rows), so
// callers should compare rows as sets. It returns buf unchanged when the
// graph is not frozen or v is out of range.
func (g *Graph) FrozenRow(v int, buf []Edge) []Edge {
	if !g.frozen || v < 0 || v >= g.n {
		return buf
	}
	for idx := g.rowStart[v]; idx < g.rowEnd[v]; idx++ {
		buf = append(buf, Edge{To: int(g.edgeTo[idx]), Weight: g.weight[idx]})
	}
	return buf
}

// Neighbors returns the adjacency list of a node. The returned slice is
// owned by the graph and must not be modified; for a graph in patched mode
// (CopyFrozenFrom/PatchFrozen) the adjacency lists are stale — use
// FrozenRow there.
func (g *Graph) Neighbors(node int) []Edge {
	if node < 0 || node >= g.n {
		return nil
	}
	return g.adj[node]
}

// Degree returns the number of incident edges of a node.
func (g *Graph) Degree(node int) int { return len(g.Neighbors(node)) }

// ShortestPaths is the result of a single-source Dijkstra run.
type ShortestPaths struct {
	Source int
	// Dist[v] is the shortest distance from the source to v, Inf if
	// unreachable.
	Dist []float64
	// Prev[v] is the predecessor of v on a shortest path, -1 for the
	// source and unreachable nodes.
	Prev []int
}

// Workspace holds a Dijkstra run's radix-heap scratch plus the stamp array
// and cone queue of RepairSSSP, all per-node arrays sized to the node count
// once, so repeated runs on graphs of similar size reallocate nothing; pair
// it with DijkstraTransitInto and recycled dist/prev arrays to make a run
// allocation-free. A Workspace is not safe for concurrent use; give each
// goroutine its own. The zero value is ready to use.
type Workspace struct {
	heap radixHeap
	// stamp is an epoch-stamped visited array shared by RepairSSSP's cone
	// search (stamp == epoch) and boundary seeding (stamp == epoch+1):
	// bumping the epoch clears it in O(1).
	stamp []int32
	epoch int32
	queue []int32
}

// size makes all of the workspace's per-node scratch — the radix heap's
// arrays, the stamp array and the cone queue — hold n nodes. Full runs and
// repairs both call it, so whichever comes first sizes everything and the
// other never allocates on a warm workspace.
func (ws *Workspace) size(n int) {
	if len(ws.stamp) < n {
		ws.stamp = make([]int32, n)
		ws.epoch = 0
		ws.queue = make([]int32, 0, n)
	}
	ws.heap.grow(n)
}

// prepareRepair returns the two fresh epoch values for the affected-cone
// and seeded marks of a workspace already sized for the graph.
func (ws *Workspace) prepareRepair() (coneEpoch, seedEpoch int32) {
	if ws.epoch > math.MaxInt32-2 {
		clear(ws.stamp)
		ws.epoch = 0
	}
	ws.epoch += 2
	return ws.epoch - 1, ws.epoch
}

// Dijkstra computes single-source shortest paths from src. Its queue is a
// monotone radix heap (see radixHeap) in which a node moves at most 64
// times, and exactly tied distances pop in node order at O(log k) per pop
// for k ties, so a run costs O(N+M) plus O(log k) per tied pop.
func (g *Graph) Dijkstra(src int) (ShortestPaths, error) {
	return g.DijkstraTransit(src, nil)
}

// DijkstraTransit computes single-source shortest paths like Dijkstra, but
// only expands intermediate nodes for which transit returns true (the
// source is always expanded). Nodes failing the predicate can terminate a
// path but not forward traffic — e.g. ground stations, which are endpoints
// of the satellite network rather than routers. A nil predicate allows all
// nodes.
func (g *Graph) DijkstraTransit(src int, transit func(node int) bool) (ShortestPaths, error) {
	return g.dijkstra(src, transit, nil, nil, nil)
}

// DijkstraTransitInto is DijkstraTransit writing into caller-owned result
// buffers: dist and prev back the returned ShortestPaths when they have
// sufficient capacity and are reallocated otherwise; either way the caller
// owns the result. A non-nil ws lends only its scratch. This is the
// entry point of the snapshot path cache, which recycles result arrays
// from the previous tick.
func (g *Graph) DijkstraTransitInto(src int, transit func(node int) bool, dist []float64, prev []int, ws *Workspace) (ShortestPaths, error) {
	var h *radixHeap
	if ws != nil {
		ws.size(g.n)
		h = &ws.heap
	}
	return g.dijkstra(src, transit, dist, prev, h)
}

// dijkstra is the shared Dijkstra core: dist and prev are used as result
// backing when large enough, h as heap scratch when non-nil. It scans the
// frozen CSR image, building it first if a mutation invalidated it.
func (g *Graph) dijkstra(src int, transit func(node int) bool, dist []float64, prev []int, h *radixHeap) (ShortestPaths, error) {
	sp := ShortestPaths{Source: src}
	if src < 0 || src >= g.n {
		return sp, fmt.Errorf("graph: source %d out of range [0, %d)", src, g.n)
	}
	g.Freeze()
	if cap(dist) < g.n {
		dist = make([]float64, g.n)
	}
	if cap(prev) < g.n {
		prev = make([]int, g.n)
	}
	sp.Dist = dist[:g.n]
	sp.Prev = prev[:g.n]
	for i := range sp.Dist {
		sp.Dist[i] = Inf
		sp.Prev[i] = -1
	}
	sp.Dist[src] = 0

	if h == nil {
		h = new(radixHeap)
	}
	h.grow(g.n)
	h.reset()
	h.push(int32(src), 0)
	g.runHeap(&sp, transit, h)
	return sp, nil
}

// runHeap drains h, settling nodes over the frozen CSR arrays. It is the
// shared engine of full Dijkstra runs (heap seeded with the source) and
// RepairSSSP (heap seeded with the affected cone's boundary). Every queued
// node's key is its current Dist, so a popped node is settled at Dist.
//
// Relaxation is canonical: on a strictly shorter distance the predecessor
// follows the improving edge as usual; on an exactly equal distance over a
// positive-weight edge the smaller predecessor node ID wins. The final
// predecessor of every node is therefore min over its settled neighbors
// that support its final distance — a pure function of the graph,
// independent of settle order. That is what lets an incremental repair
// reproduce a from-scratch run bit for bit, predecessors included.
// Zero-weight ties are excluded from the rule (they could order two
// equal-distance endpoints into a predecessor cycle); graphs containing
// zero-weight edges keep a tree that depends on the settle order. The
// queue pops in (distance, node) order, which makes that order a pure
// function of the graph, so the tree is still deterministic; but a repair
// settles a different sequence than a full run, which is why RepairSSSP
// refuses its fast path on such graphs.
func (g *Graph) runHeap(sp *ShortestPaths, transit func(node int) bool, h *radixHeap) {
	rs, re, et, wt := g.rowStart, g.rowEnd, g.edgeTo, g.weight
	src := sp.Source
	for !h.empty() {
		u := h.pop()
		node := int(u)
		if transit != nil && node != src && !transit(node) {
			continue // reachable, but not allowed to forward
		}
		du := sp.Dist[node]
		for idx := rs[u]; idx < re[u]; idx++ {
			to := et[idx]
			w := wt[idx]
			nd := du + w
			if nd < sp.Dist[to] {
				sp.Dist[to] = nd
				sp.Prev[to] = node
				h.push(to, nd)
			} else if nd == sp.Dist[to] && w > 0 && node < sp.Prev[to] {
				sp.Prev[to] = node
			}
		}
	}
}

// PathTo reconstructs the shortest path from the source to dst, inclusive
// of both endpoints. It returns nil if dst is unreachable.
func (sp ShortestPaths) PathTo(dst int) []int {
	if dst < 0 || dst >= len(sp.Dist) || math.IsInf(sp.Dist[dst], 1) {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = sp.Prev[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// AllPairs is the result of a Floyd-Warshall run: a dense N×N distance
// matrix with next-hop information for path reconstruction.
type AllPairs struct {
	n    int
	dist []float64
	next []int32
}

// FloydWarshall computes all-pairs shortest paths in O(N^3) time and
// O(N^2) space. It is preferable over N Dijkstra runs for dense queries on
// small to medium graphs (such as a single constellation shell subset).
func (g *Graph) FloydWarshall() *AllPairs {
	n := g.n
	ap := &AllPairs{
		n:    n,
		dist: make([]float64, n*n),
		next: make([]int32, n*n),
	}
	for i := range ap.dist {
		ap.dist[i] = Inf
		ap.next[i] = -1
	}
	for i := 0; i < n; i++ {
		ap.dist[i*n+i] = 0
		ap.next[i*n+i] = int32(i)
	}
	for u, edges := range g.adj {
		for _, e := range edges {
			if e.Weight < ap.dist[u*n+e.To] {
				ap.dist[u*n+e.To] = e.Weight
				ap.next[u*n+e.To] = int32(e.To)
			}
		}
	}
	for k := 0; k < n; k++ {
		rowK := ap.dist[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			dik := ap.dist[i*n+k]
			if math.IsInf(dik, 1) {
				continue
			}
			rowI := ap.dist[i*n : (i+1)*n]
			nextI := ap.next[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				if nd := dik + rowK[j]; nd < rowI[j] {
					rowI[j] = nd
					nextI[j] = ap.next[i*n+k]
				}
			}
		}
	}
	return ap
}

// Dist returns the shortest distance between a and b, Inf if unreachable.
func (ap *AllPairs) Dist(a, b int) float64 {
	if a < 0 || a >= ap.n || b < 0 || b >= ap.n {
		return Inf
	}
	return ap.dist[a*ap.n+b]
}

// Path reconstructs a shortest path between a and b, inclusive. It returns
// nil if b is unreachable from a.
func (ap *AllPairs) Path(a, b int) []int {
	if a < 0 || a >= ap.n || b < 0 || b >= ap.n || ap.next[a*ap.n+b] == -1 {
		return nil
	}
	path := []int{a}
	for a != b {
		a = int(ap.next[a*ap.n+b])
		path = append(path, a)
	}
	return path
}

// Connected reports whether every node is reachable from node 0. An empty
// graph is connected.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[v] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == g.n
}
