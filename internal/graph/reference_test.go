package graph

import "math"

// Dijkstra computes single-source shortest paths from src into freshly
// allocated result arrays.
func (g *Graph) Dijkstra(src int) (ShortestPaths, error) {
	return g.DijkstraTransit(src, nil)
}

// DijkstraTransit is Dijkstra expanding only the intermediate nodes for
// which transit returns true (see DijkstraTransitInto).
func (g *Graph) DijkstraTransit(src int, transit func(node int) bool) (ShortestPaths, error) {
	return g.DijkstraTransitInto(src, transit, nil, nil, nil)
}

// allPairs is the result of a Floyd-Warshall run: a dense N×N distance
// matrix with next-hop information for path reconstruction.
type allPairs struct {
	n    int
	dist []float64
	next []int32
}

// floydWarshall computes all-pairs shortest paths over g's adjacency lists
// in O(N^3) time and O(N^2) space: an algorithm independent of the
// Dijkstra core, which the tests cross-check it against.
func floydWarshall(g *Graph) *allPairs {
	n := g.n
	ap := &allPairs{
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
func (ap *allPairs) Dist(a, b int) float64 {
	if a < 0 || a >= ap.n || b < 0 || b >= ap.n {
		return Inf
	}
	return ap.dist[a*ap.n+b]
}

// Path reconstructs a shortest path between a and b, inclusive. It returns
// nil if b is unreachable from a.
func (ap *allPairs) Path(a, b int) []int {
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
