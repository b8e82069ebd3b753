package graph

import (
	"math"
	"math/rand"
	"testing"
)

// oracleItem is an entry of the oracle's binary heap.
type oracleItem struct {
	node int
	dist float64
}

// byDistNode orders oracle entries by (distance, node), the radix heap's
// pop order.
func byDistNode(a, b oracleItem) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.node < b.node)
}

// byDist orders oracle entries by distance alone and leaves ties to the
// heap's structure: the exact order of the binary heap the Dijkstra core
// ran on before the radix heap.
func byDist(a, b oracleItem) bool { return a.dist < b.dist }

// oracleHeap is the binary min-heap the Dijkstra core ran on before the
// radix heap, with lazy deletion of stale entries, under a given order.
type oracleHeap struct {
	s    []oracleItem
	less func(a, b oracleItem) bool
}

func (h *oracleHeap) push(it oracleItem) {
	h.s = append(h.s, it)
	s := h.s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(s[i], s[parent]) {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *oracleHeap) pop() oracleItem {
	s := h.s
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	h.s = s
	for i := 0; ; {
		min := i
		if l := 2*i + 1; l < n && h.less(s[l], s[min]) {
			min = l
		}
		if r := 2*i + 2; r < n && h.less(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// oracleDijkstra is the reference single-source run: a lazy-deletion
// binary-heap Dijkstra over the graph's live CSR rows with runHeap's
// canonical relaxation rule, settling nodes in (distance, node) order like
// the radix heap, so the two agree on every graph, zero-weight ones
// included.
func oracleDijkstra(g *Graph, src int, transit func(int) bool) ShortestPaths {
	return heapDijkstra(g, src, transit, byDistNode)
}

// parentDijkstra is the binary-heap Dijkstra the core ran before the radix
// heap, exact tie order included. On graphs with zero-weight edges its
// trees depend on that order and may differ from the radix core's; on all
// others the canonical rule makes them equal.
func parentDijkstra(g *Graph, src int, transit func(int) bool) ShortestPaths {
	return heapDijkstra(g, src, transit, byDist)
}

func heapDijkstra(g *Graph, src int, transit func(int) bool, less func(a, b oracleItem) bool) ShortestPaths {
	g.Freeze()
	sp := ShortestPaths{Source: src, Dist: make([]float64, g.N()), Prev: make([]int, g.N())}
	for v := range sp.Dist {
		sp.Dist[v], sp.Prev[v] = Inf, -1
	}
	sp.Dist[src] = 0
	h := oracleHeap{s: []oracleItem{{node: src}}, less: less}
	var row []Edge
	for len(h.s) > 0 {
		it := h.pop()
		if it.dist > sp.Dist[it.node] {
			continue // stale entry
		}
		if transit != nil && it.node != src && !transit(it.node) {
			continue
		}
		row = g.FrozenRow(it.node, row[:0])
		for _, e := range row {
			nd := it.dist + e.Weight
			if nd < sp.Dist[e.To] {
				sp.Dist[e.To] = nd
				sp.Prev[e.To] = it.node
				h.push(oracleItem{node: e.To, dist: nd})
			} else if nd == sp.Dist[e.To] && e.Weight > 0 && it.node < sp.Prev[e.To] {
				sp.Prev[e.To] = it.node
			}
		}
	}
	return sp
}

// assertMatchesOracle requires got to equal the oracle's result on g bit
// for bit, distances and predecessors both, and on graphs without
// zero-weight edges also the parent binary heap's result.
func assertMatchesOracle(t testing.TB, g *Graph, got ShortestPaths, transit func(int) bool, ctx string) {
	t.Helper()
	assertSame(t, got, oracleDijkstra(g, got.Source, transit), ctx+" vs oracle")
	if !g.zeroW {
		assertSame(t, got, parentDijkstra(g, got.Source, transit), ctx+" vs parent heap")
	}
}

func assertSame(t testing.TB, got, want ShortestPaths, ctx string) {
	t.Helper()
	if len(got.Dist) != len(want.Dist) || len(got.Prev) != len(want.Prev) {
		t.Fatalf("%s: src %d: result sized %d/%d, want %d", ctx, got.Source, len(got.Dist), len(got.Prev), len(want.Dist))
	}
	for v := range want.Dist {
		if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) || got.Prev[v] != want.Prev[v] {
			t.Fatalf("%s: src %d node %d: dist/prev (%v, %d), want (%v, %d)",
				ctx, got.Source, v, got.Dist[v], got.Prev[v], want.Dist[v], want.Prev[v])
		}
	}
}

// negZero is the IEEE-754 negative zero, a valid edge weight.
var negZero = math.Copysign(0, -1)

// TestDijkstraMatchesOracle is the randomized differential between the
// radix-heap core and the binary-heap oracle: full runs through
// DijkstraTransitInto on one recycled workspace, and RepairSSSP on both its
// fast path and its fallback. The weight families cover exact ties,
// zero-weight edges, -0 and +Inf weights; every graph leaves some nodes
// isolated, and every other trial runs under a transit predicate.
func TestDijkstraMatchesOracle(t *testing.T) {
	families := []struct {
		name   string
		weight func(*rand.Rand) float64
	}{
		{"continuous", func(rng *rand.Rand) float64 { return 0.1 + rng.Float64()*10 }},
		{"quantized", func(rng *rand.Rand) float64 { return float64(1+rng.Intn(4)) * 0.25 }},
		{"zero", func(rng *rand.Rand) float64 {
			if rng.Intn(3) == 0 {
				return 0
			}
			return float64(1+rng.Intn(4)) * 0.25
		}},
		{"signed-zero-inf", func(rng *rand.Rand) float64 {
			switch rng.Intn(6) {
			case 0:
				return negZero
			case 1:
				return Inf
			default:
				return float64(1+rng.Intn(3)) * 0.5
			}
		}},
	}
	for fi, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + fi)))
			weight := func() float64 { return fam.weight(rng) }
			var ws Workspace
			var dist []float64
			var prev []int
			fast, fallback := 0, 0
			for trial := 0; trial < 80; trial++ {
				n := 2 + rng.Intn(60)
				linked := n - rng.Intn(1+n/4) // nodes [linked, n) stay isolated
				var old []testEdge
				for i := 0; i < 2*n; i++ {
					if a, b := rng.Intn(linked), rng.Intn(linked); a != b {
						old = append(old, testEdge{a, b, weight()})
					}
				}
				edges, deltas := mutateEdges(rng, linked, old, weight)
				g1 := buildGraph(t, n, old)
				g2 := buildGraph(t, n, edges)
				var transit func(int) bool
				if trial%2 == 1 {
					transit = func(v int) bool { return v%3 != 0 }
				}
				for src := 0; src < n; src++ {
					sp, err := g2.DijkstraTransitInto(src, transit, dist, prev, &ws)
					if err != nil {
						t.Fatal(err)
					}
					dist, prev = sp.Dist, sp.Prev
					assertMatchesOracle(t, g2, sp, transit, "full")
				}
				for _, src := range []int{0, rng.Intn(n), n - 1} {
					base := oracleDijkstra(g1, src, transit)
					repaired, err := g2.RepairSSSP(&base, deltas, transit, &ws)
					if err != nil {
						t.Fatal(err)
					}
					if repaired {
						fast++
					} else {
						fallback++
					}
					assertMatchesOracle(t, g2, base, transit, "repair")
				}
			}
			if fi < 2 && (fast == 0 || fallback == 0) {
				t.Errorf("repair exercised %d fast paths and %d fallbacks, want both", fast, fallback)
			}
		})
	}
}

// gen2Torus builds a w×h torus with quantized constellation-like weights
// plus stations extra nodes, each attached to three random torus nodes,
// and returns it with its edge list.
func gen2Torus(rng *rand.Rand, w, h, stations int) (*Graph, []testEdge) {
	n := w * h
	var edges []testEdge
	q := func() float64 { return float64(1+rng.Intn(25)) * 1e-4 }
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			id := x*h + y
			edges = append(edges, testEdge{id, ((x+1)%w)*h + y, q()}, testEdge{id, x*h + (y+1)%h, q()})
		}
	}
	for s := 0; s < stations; s++ {
		for k := 0; k < 3; k++ {
			edges = append(edges, testEdge{n + s, rng.Intn(n), q()})
		}
	}
	g := New(n + stations)
	for _, e := range edges {
		g.AddEdgeUnchecked(e.a, e.b, e.w)
	}
	return g, edges
}

// TestDijkstraMatchesOracleGen2Scale runs the differential at Starlink Gen2
// scale: a 173×173 torus (29,929 satellites) with 100 non-forwarding
// stations, full trees from several stations, then a few-edge repair (fast
// path) and a wholesale one (fallback).
func TestDijkstraMatchesOracleGen2Scale(t *testing.T) {
	if testing.Short() {
		t.Skip("Gen2-scale differential skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(2))
	const w, h, stations = 173, 173, 100
	sats := w * h
	g1, old := gen2Torus(rng, w, h, stations)
	transit := func(v int) bool { return v < sats }
	var ws Workspace
	var dist []float64
	var prev []int
	for _, src := range []int{sats, sats + 37, sats + stations - 1, 0} {
		sp, err := g1.DijkstraTransitInto(src, transit, dist, prev, &ws)
		if err != nil {
			t.Fatal(err)
		}
		dist, prev = sp.Dist, sp.Prev
		assertMatchesOracle(t, g1, sp, transit, "gen2 full")
	}
	few := func() ([]testEdge, []EdgeDelta) {
		edges := append([]testEdge(nil), old...)
		var deltas []EdgeDelta
		for i := 0; i < 8; i++ {
			e := &edges[rng.Intn(2*sats)]
			nw := e.w + 1e-4
			deltas = append(deltas, EdgeDelta{A: e.a, B: e.b, OldW: e.w, NewW: nw})
			e.w = nw
		}
		return edges, deltas
	}
	wholesale := func() ([]testEdge, []EdgeDelta) {
		return mutateEdges(rng, sats, old, func() float64 { return float64(1+rng.Intn(25)) * 1e-4 })
	}
	for _, tc := range []struct {
		name   string
		mutate func() ([]testEdge, []EdgeDelta)
		fast   bool
	}{{"few", few, true}, {"wholesale", wholesale, false}} {
		edges, deltas := tc.mutate()
		g2 := New(sats + stations)
		for _, e := range edges {
			g2.AddEdgeUnchecked(e.a, e.b, e.w)
		}
		src := sats + rng.Intn(stations)
		sp := oracleDijkstra(g1, src, transit)
		repaired, err := g2.RepairSSSP(&sp, deltas, transit, &ws)
		if err != nil {
			t.Fatal(err)
		}
		if repaired != tc.fast {
			t.Errorf("%s: repaired = %v, want %v", tc.name, repaired, tc.fast)
		}
		assertMatchesOracle(t, g2, sp, transit, "gen2 "+tc.name)
	}
}

// fuzzWeight decodes one weight byte: 255 is an absent edge (-1), 0–7 pick
// the special values, and the rest are multiples of 1/8, whose sums tie
// exactly.
func fuzzWeight(c byte) float64 {
	switch c {
	case 255:
		return -1
	case 0, 1:
		return 0
	case 2:
		return negZero
	case 3:
		return Inf
	case 4:
		return 1e-4
	case 5:
		return 0.1
	case 6:
		return 0.2
	case 7:
		return 0.3
	}
	return float64(c) / 8
}

// FuzzDijkstraMatchesOracle decodes a small graph pair from bytes — a node
// count, a source, a transit selector, then (a, b, old weight, new weight)
// quadruples — and requires a full run and a repair of the old graph's
// tree onto the new graph to match the oracle bit for bit.
func FuzzDijkstraMatchesOracle(f *testing.F) {
	f.Add([]byte{4, 0, 0, 0, 1, 9, 9, 1, 2, 9, 17, 2, 3, 9, 9, 0, 3, 40, 255})
	f.Add([]byte{6, 2, 1, 0, 1, 0, 8, 1, 2, 2, 0, 2, 3, 3, 8, 3, 4, 8, 3, 0, 5, 255, 16, 4, 5, 8, 8})
	f.Add([]byte{8, 7, 3, 0, 1, 8, 8, 1, 2, 8, 8, 2, 3, 8, 8, 3, 0, 8, 8, 0, 2, 16, 16, 1, 3, 16, 9, 5, 6, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%30
		src := int(data[1]) % n
		var transit func(int) bool
		if sel := int(data[2]); sel%2 == 1 {
			transit = func(v int) bool { return (v+sel)%3 != 0 }
		}
		g1, g2 := New(n), New(n)
		var deltas []EdgeDelta
		for q := data[3:]; len(q) >= 4; q = q[4:] {
			a, b := int(q[0])%n, int(q[1])%n
			if a == b {
				continue
			}
			ow, nw := fuzzWeight(q[2]), fuzzWeight(q[3])
			if ow >= 0 {
				g1.AddEdgeUnchecked(a, b, ow)
			}
			if nw >= 0 {
				g2.AddEdgeUnchecked(a, b, nw)
			}
			if ow != nw {
				deltas = append(deltas, EdgeDelta{A: a, B: b, OldW: ow, NewW: nw})
			}
		}
		var ws Workspace
		full, err := g2.DijkstraTransitInto(src, transit, nil, nil, &ws)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesOracle(t, g2, full, transit, "full")
		sp := oracleDijkstra(g1, src, transit)
		if _, err := g2.RepairSSSP(&sp, deltas, transit, &ws); err != nil {
			t.Fatal(err)
		}
		assertMatchesOracle(t, g2, sp, transit, "repair")
	})
}

// allocsAfter reports the allocations of one then() call on state warmed
// only by one warm() call: testing.AllocsPerRun spends its discarded
// warm-up run on warm and measures the run that follows.
func allocsAfter(warm, then func()) float64 {
	calls := 0
	return testing.AllocsPerRun(1, func() {
		if calls++; calls == 1 {
			warm()
		} else {
			then()
		}
	})
}

// TestWarmWorkspaceAllocatesNothing pins the radix heap's storage: one
// pool sized to the node count by whichever run comes first, so a
// workspace warmed by a repair serves a full run — and the reverse —
// without a single allocation, and so does every later pair of runs.
func TestWarmWorkspaceAllocatesNothing(t *testing.T) {
	g, deltas, base := bumpedTorus(t)
	n := g.N()
	dist, prev := make([]float64, n), make([]int, n)
	repair := func(ws *Workspace) func() {
		return func() {
			copy(dist, base.Dist)
			copy(prev, base.Prev)
			sp := ShortestPaths{Source: 0, Dist: dist, Prev: prev}
			if repaired, err := g.RepairSSSP(&sp, deltas, nil, ws); err != nil || !repaired {
				t.Fatalf("repair: repaired=%v err=%v", repaired, err)
			}
		}
	}
	full := func(ws *Workspace) func() {
		return func() {
			if _, err := g.DijkstraTransitInto(0, nil, dist, prev, ws); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, order := range []struct {
		name          string
		first, second func(*Workspace) func()
	}{{"repair-then-full", repair, full}, {"full-then-repair", full, repair}} {
		var ws Workspace
		first, second := order.first(&ws), order.second(&ws)
		if a := allocsAfter(first, second); a != 0 {
			t.Errorf("%s: second run on a workspace warmed by the first allocated %v times", order.name, a)
		}
		if a := testing.AllocsPerRun(10, func() { first(); second() }); a != 0 {
			t.Errorf("%s: warm pair allocated %v times per run", order.name, a)
		}
	}
}
