// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, per the experiment index in DESIGN.md. Each benchmark runs
// the corresponding experiment end to end (in shortened quick mode, so the
// full suite completes in minutes) and reports the regenerated values as
// custom benchmark metrics. Run a single experiment at the paper's full
// scale with:
//
//	go run ./cmd/experiments -full -only F4
package celestial_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"celestial/internal/apps/dart"
	"celestial/internal/apps/meetup"
	"celestial/internal/config"
	"celestial/internal/constellation"
	"celestial/internal/experiments"
	"celestial/internal/geom"
	"celestial/internal/graph"
	"celestial/internal/orbit"
	"celestial/internal/stats"
	"celestial/internal/supervise"
)

// runReport executes one experiment per benchmark iteration and fails the
// benchmark if the paper's qualitative claim did not reproduce.
func runReport(b *testing.B, fn func(experiments.Options) (experiments.Report, error)) experiments.Report {
	b.Helper()
	var rep experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = fn(experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	if !rep.Pass {
		b.Fatalf("experiment %s diverged from the paper:\n%v", rep.ID, rep.Lines)
	}
	return rep
}

// BenchmarkFig1StarlinkGeneration regenerates Fig. 1: instantiating and
// positioning all 4,409 satellites of the phase I Starlink constellation.
func BenchmarkFig1StarlinkGeneration(b *testing.B) {
	runReport(b, experiments.Fig1)
}

// BenchmarkFig3ScenarioRTT regenerates Fig. 3's headline numbers: the
// worst-client RTT through the best satellite (≈16 ms) versus the
// Johannesburg data center (≈46 ms).
func BenchmarkFig3ScenarioRTT(b *testing.B) {
	rep := runReport(b, experiments.Fig3)
	b.Log(rep.Lines)
}

// BenchmarkFig4MeetupCDF regenerates Fig. 4: the end-to-end latency CDFs
// of the video conference under satellite and cloud bridge deployments,
// reporting the median latency per deployment.
func BenchmarkFig4MeetupCDF(b *testing.B) {
	var satMedian, cloudMedian float64
	for i := 0; i < b.N; i++ {
		sat, err := meetup.Run(quickMeetup(meetup.DeploymentSatellite))
		if err != nil {
			b.Fatal(err)
		}
		cloud, err := meetup.Run(quickMeetup(meetup.DeploymentCloud))
		if err != nil {
			b.Fatal(err)
		}
		pair := meetup.Pair("accra", "yaounde")
		satMedian = stats.Quantile(sat.Latencies(pair), 0.5)
		cloudMedian = stats.Quantile(cloud.Latencies(pair), 0.5)
	}
	b.ReportMetric(satMedian, "sat-median-ms")
	b.ReportMetric(cloudMedian, "cloud-median-ms")
	if satMedian >= cloudMedian {
		b.Fatalf("satellite bridge (%.1f ms) did not beat cloud (%.1f ms)", satMedian, cloudMedian)
	}
}

// BenchmarkFig5MeasuredVsExpected regenerates Fig. 5: measured end-to-end
// latency tracks the tracking server's calculated network latency.
func BenchmarkFig5MeasuredVsExpected(b *testing.B) {
	runReport(b, experiments.Fig5)
}

// BenchmarkFig6Reproducibility regenerates Fig. 6: three repetitions of
// the same experiment produce the same latency series.
func BenchmarkFig6Reproducibility(b *testing.B) {
	runReport(b, experiments.Fig6)
}

// BenchmarkFig7HostCPUTrace and BenchmarkFig8HostMemTrace regenerate the
// host resource usage traces (one experiment produces both).
func BenchmarkFig7HostCPUTrace(b *testing.B) {
	runReport(b, experiments.Fig7And8)
}

// BenchmarkFig8HostMemTrace is the memory half of the Fig. 7/8 trace
// experiment; see BenchmarkFig7HostCPUTrace.
func BenchmarkFig8HostMemTrace(b *testing.B) {
	runReport(b, experiments.Fig7And8)
}

// BenchmarkCostComparison regenerates the §4.2 cost table.
func BenchmarkCostComparison(b *testing.B) {
	runReport(b, experiments.CostTable)
}

// BenchmarkConstellationUpdate regenerates the §3.1 claim that one
// constellation update completes within a second.
func BenchmarkConstellationUpdate(b *testing.B) {
	runReport(b, experiments.CalcTime)
}

// starlinkP1Constellation builds the full phase I Starlink constellation
// (4,409 satellites in five shells, Fig. 1 of the paper) with one ground
// station, the scale target of the update-pipeline benchmarks below.
func starlinkP1Constellation(b *testing.B) *constellation.Constellation {
	b.Helper()
	var shells []config.Shell
	for _, sc := range orbit.StarlinkPhase1(orbit.ModelKepler) {
		shells = append(shells, config.Shell{ShellConfig: sc})
	}
	cfg := &config.Config{
		Shells: shells,
		GroundStations: []config.GroundStation{
			{Name: "accra", Location: geom.LatLon{LatDeg: 5.6037, LonDeg: -0.187}},
		},
	}
	cfg.Network.MinElevationDeg = 25
	if err := config.Finalize(cfg); err != nil {
		b.Fatal(err)
	}
	cons, err := constellation.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return cons
}

// BenchmarkConstellationUpdateStarlinkP1 measures one steady-state update
// tick — a pooled parallel snapshot plus one shortest-path source, the
// coordinator's per-tick work — at full Starlink phase 1 scale. Compare
// against the Sequential variant below for the parallel speedup and
// allocs/op reduction.
func BenchmarkConstellationUpdateStarlinkP1(b *testing.B) {
	cons := starlinkP1Constellation(b)
	pool := cons.NewSnapshotPool()
	gst := cons.NodeCount() - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := pool.Snapshot(float64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Latency(gst, 0); err != nil {
			b.Fatal(err)
		}
		pool.Recycle(st)
	}
}

// BenchmarkConstellationUpdateStarlinkP1Sequential is the single-threaded,
// allocate-per-tick baseline of BenchmarkConstellationUpdateStarlinkP1.
func BenchmarkConstellationUpdateStarlinkP1Sequential(b *testing.B) {
	cons := starlinkP1Constellation(b)
	gst := cons.NodeCount() - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := cons.SnapshotSequential(float64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Latency(gst, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// starlinkP1With100GSTs builds the Starlink Phase 1 constellation with 100
// ground stations spread over the globe on a golden-angle spiral — the
// many-station scenario where the per-tick visibility scan dominates the
// update cost.
func starlinkP1With100GSTs(b *testing.B) *constellation.Constellation {
	b.Helper()
	var shells []config.Shell
	for _, sc := range orbit.StarlinkPhase1(orbit.ModelKepler) {
		shells = append(shells, config.Shell{ShellConfig: sc})
	}
	const n = 100
	gsts := make([]config.GroundStation, n)
	for i := range gsts {
		lat := geom.Deg(math.Asin(2*(float64(i)+0.5)/n - 1))
		lon := math.Mod(float64(i)*137.50776405, 360) - 180
		gsts[i] = config.GroundStation{
			Name:     fmt.Sprintf("gst%03d", i),
			Location: geom.LatLon{LatDeg: lat, LonDeg: lon},
		}
	}
	cfg := &config.Config{Shells: shells, GroundStations: gsts}
	cfg.Network.MinElevationDeg = 25
	if err := config.Finalize(cfg); err != nil {
		b.Fatal(err)
	}
	cons, err := constellation.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return cons
}

// BenchmarkTickUpdate measures one coordinator update tick — snapshot plus
// one shortest-path query — on Starlink Phase 1 with 100 ground stations
// at a 1 s step, the scale target of the diff engine.
//
// steady-diff is the delta pipeline: pooled double-buffered snapshots with
// the spatial visibility index, per-tick diffs and path-cache carry-over
// on sub-quantum ticks. from-scratch is the pre-delta pipeline: a freshly
// allocated snapshot per tick with the brute-force O(G×S) visibility scan
// and a full Dijkstra recompute. Both run the identical scenario and
// produce identical states.
func BenchmarkTickUpdate(b *testing.B) {
	b.Run("steady-diff", func(b *testing.B) {
		cons := starlinkP1With100GSTs(b)
		pool := cons.NewSnapshotPool()
		gst := cons.NodeCount() - 1
		// Prime the double buffer so every measured tick has a diff base.
		prev, err := pool.Snapshot(0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := prev.Latency(gst, 0); err != nil {
			b.Fatal(err)
		}
		emptyTicks, carried := 0, 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := pool.Snapshot(float64(i + 1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Latency(gst, 0); err != nil {
				b.Fatal(err)
			}
			if d := st.Diff(); d.Empty() {
				emptyTicks++
				carried += d.CarriedPaths
			}
			pool.Recycle(prev)
			prev = st
		}
		b.ReportMetric(float64(emptyTicks)/float64(b.N), "empty-tick-frac")
		b.ReportMetric(float64(carried)/float64(b.N), "carried-paths/op")
	})
	b.Run("from-scratch", func(b *testing.B) {
		cons := starlinkP1With100GSTs(b)
		cons.SetBruteVisibility(true)
		gst := cons.NodeCount() - 1
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := cons.Snapshot(float64(i + 1))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Latency(gst, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	// steady-diff-carryover isolates the path-cache carry-over in the
	// regime where empty diffs actually occur. At Starlink Phase 1 scale
	// roughly 80 ISLs cross a delay-quantum boundary per second, so 1 s
	// ticks always carry at least a small delta; a high-resolution run (5
	// ms step, one station) keeps most ticks fully sub-quantum, and the
	// Dijkstra tree is transplanted instead of recomputed.
	b.Run("steady-diff-carryover", func(b *testing.B) {
		cons := starlinkP1Constellation(b)
		pool := cons.NewSnapshotPool()
		gst := cons.NodeCount() - 1
		prev, err := pool.Snapshot(0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := prev.Latency(gst, 0); err != nil {
			b.Fatal(err)
		}
		emptyTicks, carried := 0, 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := pool.Snapshot(float64(i+1) * 0.005)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Latency(gst, 0); err != nil {
				b.Fatal(err)
			}
			if d := st.Diff(); d.Empty() {
				emptyTicks++
				carried += d.CarriedPaths
			}
			pool.Recycle(prev)
			prev = st
		}
		b.ReportMetric(float64(emptyTicks)/float64(b.N), "empty-tick-frac")
		b.ReportMetric(float64(carried)/float64(b.N), "carried-paths/op")
	})
}

// gen2With100GSTs builds the full Starlink Gen2 constellation (29,988
// satellites in nine shells) with 100 golden-angle-spiral ground stations —
// the scale target of the incremental visibility index, in-place CSR
// patching and arena-backed snapshot pipeline.
func gen2With100GSTs(b *testing.B) *constellation.Constellation {
	b.Helper()
	var shells []config.Shell
	for _, sc := range orbit.StarlinkGen2(orbit.ModelKepler) {
		shells = append(shells, config.Shell{ShellConfig: sc})
	}
	const n = 100
	gsts := make([]config.GroundStation, n)
	for i := range gsts {
		lat := geom.Deg(math.Asin(2*(float64(i)+0.5)/n - 1))
		lon := math.Mod(float64(i)*137.50776405, 360) - 180
		gsts[i] = config.GroundStation{
			Name:     fmt.Sprintf("gst%03d", i),
			Location: geom.LatLon{LatDeg: lat, LonDeg: lon},
		}
	}
	cfg := &config.Config{Shells: shells, GroundStations: gsts}
	cfg.Network.MinElevationDeg = 25
	if err := config.Finalize(cfg); err != nil {
		b.Fatal(err)
	}
	cons, err := constellation.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return cons
}

// BenchmarkTickUpdateGen2 measures one steady-state coordinator tick —
// pooled snapshot plus one shortest-path query — on the full Starlink Gen2
// constellation (29,988 satellites) with 100 ground stations at a 1 s
// step. This is the scale the incremental pipeline exists for: the
// visibility index re-buckets only boundary-crossing satellites, link
// deltas are patched into the frozen CSR graph in place instead of
// re-freezing all ~60k edges, and snapshot slices come from per-generation
// arenas. The paper's §3.1 real-time bound (one update per second) must
// hold: the benchmark fails if the mean steady-state tick exceeds 1 s.
func BenchmarkTickUpdateGen2(b *testing.B) {
	cons := gen2With100GSTs(b)
	pool := cons.NewSnapshotPool()
	gst := cons.NodeCount() - 1
	// Tick supervision runs live during the measurement, exactly as a
	// watchdog-enabled coordinator would drive this pipeline: per-stage
	// timings feed the watchdog's projections against the 1 s real-time
	// budget, and the fraction of ticks it would have degraded is
	// reported as a metric. The observation itself is a few clock reads
	// and EWMA updates per tick — it must not move the tick cost.
	wd := supervise.New(supervise.Config{Interval: time.Second})
	pool.SetStageTimer(func(stage string, d time.Duration) {
		switch stage {
		case "snapshot":
			wd.Observe(supervise.StageSnapshot, d)
		case "diff":
			wd.Observe(supervise.StageDiff, d)
		case "repair":
			wd.Observe(supervise.StagePathRepair, d)
		}
	})
	// Prime the double buffer: the cold-start tick pays the full build
	// and is excluded from the steady-state measurement.
	prev, err := pool.Snapshot(0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := prev.Latency(gst, 0); err != nil {
		b.Fatal(err)
	}
	patchedTicks, patchedEdges := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		wd.BeginTick()
		st, err := pool.Snapshot(float64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Latency(gst, 0); err != nil {
			b.Fatal(err)
		}
		d := st.Diff()
		if d.GraphPatched {
			patchedTicks++
			patchedEdges += d.PatchedEdges
		}
		pool.Recycle(prev)
		prev = st
		wd.EndTick()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(patchedTicks)/float64(b.N), "patched-tick-frac")
	b.ReportMetric(float64(patchedEdges)/float64(b.N), "patched-edges/op")
	b.ReportMetric(float64(wd.Stats().DegradedTicks)/float64(b.N), "degraded-tick-frac")
	if mean := elapsed / time.Duration(b.N); mean > time.Second {
		b.Fatalf("steady-state Gen2 tick took %v, over the 1 s real-time bound", mean)
	}
}

// BenchmarkDijkstraGen2Stations isolates the shortest-path kernel of the
// Gen2 tick: one op computes all 100 station trees of gen2With100GSTs
// (29,988 satellites, stations non-forwarding) on one warm workspace and
// recycled result arrays, the way a path-repair fallback recomputes them.
// A warm run allocates nothing.
func BenchmarkDijkstraGen2Stations(b *testing.B) {
	cons := gen2With100GSTs(b)
	st, err := cons.NewSnapshotPool().Snapshot(0)
	if err != nil {
		b.Fatal(err)
	}
	g := st.Graph()
	n := cons.NodeCount()
	sats := n - 100
	transit := func(node int) bool { return node < sats }
	var ws graph.Workspace
	dist, prev := make([]float64, n), make([]int, n)
	trees := func() {
		for src := sats; src < n; src++ {
			if _, err := g.DijkstraTransitInto(src, transit, dist, prev, &ws); err != nil {
				b.Fatal(err)
			}
		}
	}
	trees()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trees()
	}
}

// BenchmarkTickUpdateRepair isolates the incremental shortest-path repair
// on the regime BenchmarkTickUpdate cannot win: Starlink Phase 1 with 100
// ground stations at a 1 s step, where every tick ships a small non-empty
// link diff (~dozens of delay-quantum bumps out of ~40k edges) and all 100
// station trees are in the cache. "repair" is the shipping pipeline — the
// pool translates the diff into edge deltas and repairs every completed
// entry in parallel before the state is published. "recompute" disables
// repair (SetPathRepair(false)), so each tick's queries re-run full
// Dijkstra per source on demand — the pre-repair behavior. Both variants
// run the identical scenario and serve bit-identical paths.
func BenchmarkTickUpdateRepair(b *testing.B) {
	run := func(b *testing.B, repair bool) {
		cons := starlinkP1With100GSTs(b)
		pool := cons.NewSnapshotPool()
		pool.SetPathRepair(repair)
		n := cons.NodeCount()
		gstBase := n - 100
		queryAll := func(st *constellation.State) {
			for g := gstBase; g < n; g++ {
				if _, err := st.Latency(g, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
		prev, err := pool.Snapshot(0)
		if err != nil {
			b.Fatal(err)
		}
		queryAll(prev)
		repaired, fallbacks := 0, 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := pool.Snapshot(float64(i + 1))
			if err != nil {
				b.Fatal(err)
			}
			queryAll(st)
			d := st.Diff()
			repaired += d.RepairedPaths
			fallbacks += d.RepairFallbacks
			pool.Recycle(prev)
			prev = st
		}
		b.ReportMetric(float64(repaired)/float64(b.N), "repaired-paths/op")
		b.ReportMetric(float64(fallbacks)/float64(b.N), "repair-fallbacks/op")
	}
	b.Run("repair", func(b *testing.B) { run(b, true) })
	b.Run("recompute", func(b *testing.B) { run(b, false) })
}

// BenchmarkFig10IridiumTopology regenerates Fig. 10: the Iridium
// constellation with its cross-seam ISL gap and the DART ground segment.
func BenchmarkFig10IridiumTopology(b *testing.B) {
	runReport(b, experiments.Fig10)
}

// BenchmarkFig11DARTDeployments regenerates Fig. 11: mean end-to-end
// latency of the remote-sensing pipeline under central and on-satellite
// processing, reporting both means.
func BenchmarkFig11DARTDeployments(b *testing.B) {
	var centralMean, satMean float64
	for i := 0; i < b.N; i++ {
		central, err := dart.Run(quickDart(dart.DeploymentCentral))
		if err != nil {
			b.Fatal(err)
		}
		sat, err := dart.Run(quickDart(dart.DeploymentSatellite))
		if err != nil {
			b.Fatal(err)
		}
		centralMean = central.Summary().Mean
		satMean = sat.Summary().Mean
	}
	b.ReportMetric(centralMean, "central-mean-ms")
	b.ReportMetric(satMean, "sat-mean-ms")
	if satMean >= centralMean {
		b.Fatalf("satellite deployment (%.1f ms) did not beat central (%.1f ms)", satMean, centralMean)
	}
}

// BenchmarkNetemQuantization regenerates the §3.1 claim of 0.1 ms delay
// injection accuracy.
func BenchmarkNetemQuantization(b *testing.B) {
	runReport(b, experiments.NetemQuantization)
}

// BenchmarkProcessingDelayModel regenerates the §4.1 processing-delay
// baseline (1.37 ms median, 3.86 ms standard deviation).
func BenchmarkProcessingDelayModel(b *testing.B) {
	runReport(b, experiments.ProcessingDelayModelReport)
}

// quickMeetup mirrors experiments.Options quick mode for the benchmarks
// that need raw results.
func quickMeetup(d meetup.Deployment) meetup.Params {
	p := meetup.DefaultParams(d)
	p.Duration = 2 * time.Minute
	p.Shells = 1
	p.PacketInterval = 250 * time.Millisecond
	p.Model = orbit.ModelKepler
	return p
}

// quickDart mirrors experiments.Options quick mode for DART.
func quickDart(d dart.Deployment) dart.Params {
	p := dart.DefaultParams(d)
	p.Duration = 90 * time.Second
	p.Warmup = 30 * time.Second
	p.Model = orbit.ModelKepler
	return p
}
