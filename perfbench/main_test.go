package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"celestial/internal/scenario"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{10000, 100, 99.9},
		{10000, 99, 99},
		{1000, 99, 99},
		{999, 99, 95},
		{200, 99, 95},
		{199, 99, 90},
		{100, 99, 90},
		{40, 99, 75},
		{20, 99, 50},
		{19, 99, 0},
		{0, 99, 0},
	} {
		if got := tailPercentile(tc.n, tc.limit); got != tc.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", tc.n, tc.limit, got, tc.want)
		}
		// The rung has ten samples beyond it, the next higher one does not.
		if p := tailPercentile(tc.n, tc.limit); p > 0 && float64(tc.n)*(1-p/100) < 10-1e-9 {
			t.Errorf("n=%d: p%g has fewer than ten samples beyond it", tc.n, p)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if v, p := tail(xs, 99); p != 99 || math.Abs(v-990.01) > 1e-9 {
		t.Errorf("tail of 1..1000 = %v at p%v, want 990.01 at p99", v, p)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestOpenLoopCountsFromDue(t *testing.T) {
	var o openLoop
	due := time.Unix(100, 0)
	// Issued 5 ms late behind a stall, answered 3 ms after issue: the
	// latency counts the stall.
	o.record(due, due.Add(5*time.Millisecond), due.Add(8*time.Millisecond))
	// Issued on time.
	o.record(due, due, due.Add(2*time.Millisecond))
	if o.latencyMs[0] != 8 || o.latencyMs[1] != 2 {
		t.Errorf("latencies = %v, want [8 2] (from the due time)", o.latencyMs)
	}
	if o.lateMs[0] != 5 || o.lateMs[1] != 0 {
		t.Errorf("lateness = %v, want [5 0]", o.lateMs)
	}
}

// TestAttributionCoversEveryPackage fails when a package is added under
// internal/ without a layer in packageLayers.
func TestAttributionCoversEveryPackage(t *testing.T) {
	root := filepath.Join("..", "internal")
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		seen[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 20 {
		t.Fatalf("found only %d packages under %s", len(seen), root)
	}
	for pkg := range seen {
		layer, ok := packageLayers[pkg]
		if !ok {
			t.Errorf("package internal/%s has no layer in packageLayers", pkg)
			continue
		}
		if layer == "" && (functionLayers[pkg] == nil || defaultFunctionLayer[pkg] == "") {
			t.Errorf("package internal/%s splits by function but has no function table or default", pkg)
		}
	}
	for pkg := range packageLayers {
		if !seen[pkg] {
			t.Errorf("packageLayers maps internal/%s, which does not exist", pkg)
		}
	}
	known := map[string]bool{layerHelper: true}
	for _, l := range cpuLayers {
		known[l] = true
	}
	check := func(where, l string) {
		if !known[l] {
			t.Errorf("%s maps to unknown layer %q", where, l)
		}
	}
	for pkg, l := range packageLayers {
		if l != "" {
			check(pkg, l)
		}
	}
	for pkg, table := range functionLayers {
		for fn, l := range table {
			check(pkg+"."+fn, l)
		}
		check(pkg+" default", defaultFunctionLayer[pkg])
	}
}

func TestFrameAndSampleLayers(t *testing.T) {
	for fn, want := range map[string]string{
		"celestial/internal/graph.(*Graph).PatchFrozen":                      "csr_patch",
		"celestial/internal/graph.(*Graph).compactFrozen":                    "csr_patch",
		"celestial/internal/graph.(*Graph).runHeap":                          "path_repair",
		"celestial/internal/graph.(*minHeap).pop":                            "path_repair",
		"celestial/internal/constellation.(*State).computeDiffFrom":          "diff",
		"celestial/internal/constellation.(*Diff).Stats":                     "diff",
		"celestial/internal/constellation.(*SnapshotPool).repairPaths.func1": "path_repair",
		"celestial/internal/constellation.(*Constellation).snapshotInto":     "link_build",
		"celestial/internal/constellation.(*arena[go.shape.int]).carve":      "link_build",
		"celestial/internal/coordinator.stateTopology.PathInfo":              "traffic",
		"celestial/internal/coordinator.(*hostBackend).SweepActivity":        "apply",
		"celestial/internal/coordinator.(*Coordinator).update":               "coordinator",
		"celestial/internal/httpapi/middleware.Chain":                        "publish",
		"celestial/internal/orbit.(*Shell).PositionsInto":                    "propagate",
		"celestial/internal/geom.LineOfSight":                                layerHelper,
		"main.(*subscriber).Write":                                           "bench",
		"runtime.mallocgc":                                                   "",
		"celestial/internal/newpkg.Func":                                     "other",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
	for _, tc := range []struct {
		frames []string
		label  string
		want   string
	}{
		// Helpers pass a sample to their caller's layer.
		{[]string{"math.Sin", "celestial/internal/geom.LineOfSight", "celestial/internal/topo.(*VisIndex).Update"}, "", "visindex"},
		{[]string{"runtime.mallocgc", "celestial/internal/graph.(*Graph).runHeap"}, "fanout", "path_repair"},
		{[]string{"syscall.Syscall6", "net/http.(*conn).serve"}, "replica", "replica"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "", "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "", "sched"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm"}, "", "other"},
	} {
		if got := sampleLayer(tc.frames, tc.label); got != tc.want {
			t.Errorf("sampleLayer(%v, %q) = %q, want %q", tc.frames, tc.label, got, tc.want)
		}
	}
}

// spin burns CPU in this package so its samples attribute to bench.
func spin(d time.Duration) float64 {
	x := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("layer", "replica"), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples decoded")
	}
	labeled := false
	for _, s := range p.samples {
		if s.label == "replica" {
			labeled = true
		}
	}
	if !labeled {
		t.Error("no sample carries the goroutine's layer label")
	}
	if got := p.attribute(); got["bench"] == 0 {
		t.Errorf("attribution %v gave the test's own spin loop no bench CPU", got)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestGeneratorDeterministicAndResolvable(t *testing.T) {
	for _, w := range workloads {
		a := w.generate(7, 20)
		if b := w.generate(7, 20); a.toml != b.toml {
			t.Errorf("%s: same seed generated different scenarios", w.name)
		}
		if c := w.generate(8, 20); a.toml == c.toml {
			t.Errorf("%s: seeds 7 and 8 generated the same scenario", w.name)
		}
		sc, err := scenario.Parse(strings.NewReader(a.toml))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		res := w.resolution.Seconds()
		if got, want := sc.Horizon.Seconds(), float64(a.ticks)*res; got != want {
			t.Errorf("%s: horizon %vs, want %d ticks of %vs", w.name, got, a.ticks, res)
		}
		names := map[string]bool{}
		for _, g := range sc.Config.GroundStations {
			names[g.Name] = true
			lat, lon := g.Location.LatDeg, g.Location.LonDeg
			if b := w.bbox; b != nil {
				if lat < b[0] || lat > b[2] || lon < b[1] || lon > b[3] {
					t.Errorf("%s: station %s at (%v, %v) outside the box %v", w.name, g.Name, lat, lon, b)
				}
			} else if math.Abs(lat) > w.maxLat {
				t.Errorf("%s: station %s at latitude %v beyond ±%v", w.name, g.Name, lat, w.maxLat)
			}
		}
		if len(names) != w.stations || len(sc.Flows) != w.flows {
			t.Errorf("%s: %d stations and %d flows, want %d and %d", w.name, len(names), len(sc.Flows), w.stations, w.flows)
		}
		pairs := map[[2]string]bool{}
		for _, f := range sc.Flows {
			if !names[f.Source] || !names[f.Target] || f.Source == f.Target {
				t.Errorf("%s: flow %s references %s → %s", w.name, f.Name, f.Source, f.Target)
			}
			if pairs[[2]string{f.Source, f.Target}] {
				t.Errorf("%s: flow pair %s → %s repeats", w.name, f.Source, f.Target)
			}
			pairs[[2]string{f.Source, f.Target}] = true
		}
		for _, ev := range sc.Events {
			if ev.Node != "" && !names[ev.Node] {
				t.Errorf("%s: event references unknown node %q", w.name, ev.Node)
			}
		}
		if !w.follow {
			continue
		}
		for _, r := range getMix(7, a, w, 500) {
			parts := strings.Split(strings.TrimPrefix(r.path, "/v1/"), "/")
			switch parts[0] {
			case "info":
			case "gst":
				if !names[parts[1]] {
					t.Errorf("%s: GET %s names an unknown station", w.name, r.path)
				}
			case "path":
				if !names[parts[1]] || !names[parts[2]] || parts[1] == parts[2] {
					t.Errorf("%s: GET %s names unknown or equal stations", w.name, r.path)
				}
			case "shell":
				var shell, sat int
				if _, err := fmt.Sscan(parts[1]+" "+parts[2], &shell, &sat); err != nil ||
					shell >= len(w.shells) || sat >= w.shells[shell].planes*w.shells[shell].sats {
					t.Errorf("%s: GET %s names no satellite", w.name, r.path)
				}
			default:
				t.Errorf("%s: unexpected GET %s", w.name, r.path)
			}
		}
	}
}

// TestBenchmarkDefinitionMatches keeps BENCHMARK.json's metric and
// workload lists equal to what the program prints and runs.
func TestBenchmarkDefinitionMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", def.EndToEnd, endToEnd)
	compare("per_layer", def.PerLayer, perLayer())
}

// TestMetricDocsCoverEverything keeps metrics.json documenting every
// workload (with the program's why) and every metric the program prints,
// and BENCHMARK.json's why sentences equal to the program's.
func TestMetricDocsCoverEverything(t *testing.T) {
	var docs struct {
		Workloads []struct{ Name, Why string }
		Metrics   []struct {
			Name, Unit, Kind, Layer, Definition string
			ShouldMove                          []struct{ Metric, Workload string } `json:"should_move"`
		}
	}
	data, err := os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &docs); err != nil {
		t.Fatal(err)
	}
	why := map[string]string{}
	for _, w := range docs.Workloads {
		why[w.Name] = w.Why
	}
	for _, w := range workloads {
		if why[w.name] != w.why {
			t.Errorf("metrics.json why of %s = %q, program says %q", w.name, why[w.name], w.why)
		}
	}
	var def struct{ Workloads []struct{ Name, Why string } }
	if data, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if why[w.Name] != w.Why {
			t.Errorf("BENCHMARK.json why of %s differs from the program's", w.Name)
		}
	}
	documented := map[string]string{}
	for _, m := range docs.Metrics {
		documented[m.Name] = m.Kind + "/" + m.Unit
		if m.Layer == "" || m.Definition == "" {
			t.Errorf("metric %s lacks a layer or definition", m.Name)
		}
		for _, mv := range m.ShouldMove {
			if _, err := workloadByName(mv.Workload); err != nil {
				t.Errorf("metric %s: %v", m.Name, err)
			}
		}
	}
	all := map[string]string{}
	for _, d := range endToEnd {
		all[d.name] = "end_to_end/" + d.unit
	}
	for _, d := range perLayer() {
		all[d.name] = "per_layer/" + d.unit
	}
	for name, want := range all {
		if documented[name] != want {
			t.Errorf("metric %s documented as %q, want %q", name, documented[name], want)
		}
	}
	if len(documented) != len(all) {
		t.Errorf("metrics.json documents %d metrics, the program prints %d", len(documented), len(all))
	}
}
