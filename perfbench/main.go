// Command perfbench is the repository's steady-state testbed benchmark.
// It generates a seeded workload scenario, drives it through the same
// public entry points the CLIs use (scenario runner with a tick hook, the
// /v1 API, the host-agent fan-out with an applying agent, a read replica),
// checks the outputs, and prints the workload's metrics. With --trace 1 it
// runs the workload a second time with spans, a CPU profile and a stage
// replay, and prints the per-layer metrics instead.
//
//	bash perfbench/run.sh --workload gen2-sparse --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --smoke
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (name → value and unit). A failed correctness check
// exits non-zero and prints no metrics. BENCHMARK.json at the repository
// root lists the metrics; perfbench/metrics.json documents them.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose report digests digests.json records.
const defaultSeed = 1

// setupRuns is how many times a timed run sets up; setup_s is the median.
const setupRuns = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings.
type options struct {
	seed      int64
	seconds   int
	trace     bool
	outDir    string
	celestial string
	digests   string
	stderr    io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: gen2-mesh, gen2-sparse, p1-follow or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 10, "nominal length of the steady window; fixes its tick count")
	trace := fs.Int("trace", 0, "1 runs the workload untraced and traced and prints the per-layer metrics")
	smoke := fs.Bool("smoke", false, "run a few ticks of --workload (default all) with every check on and no timing")
	outDir := fs.String("out", ".bench_build/out", "directory for emitted scenarios, reports, profiles and traces")
	celestial := fs.String("celestial", "", "celestial CLI binary for the -scenario equivalence check")
	digests := fs.String("digests", "perfbench/digests.json", "recorded report digests of the default seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := &options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir,
		celestial: *celestial, digests: *digests, stderr: stderr}
	if *celestial == "" {
		fmt.Fprintln(stderr, "perfbench: -celestial is required (run through perfbench/run.sh)")
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var selected []*workload
	if *name == "all" || (*smoke && *name == "") {
		selected = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		selected = []*workload{w}
	}
	for _, w := range selected {
		var out *result
		var err error
		if *smoke {
			err = smokeRun(w, o)
		} else {
			out, err = measure(w, o)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: FAILED: %v\n", w.name, err)
			return 1
		}
		if out != nil {
			line, err := json.Marshal(out)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	if *smoke {
		fmt.Fprintln(stdout, `{"smoke": "ok"}`)
	}
	return 0
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// prepare generates a workload instance and writes its scenario file.
func prepare(w *workload, o *options, smoke bool) (*generated, string, error) {
	g := w.generate(o.seed, w.steadyTicks(o.seconds, smoke))
	kind := "timed"
	if smoke {
		kind = "smoke"
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-%s.toml", w.name, o.seed, kind))
	return g, path, os.WriteFile(path, []byte(g.toml), 0o644)
}

// freeRun drops a finished run's memory before the next one starts, so
// runs neither share heap growth nor pile up.
func freeRun() {
	runtime.GC()
	debug.FreeOSMemory()
}

// measure runs one workload and returns its result line: the end-to-end
// metrics, or with --trace 1 the per-layer metrics.
func measure(w *workload, o *options) (*result, error) {
	g, tomlPath, err := prepare(w, o, false)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		var setups []float64
		for i := 0; i < setupRuns-1; i++ {
			r, err := runWorkload(w, g, o.seed, runMode{setupOnly: true})
			if err != nil {
				return nil, fmt.Errorf("set-up run: %w", err)
			}
			setups = append(setups, r.setupS)
			freeRun()
		}
		res, err := runWorkload(w, g, o.seed, runMode{})
		if err != nil {
			return nil, err
		}
		freeRun()
		setups = append(setups, res.setupS)
		if err := checkReport(w, o, tomlPath, res.report, false); err != nil {
			return nil, err
		}
		m := map[string]float64{
			"setup_s":         median(setups),
			"tick_ms_p50":     median(res.tickMs),
			"cpu_ms_per_tick": res.cpuMs / float64(res.steady),
		}
		printSummary(o.stderr, w, res, m)
		return newResult(endToEnd, m, res.attempted, res.failed)
	}

	untraced, err := runWorkload(w, g, o.seed, runMode{})
	if err != nil {
		return nil, err
	}
	freeRun()
	traced, err := runWorkload(w, g, o.seed, runMode{traced: true})
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	freeRun()
	if !bytes.Equal(untraced.report, traced.report) {
		return nil, errors.New("the traced run's report differs from the timed run's")
	}
	if err := checkReport(w, o, tomlPath, traced.report, false); err != nil {
		return nil, err
	}
	rp, err := replay(w, g)
	if err != nil {
		return nil, err
	}
	if err := checkReplay(w, traced.diffs, rp); err != nil {
		return nil, err
	}
	freeRun()
	prof, err := parseCPUProfile(traced.prof)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := os.WriteFile(base+".cpu.pprof", traced.prof, 0o644); err != nil {
		return nil, err
	}
	if err := traced.tr.writeChrome(base+".trace.json", traced.base); err != nil {
		return nil, err
	}
	m := layerMetrics(untraced, traced, prof, rp)
	printLayers(o.stderr, w, traced, prof, rp, m)
	return newResult(perLayer(), m, untraced.attempted+traced.attempted, untraced.failed+traced.failed)
}

// newResult builds the result line, requiring every listed metric.
func newResult(defs []metricDef, m map[string]float64, attempted, failed int) (*result, error) {
	out := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(m) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, defined %d", len(m), len(defs))
	}
	return out, nil
}

// smokeRun runs a few unpaced ticks of a workload with every check on.
func smokeRun(w *workload, o *options) error {
	g, tomlPath, err := prepare(w, o, true)
	if err != nil {
		return err
	}
	start := time.Now()
	a, err := runWorkload(w, g, o.seed, runMode{smoke: true})
	if err != nil {
		return err
	}
	b, err := runWorkload(w, g, o.seed, runMode{smoke: true, traced: true})
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	if !bytes.Equal(a.report, b.report) {
		return errors.New("the traced run's report differs from the untraced run's")
	}
	if _, err := parseCPUProfile(b.prof); err != nil {
		return err
	}
	if err := checkReport(w, o, tomlPath, a.report, true); err != nil {
		return err
	}
	rp, err := replay(w, g)
	if err != nil {
		return err
	}
	if err := checkReplay(w, b.diffs, rp); err != nil {
		return err
	}
	fmt.Fprintf(o.stderr, "perfbench: %s smoke ok (%d ticks, %v)\n", w.name, g.ticks, time.Since(start).Round(time.Millisecond))
	return nil
}

// checkReport runs the report checks: the recorded digest for the
// default seed (a default-seed run with no recorded digest fails), and
// byte equality with `celestial -scenario` on the emitted scenario file.
func checkReport(w *workload, o *options, tomlPath string, report []byte, smoke bool) error {
	sum := sha256.Sum256(report)
	digest := hex.EncodeToString(sum[:])
	key := digestKey(w, o, smoke)
	if key != "" {
		want, err := recordedDigest(o.digests, key)
		if err != nil {
			return err
		}
		if want == "" {
			return fmt.Errorf("%s records no digest for %s (this run's report digest is %s)", o.digests, key, digest)
		}
		if want != digest {
			return fmt.Errorf("report digest %s differs from the recorded %s (%s): a change altered the report bytes", digest, want, key)
		}
	}
	reportPath := strings.TrimSuffix(tomlPath, ".toml") + ".report.json"
	if err := os.WriteFile(reportPath, report, 0o644); err != nil {
		return err
	}
	cliPath := strings.TrimSuffix(tomlPath, ".toml") + ".cli.json"
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, o.celestial, "-scenario", tomlPath, "-report", cliPath)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("celestial -scenario: %v\n%s", err, stderr.Bytes())
	}
	cli, err := os.ReadFile(cliPath)
	if err != nil {
		return err
	}
	if !bytes.Equal(cli, report) {
		return fmt.Errorf("celestial -scenario %s wrote a different report (%s vs %s)", tomlPath, cliPath, reportPath)
	}
	return nil
}

// digestKey names a report in digests.json; "" for seeds other than the
// default, whose reports are only checked against the CLI.
func digestKey(w *workload, o *options, smoke bool) string {
	if o.seed != defaultSeed {
		return ""
	}
	if smoke {
		return w.name + "/smoke"
	}
	return fmt.Sprintf("%s/seconds=%d", w.name, o.seconds)
}

// recordedDigest reads one recorded report digest; "" when none is
// recorded for key.
func recordedDigest(path, key string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return m[key], nil
}

// printSummary writes the human-readable end-to-end table.
func printSummary(w io.Writer, wl *workload, res *runResult, m map[string]float64) {
	fmt.Fprintf(w, "perfbench: %s: %d steady ticks, %d/%d ops failed\n", wl.name, res.steady, res.failed, res.attempted)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range endToEnd {
		units[d.name] = d.unit
	}
	for _, k := range names {
		fmt.Fprintf(w, "  %-18s %12.4f %s\n", k, m[k], units[k])
	}
	tailV, tailP := tail(append([]float64(nil), res.tickMs...), 99)
	fmt.Fprintf(w, "  %-18s %12.4f ms (p%g of %d ticks)\n", "tick_ms_tail", tailV, tailP, len(res.tickMs))
	fmt.Fprintf(w, "  %-18s %12.4f MiB\n", "heap_live_mb", res.heapLiveMB)
	if res.attempted > 0 {
		fmt.Fprintf(w, "  %-18s %12.4f ratio\n", "failed_frac", float64(res.failed)/float64(res.attempted))
	}
	if len(res.visibleMs) > 0 {
		for _, p := range []float64{50, 99} {
			fmt.Fprintf(w, "  visible_ms_p%-6g %12.4f ms (%d samples)\n", p, percentile(res.visibleMs, p), len(res.visibleMs))
		}
		for _, p := range []float64{50, 99} {
			fmt.Fprintf(w, "  get_ms_p%-10g %12.4f ms (%d samples)\n", p, percentile(res.gets.latencyMs, p), len(res.gets.latencyMs))
		}
	}
}
