package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run, measured on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tick_ms_p50", "ms"},
	{"cpu_ms_per_tick", "ms"},
}

// layerDefs are the per-layer metrics of a --trace 1 run besides the
// cpu.* attribution. A metric of a layer a workload lacks reads 0.
var layerDefs = []metricDef{
	// End-to-end figures of the untraced run that not every workload has.
	{"tick_ms_p90", "ms"},
	{"visible_ms_p50", "ms"},
	{"visible_ms_p99", "ms"},
	{"get_ms_p50", "ms"},
	{"get_ms_p99", "ms"},
	{"failed_frac", "ratio"},
	{"heap_live_mb", "MiB"},
	{"graph.repaired_paths", "count"},
	{"graph.repair_fallbacks", "count"},
	{"graph.repair_hit", "ratio"},
	{"constellation.snapshot_ms", "ms"},
	{"constellation.diff_ms", "ms"},
	{"constellation.repair_ms", "ms"},
	{"constellation.links_changed", "count"},
	{"constellation.patched_edges", "count"},
	{"constellation.activity_flips", "count"},
	{"applyengine.retry_attempts", "count"},
	{"applyengine.retry_failures", "count"},
	{"applyengine.first_try_ok", "ratio"},
	{"applyengine.apply_errors", "count"},
	{"hostlink.commit_wait_ms_p50", "ms"},
	{"hostlink.commit_wait_ms_p99", "ms"},
	{"hostlink.frames", "count"},
	{"hostlink.replayed", "count"},
	{"hostlink.resyncs", "count"},
	{"hostlink.snapshot_resyncs", "count"},
	{"hostlink.dropped", "count"},
	{"hostlink.fallback_applies", "count"},
	{"hostlink.wire_retries", "count"},
	{"coordinator.ring_evictions", "count"},
	{"coordinator.forced_resyncs", "count"},
	{"httpapi.upstream_gets", "count"},
	{"httpapi.upstream_ms_p50", "ms"},
	{"httpapi.upstream_ms_p99", "ms"},
	{"readpath.catchup_ms_p50", "ms"},
	{"readpath.catchup_ms_p99", "ms"},
	{"readpath.fanout_ms_p50", "ms"},
	{"readpath.fanout_ms_p99", "ms"},
	{"readpath.frames_applied", "count"},
	{"readpath.resyncs", "count"},
	{"readpath.reconnects", "count"},
	{"readpath.cache_hit", "ratio"},
	{"readpath.get_ms_p99.info", "ms"},
	{"readpath.get_ms_p99.gst", "ms"},
	{"readpath.get_ms_p99.sat", "ms"},
	{"readpath.get_ms_p99.path", "ms"},
	{"vnet.delivered", "count"},
	{"vnet.dropped", "count"},
	{"runtime.alloc_mb_per_tick", "MiB"},
	{"runtime.gc_cycles_per_tick", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"bench.tick_late_ms_p99", "ms"},
	{"bench.get_late_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}

// perLayer lists every per-layer metric: the cpu.* attribution, in ms of
// CPU per steady tick, then layerDefs.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range cpuLayers {
		out = append(out, metricDef{"cpu." + l, "ms"})
	}
	return append(out, layerDefs...)
}

// p99 is the tail at p99, or the highest percentile with ten samples
// beyond it when there are fewer than a thousand; 0 without samples.
func p99(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := tail(append([]float64(nil), xs...), 99)
	return v
}

// p50 is the median, 0 without samples.
func p50(xs []float64) float64 { return median(append([]float64(nil), xs...)) }

// ratio is a/b, or ifEmpty when b is 0.
func ratio(a, b, ifEmpty float64) float64 {
	if b == 0 {
		return ifEmpty
	}
	return a / b
}

// layerMetrics computes the per-layer metrics: CPU attribution, spans
// and counters of the traced run, the stage replay, and the end-to-end
// figures of the untraced run that only some workloads have.
func layerMetrics(untraced, traced *runResult, prof *cpuProfile, rp *replayResult) map[string]float64 {
	m := map[string]float64{}
	n := float64(traced.steady)
	for l, ns := range prof.attribute() {
		m["cpu."+l] += float64(ns) / 1e6 / n
	}
	for _, l := range cpuLayers {
		m["cpu."+l] += 0
	}

	m["tick_ms_p90"] = 0
	if len(untraced.tickMs) >= 100 {
		m["tick_ms_p90"] = percentile(append([]float64(nil), untraced.tickMs...), 90)
	}
	m["visible_ms_p50"], m["visible_ms_p99"] = p50(untraced.visibleMs), p99(untraced.visibleMs)
	m["get_ms_p50"], m["get_ms_p99"] = p50(untraced.gets.latencyMs), p99(untraced.gets.latencyMs)
	m["failed_frac"] = ratio(float64(untraced.failed), float64(untraced.attempted), 0)
	m["heap_live_mb"] = untraced.heapLiveMB

	d := traced.diffs
	m["graph.repaired_paths"] = float64(d.repaired) / n
	m["graph.repair_fallbacks"] = float64(d.fallbacks) / n
	m["graph.repair_hit"] = ratio(float64(d.repaired), float64(d.repaired+d.fallbacks), 0)
	for _, stage := range []string{"snapshot", "diff", "repair"} {
		m["constellation."+stage+"_ms"] = rp.stageMs[stage] / float64(rp.steady)
	}
	m["constellation.links_changed"] = float64(d.linksChanged) / n
	m["constellation.patched_edges"] = float64(d.patchedEdges) / n
	m["constellation.activity_flips"] = float64(d.flips) / n

	c0, c1 := traced.c0, traced.c1
	h0, h1 := c0.rob.HostRetries, c1.rob.HostRetries
	ops := float64(h1.Ops - h0.Ops)
	m["applyengine.retry_attempts"] = float64((h1.Attempts-h0.Attempts)-(h1.Ops-h0.Ops)) / n
	m["applyengine.retry_failures"] = float64((h1.GaveUp-h0.GaveUp)+(h1.Fatal-h0.Fatal)) / n
	m["applyengine.first_try_ok"] = ratio(ops-float64((h1.Retried-h0.Retried)+(h1.Fatal-h0.Fatal)), ops, 1)
	m["applyengine.apply_errors"] = float64(c1.rob.ApplyErrors - c0.rob.ApplyErrors)

	m["hostlink.commit_wait_ms_p50"], m["hostlink.commit_wait_ms_p99"] = p50(traced.commitMs), p99(traced.commitMs)
	m["hostlink.frames"] = float64(c1.frames - c0.frames)
	m["hostlink.replayed"] = float64(c1.replayed - c0.replayed)
	m["hostlink.resyncs"] = float64(c1.resyncs - c0.resyncs)
	m["hostlink.snapshot_resyncs"] = float64(c1.snapResyncs - c0.snapResyncs)
	m["hostlink.dropped"] = float64(c1.dropped - c0.dropped)
	m["hostlink.fallback_applies"] = float64(c1.fallbacks - c0.fallbacks)
	m["hostlink.wire_retries"] = float64(c1.rob.WireRetries.Retried - c0.rob.WireRetries.Retried)
	m["coordinator.ring_evictions"] = float64(c1.ring.Evictions - c0.ring.Evictions)
	m["coordinator.forced_resyncs"] = float64(c1.ring.ForcedResyncs - c0.ring.ForcedResyncs)

	m["httpapi.upstream_gets"] = float64(len(traced.upstreamMs))
	m["httpapi.upstream_ms_p50"], m["httpapi.upstream_ms_p99"] = p50(traced.upstreamMs), p99(traced.upstreamMs)
	m["readpath.catchup_ms_p50"], m["readpath.catchup_ms_p99"] = p50(traced.catchupMs), p99(traced.catchupMs)
	m["readpath.fanout_ms_p50"], m["readpath.fanout_ms_p99"] = p50(traced.fanoutMs), p99(traced.fanoutMs)
	m["readpath.frames_applied"] = float64(c1.replica.FramesApplied - c0.replica.FramesApplied)
	m["readpath.resyncs"] = float64(c1.replica.Resyncs - c0.replica.Resyncs)
	m["readpath.reconnects"] = float64(c1.replica.Reconnects - c0.replica.Reconnects)
	gets := float64(len(traced.gets.latencyMs))
	m["readpath.cache_hit"] = ratio(gets-float64(len(traced.upstreamMs)), gets, 0)
	for k, kind := range getKinds {
		m["readpath.get_ms_p99."+kind] = p99(traced.getKindMs[k])
	}

	m["vnet.delivered"] = float64(c1.delivered - c0.delivered)
	m["vnet.dropped"] = float64(c1.netDropped - c0.netDropped)
	m["runtime.alloc_mb_per_tick"] = float64(c1.allocBytes-c0.allocBytes) / (1 << 20) / n
	m["runtime.gc_cycles_per_tick"] = float64(c1.gcCycles-c0.gcCycles) / n
	m["runtime.gc_cpu_frac"] = ratio((c1.gcCPU-c0.gcCPU)*1e3, traced.cpuMs, 0)
	m["bench.tick_late_ms_p99"] = p99(traced.tickLateMs)
	m["bench.get_late_ms_p99"] = p99(traced.gets.lateMs)
	m["bench.trace_overhead_frac"] = ratio(traced.cpuMs/n, untraced.cpuMs/float64(untraced.steady), 1) - 1
	return m
}

// printLayers writes the human-readable per-layer breakdown, with the
// stage replay's diff totals beside the run's.
func printLayers(w io.Writer, wl *workload, traced *runResult, prof *cpuProfile, rp *replayResult, m map[string]float64) {
	fmt.Fprintf(w, "perfbench: %s traced: %d steady ticks, %.2f ms CPU/tick\n", wl.name, traced.steady, traced.cpuMs/float64(traced.steady))
	attributed := 0.0
	for _, l := range cpuLayers {
		if l != "other" {
			attributed += m["cpu."+l]
		}
	}
	for _, l := range cpuLayers {
		v := m["cpu."+l]
		fmt.Fprintf(w, "  cpu.%-12s %10.3f ms/tick %5.1f%%", l, v, 100*ratio(v, attributed+m["cpu.other"], 0))
		if top := prof.topFrames(l, 2); len(top) > 0 && v > 0 {
			fmt.Fprintf(w, "  [%s]", strings.Join(top, "; "))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  cpu.other is %.1f%% of attributed CPU\n", 100*ratio(m["cpu.other"], attributed, 0))
	names := make([]string, 0, len(m))
	for k := range m {
		if !strings.HasPrefix(k, "cpu.") {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-30s %12.4f\n", k, m[k])
	}
	run, rep := traced.diffs, rp.totals
	fmt.Fprintf(w, "  steady diff totals      run: ticks=%d links_changed=%d patched_edges=%d repaired=%d fallbacks=%d flips=%d\n",
		run.ticks, run.linksChanged, run.patchedEdges, run.repaired, run.fallbacks, run.flips)
	fmt.Fprintf(w, "                       replay: ticks=%d links_changed=%d patched_edges=%d repaired=%d fallbacks=%d flips=%d\n",
		rep.ticks, rep.linksChanged, rep.patchedEdges, rep.repaired, rep.fallbacks, rep.flips)
}
