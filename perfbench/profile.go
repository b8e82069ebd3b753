package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file attributes a runtime/pprof CPU profile to the benchmark's
// per-layer cpu.* metrics. It decodes the profile's protobuf itself (the
// repository has no module dependencies to take a pprof library from).
//
// A sample goes to its innermost frame in a layer package, passing over
// the helper packages geom and par, whose work belongs to their caller.
// A sample with no such frame goes to the layer named by its goroutine's
// pprof "layer" label (set around the goroutines the benchmark starts:
// HTTP servers, the replica follower, the agent), then to cpu.gc when it
// is a background GC worker, to cpu.sched when it is the scheduler's own
// work, and to cpu.other otherwise.

// modulePrefix is the import-path prefix of the repository's packages.
const modulePrefix = "celestial/internal/"

// layerHelper marks a helper package: its frames are skipped.
const layerHelper = "-"

// packageLayers maps every package under internal/ to its layer. Packages
// whose functions split across layers map to "" and are resolved by
// functionLayers. The self-tests fail when a package is missing here.
var packageLayers = map[string]string{
	"orbit":              "propagate",
	"sgp4":               "propagate",
	"topo":               "visindex",
	"bbox":               "link_build",
	"constellation":      "",
	"graph":              "",
	"coordinator":        "",
	"applyengine":        "apply",
	"host":               "apply",
	"machine":            "apply",
	"retry":              "apply",
	"faults":             "apply",
	"hostlink":           "fanout",
	"supervise":          "fanout",
	"httpapi":            "publish",
	"httpapi/middleware": "publish",
	"readpath":           "replica",
	"vnet":               "traffic",
	"netem":              "traffic",
	"scenario":           "traffic",
	"rng":                "traffic",
	"clock":              "traffic",
	"config":             "setup",
	"toml":               "setup",
	"tle":                "setup",
	"geom":               layerHelper,
	"par":                layerHelper,
	// Not on any workload's path; a sample here would be a surprise.
	"apps/dart":   "other",
	"apps/meetup": "other",
	"core":        "other",
	"costmodel":   "other",
	"dns":         "other",
	"experiments": "other",
	"lstm":        "other",
	"stats":       "other",
	"viz":         "other",
}

// functionLayers splits the packages mapped to "" by function or receiver
// name; any name not listed takes the package's default.
var functionLayers = map[string]map[string]string{
	"constellation": {
		// Diff: fingerprint comparison, records and their wire form.
		"computeDiffFrom": "diff", "Diff": "diff", "DiffRecord": "diff", "int32sEqual": "diff",
		"AppendRecordWire": "diff", "appendWireDeltas": "diff", "appendWireIDs": "diff",
		"DecodeRecordWire": "diff", "wireReader": "diff", "appendEdgeDeltas": "diff",
		// CSR image rebuilt from the link list (the patch path's fallback).
		"rebuildGraph": "csr_patch",
		// Path-cache repair, transplant and on-demand Dijkstra.
		"repairPaths": "path_repair", "repairJob": "path_repair", "transplantPaths": "path_repair",
		"pathsFor": "path_repair", "fillEntry": "path_repair", "takeEntry": "path_repair",
		"takeArrays": "path_repair", "quantaWeight": "path_repair", "Latency": "path_repair",
		"RTT": "path_repair", "Path": "path_repair", "PathBandwidth": "path_repair",
		"BestMeetingPoint": "path_repair",
	},
	"graph": {
		"New": "csr_patch", "Reset": "csr_patch", "AddEdge": "csr_patch", "AddEdgeUnchecked": "csr_patch",
		"Freeze": "csr_patch", "FreezeSlack": "csr_patch", "CopyFrozenFrom": "csr_patch",
		"PatchFrozen": "csr_patch", "addDirected": "csr_patch", "removeDirected": "csr_patch",
		"reweightDirected": "csr_patch", "compactFrozen": "csr_patch", "resizeSlice": "csr_patch",
	},
	"coordinator": {
		"hostBackend": "apply", "rebootTarget": "apply", "InjectFaults": "apply", "InjectFaultsFor": "apply",
		"stateTopology": "traffic",
		"recordOf":      "fanout", "replayRecords": "fanout", "shardSnapshot": "fanout",
		"distribute": "fanout", "buildFanout": "fanout", "ConfigureFanout": "fanout",
	},
}

// defaultFunctionLayer is the layer of a split package's unlisted names.
var defaultFunctionLayer = map[string]string{
	"constellation": "link_build",
	"graph":         "path_repair",
	"coordinator":   "coordinator",
}

// cpuLayers are the cpu.* per-layer metrics, in report order.
var cpuLayers = []string{
	"propagate", "visindex", "link_build", "diff", "csr_patch", "path_repair",
	"apply", "fanout", "publish", "replica", "traffic", "coordinator", "setup",
	"bench", "gc", "sched", "other",
}

// frameLayer returns the layer of one function frame: "" for frames
// outside the repository and the benchmark, layerHelper for helpers.
func frameLayer(fn string) string {
	// The benchmark's own frames: package main, named by its import
	// path inside test binaries.
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "celestial/perfbench.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	// The package path ends at the first '.' after its last '/'.
	slash := strings.LastIndexByte(rest, '/')
	dot := strings.IndexByte(rest[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg, name := rest[:slash+1+dot], rest[slash+1+dot+1:]
	layer, ok := packageLayers[pkg]
	if !ok {
		return "other"
	}
	if layer != "" {
		return layer
	}
	table := functionLayers[pkg]
	for _, tok := range strings.FieldsFunc(name, func(r rune) bool {
		return r == '.' || r == '(' || r == ')' || r == '*' || r == '['
	}) {
		if l, ok := table[tok]; ok {
			return l
		}
	}
	return defaultFunctionLayer[pkg]
}

// gcWorkers are the runtime's background GC entry points.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// schedRoots are the entry points of the Go scheduler's own work on
// system stacks: parking a goroutine and finding the next runnable one,
// and the sysmon monitor.
var schedRoots = []string{"runtime.mcall", "runtime.schedule", "runtime.findRunnable", "runtime.sysmon"}

// hasFrame reports whether frames contains any of fns.
func hasFrame(frames, fns []string) bool {
	for _, fn := range frames {
		for _, f := range fns {
			if fn == f {
				return true
			}
		}
	}
	return false
}

// sampleLayer attributes one sample given its frames (innermost first)
// and its goroutine's layer label.
func sampleLayer(frames []string, label string) string {
	for _, fn := range frames {
		if l := frameLayer(fn); l != "" && l != layerHelper {
			return l
		}
	}
	switch {
	case label != "":
		return label
	case hasFrame(frames, gcWorkers):
		return "gc"
	case hasFrame(frames, schedRoots):
		return "sched"
	}
	return "other"
}

// cpuProfile is the decoded part of a CPU profile that attribution needs.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	frames []string
	label  string
	nanos  int64
}

// attribute sums a profile's CPU nanoseconds per layer.
func (p *cpuProfile) attribute() map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		out[sampleLayer(s.frames, s.label)] += s.nanos
	}
	return out
}

// topFrames lists the heaviest leaf frames of samples in a layer, for the
// human-readable breakdown.
func (p *cpuProfile) topFrames(layer string, n int) []string {
	byFn := map[string]int64{}
	for _, s := range p.samples {
		if sampleLayer(s.frames, s.label) == layer && len(s.frames) > 0 {
			byFn[s.frames[0]] += s.nanos
		}
	}
	type kv struct {
		fn string
		ns int64
	}
	var all []kv
	for fn, ns := range byFn {
		all = append(all, kv{fn, ns})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ns > all[j].ns })
	var out []string
	for i := 0; i < len(all) && i < n; i++ {
		out = append(out, fmt.Sprintf("%s %.0fms", all[i].fn, float64(all[i].ns)/1e6))
	}
	return out
}

// parseCPUProfile decodes a gzipped pprof CPU profile.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indices
	}
	var (
		strs       []string
		sampleType [][2]int64 // type, unit
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName   = map[uint64]int64{}    // function id -> name string index
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var vt [2]int64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = int64(v)
				}
				return nil
			})
			sampleType = append(sampleType, vt)
			return err
		case 2: // sample
			var s rawSample
			err := pbFields(b, func(f, w int, v uint64, bb []byte) error {
				switch f {
				case 1:
					return pbUints(w, v, bb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbUints(w, v, bb, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var kv [2]int64
					err := pbFields(bb, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, _ int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(bb, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, vt := range sampleType {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if cpuIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{nanos: s.values[cpuIdx]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.frames = append(ps.frames, str(funcName[fn]))
			}
		}
		for _, kv := range s.labels {
			if str(kv[0]) == "layer" {
				ps.label = str(kv[1])
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// pbFields walks the fields of one protobuf message, calling fn with the
// field number, wire type, and the varint value or length-delimited bytes.
func pbFields(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated integer field, packed or not.
func pbUints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}

// pbVarint decodes one varint, returning its length (0 on error).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
