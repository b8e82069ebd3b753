package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"time"
)

// shell is one orbital shell of a generated testbed.
type shell struct {
	name          string
	planes, sats  int
	altitudeKm    float64
	inclination   float64
	phasingFactor int
}

// gen2Shells are the nine shells of the Starlink Gen2 filing (29,988
// satellites), as in examples/scenarios/starlink-gen2.toml. They are
// spelled out here rather than read from the example so that editing the
// example never silently changes the benchmark.
var gen2Shells = []shell{
	{"gen2-1", 48, 110, 340, 53, 17},
	{"gen2-2", 48, 110, 345, 46, 17},
	{"gen2-3", 48, 110, 350, 38, 17},
	{"gen2-4", 30, 120, 360, 96.9, 1},
	{"gen2-5", 28, 120, 525, 53, 17},
	{"gen2-6", 28, 120, 530, 43, 17},
	{"gen2-7", 28, 120, 535, 33, 17},
	{"gen2-8", 12, 12, 604, 148, 1},
	{"gen2-9", 18, 18, 614, 115.7, 1},
}

// p1Shells are the five shells of Starlink phase 1 (4,409 satellites), as
// in examples/scenarios/starlink-p1.toml.
var p1Shells = []shell{
	{"starlink-1", 72, 22, 550, 53, 17},
	{"starlink-2", 32, 50, 1110, 53.8, 17},
	{"starlink-3", 8, 50, 1130, 74, 1},
	{"starlink-4", 5, 75, 1275, 81, 1},
	{"starlink-5", 6, 75, 1325, 70, 1},
}

// workload is one benchmark workload: the generator parameters of its
// scenario and the run protocol around it. Everything the program sees is
// the scenario text generate emits from these parameters and a seed.
type workload struct {
	name string
	why  string

	shells     []shell
	hosts      int
	resolution time.Duration
	// stations are placed uniformly by area within ±maxLat, or inside
	// bbox ([latMin, lonMin, latMax, lonMax]) when it is set.
	stations int
	maxLat   float64
	bbox     []float64
	// flows Poisson rpc flows run between seeded distinct station pairs.
	flows    int
	flowRate float64

	// faults adds the [supervision] apply/shaper fault injection and one
	// SEU fault-burst event; agents configures the [hosts] shard count.
	faults bool
	agents int

	// warmup ticks run before the steady window (until path trees are
	// cached and arenas are grown); ticksPerSecond sizes the steady window
	// from --seconds. The window is a fixed tick count rather than a wall
	// deadline so that the run report is a pure function of the seed.
	warmup         int
	ticksPerSecond float64
	smokeTicks     int

	// follow enables the reads-beside-writes rig: an applying agent on
	// agentShard, a read replica, subscribers and the GET generator, with
	// ticks paced open loop every pace.
	follow      bool
	agentShard  int
	pace        time.Duration
	subscribers int
	getRate     float64
	getConns    int
}

// workloads are the benchmark's workloads, in their canonical order.
var workloads = []*workload{
	{
		name: "gen2-mesh",
		why: "100 cached path trees and 5 s of motion per tick make repair fall back to full Dijkstra, " +
			"so the graph layer dominates the tick and the snapshot layers stay small",
		shells: gen2Shells, hosts: 8, resolution: 5 * time.Second,
		stations: 100, maxLat: 55, flows: 50, flowRate: 2,
		warmup: 4, ticksPerSecond: 2.5, smokeTicks: 2,
	},
	{
		name: "gen2-sparse",
		why: "few trees and 1 s of motion let incremental repair succeed, so propagation, visibility, " +
			"link build, diff and CSR patch carry the tick",
		shells: gen2Shells, hosts: 8, resolution: time.Second,
		stations: 6, maxLat: 55, flows: 3, flowRate: 2,
		warmup: 10, ticksPerSecond: 30, smokeTicks: 4,
	},
	{
		name: "p1-follow",
		why: "cheap P1 ticks paced at 10/s behind an applying agent, a replica, 1000 subscribers and open-loop GETs, " +
			"so distribution and publication dominate",
		shells: p1Shells, hosts: 4, resolution: time.Second,
		stations: 12, bbox: []float64{-10, -20, 30, 30}, flows: 12, flowRate: 2,
		faults: true, agents: 4,
		warmup: 10, ticksPerSecond: 10, smokeTicks: 5,
		follow: true, agentShard: 1, pace: 100 * time.Millisecond,
		subscribers: 1000, getRate: 200, getConns: 2,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", name, strings.Join(names, ", "))
}

// steadyTicks is the steady window's length for a run of the given
// seconds (smoke runs use the workload's short fixed window).
func (w *workload) steadyTicks(seconds int, smoke bool) int {
	if smoke {
		return w.smokeTicks
	}
	return max(1, int(math.Round(float64(seconds)*w.ticksPerSecond)))
}

// station is one generated ground station.
type station struct {
	name     string
	lat, lon float64
}

// flowPair is one generated flow's endpoints (station indices).
type flowPair struct{ src, dst int }

// generated is a workload instance: the scenario text and the values the
// benchmark needs to drive and check it.
type generated struct {
	toml     string
	stations []station
	flows    []flowPair
	// ticks is the total tick count (warm-up plus steady window).
	ticks int
}

// generate builds a workload's scenario for a seed and a steady window of
// steady ticks. The same arguments always yield the same text.
func (w *workload) generate(seed int64, steady int) *generated {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x63656c6573746961))
	g := &generated{ticks: w.warmup + steady}
	for i := 0; i < w.stations; i++ {
		var lat, lon float64
		if w.bbox != nil {
			// Uniform by area inside the box.
			s0 := math.Sin(w.bbox[0] * math.Pi / 180)
			s1 := math.Sin(w.bbox[2] * math.Pi / 180)
			lat = math.Asin(s0+rng.Float64()*(s1-s0)) * 180 / math.Pi
			lon = w.bbox[1] + rng.Float64()*(w.bbox[3]-w.bbox[1])
		} else {
			s := math.Sin(w.maxLat * math.Pi / 180)
			lat = math.Asin((2*rng.Float64()-1)*s) * 180 / math.Pi
			lon = rng.Float64()*360 - 180
		}
		g.stations = append(g.stations, station{
			name: fmt.Sprintf("gs%03d", i),
			// Rounded so the emitted text and the parsed value agree.
			lat: math.Round(lat*1e4) / 1e4, lon: math.Round(lon*1e4) / 1e4,
		})
	}
	if 2*w.flows == w.stations {
		// Every station is an endpoint of exactly one flow: a seeded
		// matching fixes the number of cached path trees (one from each
		// end, for requests and responses) at the station count.
		perm := rng.Perm(w.stations)
		for i := 0; i < w.flows; i++ {
			g.flows = append(g.flows, flowPair{perm[2*i], perm[2*i+1]})
		}
	}
	seen := map[flowPair]bool{}
	for len(g.flows) < w.flows {
		p := flowPair{rng.IntN(w.stations), rng.IntN(w.stations)}
		if p.src == p.dst || seen[p] {
			continue
		}
		seen[p] = true
		g.flows = append(g.flows, p)
	}

	var b strings.Builder
	res := w.resolution.Seconds()
	fmt.Fprintf(&b, "# Generated by perfbench: workload %s, seed %d.\n", w.name, seed)
	fmt.Fprintf(&b, "name = \"bench-%s\"\nseed = %d\nhorizon = %s\n\n", w.name, seed, num(float64(g.ticks)*res))
	if w.faults {
		b.WriteString("[supervision]\napply_fault_rate = 0.05\nshaper_fault_rate = 0.05\n" +
			"retry_max_attempts = 6\nretry_initial_ms = 1.0\nretry_multiplier = 2.0\nretry_jitter = 0.25\n\n")
	}
	if w.agents > 0 {
		fmt.Fprintf(&b, "[hosts]\nagents = %d\n\n", w.agents)
	}
	fmt.Fprintf(&b, "[testbed]\nname = \"bench-%s\"\nresolution = %s\nhosts = %d\n", w.name, num(res), w.hosts)
	if w.bbox != nil {
		fmt.Fprintf(&b, "bbox = [%s, %s, %s, %s]\n", num(w.bbox[0]), num(w.bbox[1]), num(w.bbox[2]), num(w.bbox[3]))
	}
	b.WriteString("\n[testbed.network_params]\nbandwidth_kbits = 10_000_000\nmin_elevation = 25.0\n")
	for _, s := range w.shells {
		fmt.Fprintf(&b, "\n[[testbed.shell]]\nname = %q\nplanes = %d\nsats = %d\naltitude_km = %s\n"+
			"inclination = %s\narc_of_ascending_nodes = 360.0\nphasing_factor = %d\nmodel = \"kepler\"\n",
			s.name, s.planes, s.sats, num(s.altitudeKm), num(s.inclination), s.phasingFactor)
	}
	for _, s := range g.stations {
		fmt.Fprintf(&b, "\n[[testbed.ground_station]]\nname = %q\nlat = %s\nlong = %s\n", s.name, num(s.lat), num(s.lon))
	}
	for i, f := range g.flows {
		fmt.Fprintf(&b, "\n[[flow]]\nname = \"flow-%02d\"\ntype = \"rpc\"\nsource = %q\ntarget = %q\n"+
			"arrival = \"poisson\"\nrate = %s\nrequest_bytes = 256\nresponse_bytes = 1024\ntimeout = 1.0\n",
			i, g.stations[f.src].name, g.stations[f.dst].name, num(w.flowRate))
	}
	if w.faults {
		// One SEU burst a fifth of the way in, lasting a fifth of the run:
		// crashed satellites surface as activity flips and reboots.
		at := math.Round(float64(g.ticks)*res/5*10) / 10
		fmt.Fprintf(&b, "\n[[event]]\nat = %s\naction = \"fault-burst\"\nwindow = %s\nrate_per_hour = 60.0\n"+
			"shutdown_prob = 0.5\nreboot_after = 5.0\ndegrade_to = 0.5\ndegrade_for = 10.0\n", num(at), num(at))
	}
	g.toml = b.String()
	return g
}

// num formats a float as a TOML float literal.
func num(v float64) string {
	s := fmt.Sprintf("%g", v)
	if !strings.ContainsAny(s, ".e") {
		s += ".0"
	}
	return s
}
