// Command celestial-viz renders constellation snapshots as SVG maps — the
// testbed's optional animation component (Fig. 1 of the paper was
// generated by it). It draws satellites colored per shell, inter-satellite
// links, ground stations with their uplinks, and the configured bounding
// box.
//
// Usage:
//
//	celestial-viz -preset starlink -o starlink.svg
//	celestial-viz -config testbed.toml -t 120 -links -o snapshot.svg
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"celestial"
	"celestial/internal/constellation"
	"celestial/internal/geom"
	"celestial/internal/topo"
	"celestial/internal/viz"
)

// presets are the built-in constellations -preset selects, by name.
var presets = map[string]func() *celestial.Config{
	"starlink": func() *celestial.Config {
		cfg := &celestial.Config{}
		for _, s := range celestial.StarlinkPhase1(celestial.ModelSGP4) {
			cfg.Shells = append(cfg.Shells, celestial.Shell{ShellConfig: s})
		}
		return cfg
	},
	"iridium": func() *celestial.Config {
		return &celestial.Config{
			Shells: []celestial.Shell{{ShellConfig: celestial.Iridium(celestial.ModelSGP4)}},
		}
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its exit
// status: 2 for a usage error, 1 for a failed render.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("celestial-viz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "", `preset constellation: "starlink" or "iridium"`)
	configPath := fs.String("config", "", "TOML configuration to render")
	t := fs.Float64("t", 0, "snapshot time in seconds after the epoch")
	links := fs.Bool("links", false, "draw inter-satellite links")
	out := fs.String("o", "", "output SVG path (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "celestial-viz: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "celestial-viz: %v\n", err)
		return 1
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}

	mk, ok := presets[*preset]
	if *preset != "" && !ok {
		var valid []string
		for name := range presets {
			valid = append(valid, name)
		}
		sort.Strings(valid)
		return usage("unknown preset %q (valid: %s)", *preset, strings.Join(valid, " "))
	}
	var cfg *celestial.Config
	switch {
	case ok && *configPath != "":
		return usage("-preset and -config are mutually exclusive")
	case ok:
		cfg = mk()
	case *configPath != "":
		var err error
		if cfg, err = celestial.ParseConfigFile(*configPath); err != nil {
			return fail(err)
		}
	default:
		return usage("one of -preset or -config is required")
	}
	if err := celestial.Finalize(cfg); err != nil {
		return fail(err)
	}

	cons, err := constellation.New(cfg)
	if err != nil {
		return fail(err)
	}
	st, err := cons.Snapshot(*t)
	if err != nil {
		return fail(err)
	}

	m := viz.NewMap(1440, 720)
	m.AddGraticule(30)
	if cfg.BoundingBox != celestial.WholeEarth {
		m.AddBox(cfg.BoundingBox, "#2e8b57")
	}
	if *links {
		for _, l := range st.Links {
			color := "#bbb"
			width := 0.4
			if l.Kind == topo.KindGSL {
				color = "#7c7"
				width = 0.8
			}
			m.AddLink(geom.ToGeodetic(st.Positions[l.A]),
				geom.ToGeodetic(st.Positions[l.B]), color, width)
		}
	}
	for id, node := range cons.Nodes() {
		ll := geom.ToGeodetic(st.Positions[id])
		switch node.Kind {
		case constellation.KindSatellite:
			r := 1.2
			if !st.Active[id] {
				r = 0.6 // suspended satellites drawn smaller
			}
			m.AddSatellite(ll, viz.ShellColor(node.Shell), r)
		case constellation.KindGroundStation:
			m.AddGroundStation(ll, "#d22", node.Name)
		}
	}

	svg := m.SVG()
	if *out == "" {
		if _, err := io.WriteString(stdout, svg); err != nil {
			return fail(err)
		}
		return 0
	}
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "wrote %s (%d elements, t=%.0fs)\n", *out, m.Elements(), *t)
	return 0
}
