// Command experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index in DESIGN.md) and prints a
// paper-vs-measured report — the source of EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-full] [-out results/] [-only F4,F11]
//
// Without -full, shortened runs with identical structure are used; with
// -full the paper's 10–15 minute experiment durations and the SGP4
// propagator are used (several minutes of wall-clock time). It exits 1
// when an experiment diverged or failed, and 2 on bad usage, including
// an unknown experiment ID.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"celestial/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command with the given arguments and returns its exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "run the paper's full experiment durations with SGP4")
	out := fs.String("out", "results", "directory for figure/series artifacts (empty disables)")
	only := fs.String("only", "", "comma-separated experiment IDs to run (e.g. F4,F11)")
	ablations := fs.Bool("ablations", false, "also run the design-choice ablations")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts := experiments.Options{Full: *full, OutDir: *out}

	type entry struct {
		id  string
		run func(experiments.Options) (experiments.Report, error)
	}
	all := []entry{
		{"F1", experiments.Fig1},
		{"F3", experiments.Fig3},
		{"F4", experiments.Fig4},
		{"F5", experiments.Fig5},
		{"F6", experiments.Fig6},
		{"F7/F8", experiments.Fig7And8},
		{"T-cost", experiments.CostTable},
		{"T-calc", experiments.CalcTime},
		{"T-acc", experiments.NetemQuantization},
		{"T-base", experiments.ProcessingDelayModelReport},
		{"F10", experiments.Fig10},
		{"F11", experiments.Fig11},
	}
	if *ablations {
		all = append(all,
			entry{"A-shells", experiments.AblationShellCount},
			entry{"A-model", experiments.AblationKeplerVsSGP4},
			entry{"A-netem", experiments.AblationImpairments},
			entry{"A-faults", experiments.AblationFaults},
		)
	}

	// An unknown ID is an error naming the valid ones, so a typo cannot
	// pass as a run that reproduced nothing.
	var filter map[string]bool
	if *only != "" {
		filter = map[string]bool{}
		valid := make([]string, len(all))
		for i, e := range all {
			valid[i] = e.id
		}
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !slices.Contains(valid, id) {
				fmt.Fprintf(stderr, "experiments: unknown experiment %q (valid: %s)\n", id, strings.Join(valid, " "))
				return 2
			}
			filter[id] = true
		}
	}

	failures := 0
	for _, e := range all {
		if filter != nil && !filter[e.id] {
			continue
		}
		begin := time.Now()
		rep, err := e.run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "experiment %s failed: %v\n", e.id, err)
			failures++
			continue
		}
		status := "REPRODUCED"
		if !rep.Pass {
			status = "DIVERGED"
			failures++
		}
		fmt.Fprintf(stdout, "== %s — %s [%s, %v]\n", rep.ID, rep.Title, status, time.Since(begin).Round(time.Millisecond))
		for _, line := range rep.Lines {
			fmt.Fprintf(stdout, "   %s\n", line)
		}
		for _, a := range rep.Artifacts {
			fmt.Fprintf(stdout, "   artifact: %s\n", a)
		}
		fmt.Fprintln(stdout)
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "%d experiment(s) diverged or failed\n", failures)
		return 1
	}
	fmt.Fprintln(stdout, "all experiments reproduced the paper's claims")
	return 0
}
