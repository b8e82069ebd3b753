package main

import (
	"fmt"
	"strings"
	"time"

	"celestial/internal/constellation"
	"celestial/internal/scenario"
)

// replayResult is the stage replay: the run's tick instants driven
// through a snapshot pool the benchmark owns, with the pool's public stage
// timer reporting the snapshot/diff/repair split per steady tick.
type replayResult struct {
	stageMs map[string]float64 // summed over steady ticks
	steady  int
	totals  tickTotals
}

// replay recomputes a generated workload's tick instants through a fresh
// SnapshotPool built from the same testbed, querying every flow's
// endpoints with State.Latency each tick as the flows' traffic would. The
// pool has no activity overlay (machine health lives in the coordinator),
// so activity flips may differ from the run; link work is the same.
func replay(w *workload, g *generated) (*replayResult, error) {
	sc, err := scenario.Parse(strings.NewReader(g.toml))
	if err != nil {
		return nil, err
	}
	cons, err := constellation.New(sc.Config)
	if err != nil {
		return nil, err
	}
	type pair struct{ a, b int }
	var pairs []pair
	for _, f := range g.flows {
		a, err := cons.GSTNodeByName(g.stations[f.src].name)
		if err != nil {
			return nil, err
		}
		b, err := cons.GSTNodeByName(g.stations[f.dst].name)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, pair{a, b})
	}
	out := &replayResult{stageMs: map[string]float64{}}
	steady := false
	pool := cons.NewSnapshotPool()
	pool.SetStageTimer(func(stage string, d time.Duration) {
		if steady {
			out.stageMs[stage] += ms(d)
		}
	})
	var prev *constellation.State
	res := w.resolution.Seconds()
	// Instant 0 is the coordinator's Start; tick k computes instant k.
	for k := 0; k <= g.ticks; k++ {
		steady = k > w.warmup
		st, err := pool.Snapshot(float64(k) * res)
		if err != nil {
			return nil, err
		}
		// Requests and responses: a tree from each end of every flow.
		for _, p := range pairs {
			for _, q := range []pair{p, {p.b, p.a}} {
				if _, err := st.Latency(q.a, q.b); err != nil {
					return nil, fmt.Errorf("replay: latency %d→%d at t=%v: %w", q.a, q.b, float64(k)*res, err)
				}
			}
		}
		if steady {
			out.steady++
			out.totals.add(st.Diff().Stats())
		}
		pool.Recycle(prev)
		prev = st
	}
	return out, nil
}

// checkReplay requires the stage replay to have done the run's work, so
// that its stage times measure the same snapshots, diffs and repairs.
// Follow workloads are exempt: their SEU faults flip machine activity,
// which the pool does not model, and their API path reads cache trees the
// replay does not query.
func checkReplay(w *workload, run tickTotals, rp *replayResult) error {
	if w.follow || run == rp.totals {
		return nil
	}
	return fmt.Errorf("the stage replay's steady diff totals %+v differ from the run's %+v", rp.totals, run)
}
