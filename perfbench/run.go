package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"celestial/internal/constellation"
	"celestial/internal/coordinator"
	"celestial/internal/readpath"
	"celestial/internal/scenario"
)

// errSetupMeasured aborts a run whose only purpose was timing set-up.
var errSetupMeasured = errors.New("perfbench: set-up measured")

// runMode selects what one run of a workload does.
type runMode struct {
	// setupOnly stops the run once set-up (parse through warm-up) is timed.
	setupOnly bool
	// traced records spans and a CPU profile of the steady window.
	traced bool
	// smoke runs unpaced and without GET load.
	smoke bool
}

// runResult is what one run measured.
type runResult struct {
	setupS float64
	steady int
	// tickMs are the steady ticks' wall times.
	tickMs []float64
	// attempted and failed count ops: steady ticks, and GETs on p1-follow.
	attempted, failed int
	cpuMs             float64 // process user+sys CPU over the steady window
	heapLiveMB        float64
	report            []byte
	diffs             tickTotals
	c0, c1            counters

	// p1-follow only.
	visibleMs  []float64
	gets       openLoop
	getKindMs  [4][]float64
	tickLateMs []float64
	commitMs   []float64
	catchupMs  []float64 // traced only
	fanoutMs   []float64 // traced only
	upstreamMs []float64 // traced only

	// Traced runs only.
	tr   *tracer
	base time.Time
	prof []byte
}

// tickTotals sums the coordinator's per-tick diff counters.
type tickTotals struct {
	ticks, repaired, fallbacks, linksChanged, patchedEdges, flips int
}

func (t *tickTotals) add(d constellation.DiffStats) {
	t.ticks++
	t.repaired += d.RepairedPaths
	t.fallbacks += d.RepairFallbacks
	t.linksChanged += d.Added + d.Removed + d.DelayChanged
	t.patchedEdges += d.PatchedEdges
	t.flips += d.Activated + d.Deactivated
}

// counters are the cumulative values read at both ends of the window.
type counters struct {
	cpu                   time.Duration
	allocBytes, gcCycles  uint64
	gcCPU                 float64
	rob                   coordinator.Robustness
	ring                  coordinator.RingStats
	frames, replayed      int
	resyncs, snapResyncs  int
	dropped, fallbacks    int
	delivered, netDropped uint64
	replica               readpath.Stats
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// session is one run of a workload: the runner and everything its tick
// hook measures.
type session struct {
	w     *workload
	g     *generated
	seed  int64
	mode  runMode
	coord *coordinator.Coordinator
	rig   *followRig
	res   *runResult

	start, lastReturn, windowStart time.Time
	// due[g] is when generation g was due: the paced start of the tick
	// that computes it.
	due        []time.Time
	tickFailed []bool // by generation
	profBuf    *bytes.Buffer
	gets       *getLoad
	getCancel  context.CancelFunc
}

// runWorkload executes one run of a generated workload.
func runWorkload(w *workload, g *generated, seed int64, mode runMode) (*runResult, error) {
	res := &runResult{}
	if mode.traced {
		res.tr = &tracer{}
	}
	start := time.Now()
	res.base = start
	sc, err := scenario.Parse(strings.NewReader(g.toml))
	if err != nil {
		return nil, err
	}
	r, err := scenario.NewRunner(sc)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, g: g, seed: seed, mode: mode, coord: r.Coordinator(), res: res, start: start,
		due: make([]time.Time, g.ticks+2), tickFailed: make([]bool, g.ticks+2)}
	if w.follow {
		if s.rig, err = startFollow(w, g, s.coord, mode.traced); err != nil {
			return nil, err
		}
		defer s.rig.close()
	}
	rep, err := r.RunWith(scenario.RunOptions{TickHook: s.hook})
	if s.getCancel != nil {
		s.getCancel()
		s.gets.wg.Wait()
	}
	if s.profBuf != nil {
		// Only reached when the run failed inside the window.
		pprof.StopCPUProfile()
	}
	if mode.setupOnly && errors.Is(err, errSetupMeasured) {
		return res, nil
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	res.report = buf.Bytes()
	if s.rig != nil {
		if err := s.finishFollow(); err != nil {
			return nil, err
		}
	}
	for _, f := range s.tickFailed {
		if f {
			res.failed++
		}
	}
	return res, nil
}

// hook runs at every tick boundary. Tick k's wall time runs from the
// hook's return at tick k-1 to its call at tick k; on p1-follow the hook
// also waits for the remote agent's commit and paces the next tick. An
// error aborts the run, and RunWith returns it.
func (s *session) hook(tick int) error {
	now := time.Now()
	gen := s.coord.Generation()
	if gen != uint64(tick)+1 {
		return fmt.Errorf("tick %d produced generation %d", tick, gen)
	}
	w, res := s.w, s.res
	if tick > w.warmup {
		d := now.Sub(s.lastReturn)
		res.tickMs = append(res.tickMs, ms(d))
		res.attempted++
		if d > w.resolution {
			s.tickFailed[gen] = true
		}
		res.diffs.add(s.coord.LastDiff())
		res.tr.add("tick", trackTick, gen, s.lastReturn, now)
	}
	if tick == w.warmup {
		res.setupS = now.Sub(s.start).Seconds()
		res.tr.add("setup", trackSetup, gen, s.start, now)
		if s.mode.setupOnly {
			return errSetupMeasured
		}
	}
	if s.rig != nil {
		t0 := time.Now()
		ok := s.rig.fo.WaitRemotes(5 * time.Second)
		t1 := time.Now()
		if tick > w.warmup {
			res.commitMs = append(res.commitMs, ms(t1.Sub(t0)))
			res.tr.add("commit-wait", trackCommit, gen, t0, t1)
			if !ok {
				s.tickFailed[gen] = true
			}
		}
	}
	if tick == w.warmup {
		if err := s.beginWindow(gen); err != nil {
			return err
		}
	}
	if tick == s.g.ticks {
		return s.endWindow(gen)
	}
	// Pace the next tick open loop: steady tick k is due at windowStart +
	// k×pace whether or not the previous one ran late.
	due := time.Now()
	if w.pace > 0 && !s.mode.smoke && tick >= w.warmup {
		due = s.windowStart.Add(time.Duration(tick-w.warmup) * w.pace)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.tickLateMs = append(res.tickLateMs, ms(max(0, time.Since(due))))
	}
	s.due[gen+1] = due
	s.lastReturn = time.Now()
	return nil
}

// snapshot reads the cumulative counters.
func (s *session) snapshot() counters {
	c := counters{cpu: processCPU(), rob: s.coord.Robustness(), ring: s.coord.RingStats()}
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	c.allocBytes, c.gcCycles = samples[0].Value.Uint64(), samples[1].Value.Uint64()
	c.gcCPU = samples[2].Value.Float64()
	for _, st := range s.coord.Fanout().ShardStats() {
		c.frames += st.Frames
		c.replayed += st.Replayed
		c.resyncs += st.Resyncs
		c.snapResyncs += st.SnapshotResyncs
		c.dropped += st.Dropped
		c.fallbacks += st.FallbackApplies
	}
	c.delivered, c.netDropped = s.coord.Network().Stats()
	if s.rig != nil {
		c.replica = s.rig.replica.Stats()
	}
	return c
}

// beginWindow starts the steady window after the warm-up tick.
func (s *session) beginWindow(gen uint64) error {
	if s.rig != nil {
		if err := s.rig.waitCaughtUp(gen, 10*time.Second); err != nil {
			return fmt.Errorf("replica and subscribers did not catch up after warm-up: %w", err)
		}
	}
	runtime.GC()
	if s.mode.traced {
		s.profBuf = &bytes.Buffer{}
		if err := pprof.StartCPUProfile(s.profBuf); err != nil {
			s.profBuf = nil
			return err
		}
	}
	s.res.c0 = s.snapshot()
	s.windowStart = time.Now()
	s.res.steady = s.g.ticks - s.w.warmup
	if s.rig != nil && !s.mode.smoke {
		n := int(float64(s.res.steady) * s.w.pace.Seconds() * s.w.getRate)
		reqs := getMix(s.seed, s.g, s.w, n)
		for i := range reqs {
			reqs[i].due = s.windowStart.Add(time.Duration(float64(i) / s.w.getRate * float64(time.Second)))
		}
		var ctx context.Context
		ctx, s.getCancel = context.WithCancel(context.Background())
		s.gets = startGets(ctx, s.rig.base, reqs, s.w.getConns, s.rig.replica.Generation)
	}
	return nil
}

// endWindow closes the steady window at the last tick: readers catch up
// and in-flight GETs finish inside it.
func (s *session) endWindow(gen uint64) error {
	res := s.res
	if s.rig != nil {
		if err := s.rig.waitCaughtUp(gen, 10*time.Second); err != nil {
			return fmt.Errorf("replica and subscribers did not reach the final generation: %w", err)
		}
		if s.gets != nil {
			s.gets.wg.Wait()
		}
	}
	res.c1 = s.snapshot()
	res.cpuMs = ms(res.c1.cpu - res.c0.cpu)
	if s.profBuf != nil {
		pprof.StopCPUProfile()
		res.prof = s.profBuf.Bytes()
		s.profBuf = nil
	}
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	res.heapLiveMB = float64(live[0].Value.Uint64()) / (1 << 20)
	if s.gets != nil {
		for i, r := range s.gets.results {
			res.attempted++
			res.gets.record(r.due, r.due.Add(s.gets.late[i]), r.done)
			lat := r.done.Sub(r.due)
			res.getKindMs[r.kind] = append(res.getKindMs[r.kind], ms(lat))
			if r.status != 200 || lat > time.Second {
				res.failed++
			}
			res.tr.add("get-"+getKinds[r.kind], trackGet+r.conn, r.gen, r.issued, r.done)
		}
	}
	return nil
}

// finishFollow runs p1-follow's end-of-run checks and turns the readers'
// records into metrics once every rig goroutine has stopped.
func (s *session) finishFollow() error {
	rig, res := s.rig, s.res
	fo := rig.fo
	if !fo.WaitRemotes(10 * time.Second) {
		return errors.New("agent did not ack the final generation")
	}
	if err := fo.VerifyRemotes(); err != nil {
		return fmt.Errorf("remote verification: %w", err)
	}
	for _, st := range fo.ShardStats() {
		if st.FallbackApplies != 0 {
			return fmt.Errorf("shard %d made %d fallback applies", st.Agent, st.FallbackApplies)
		}
	}
	if st := rig.agent.Stats(); st.CommitMismatches != 0 || st.Applies == 0 {
		return fmt.Errorf("agent answered %d proposals with %d commit mismatches", st.Applies, st.CommitMismatches)
	}
	final := s.coord.Generation()
	if err := rig.waitCaughtUp(final, 10*time.Second); err != nil {
		return fmt.Errorf("readers did not reach generation %d: %w", final, err)
	}
	want, err := rig.get(rig.api, "/v1/info")
	if err != nil {
		return err
	}
	got, err := rig.get(rig.replica, "/v1/info")
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("replica /v1/info differs from the coordinator's at generation %d:\n%s\n%s", final, got, want)
	}
	rig.close()

	first := uint64(s.w.warmup + 2) // the first steady tick's generation
	for _, sub := range rig.subs {
		if sub.err != nil {
			return sub.err
		}
		if sub.next != final {
			return fmt.Errorf("subscriber %d ended at generation %d, want %d", sub.id, sub.next, final)
		}
	}
	if s.mode.smoke {
		return nil
	}
	for g := first; g <= final; g++ {
		var held time.Time
		if rig.held != nil {
			// The watcher wakes on the same notification as the
			// subscribers, so it can note a generation after the first
			// of them received it; the replica held it no later.
			held = rig.held[g]
			for _, sub := range rig.subs {
				if sub.recv[g].Before(held) {
					held = sub.recv[g]
				}
			}
			res.catchupMs = append(res.catchupMs, ms(held.Sub(s.due[g])))
			res.tr.add("replica-catchup", trackCatchup, g, s.due[g], held)
		}
		for i, sub := range rig.subs {
			v := sub.recv[g].Sub(s.due[g])
			res.visibleMs = append(res.visibleMs, ms(v))
			if v > time.Second {
				s.tickFailed[g] = true
			}
			if !held.IsZero() {
				res.fanoutMs = append(res.fanoutMs, ms(sub.recv[g].Sub(held)))
				if i < tracedSubscribers {
					res.tr.add("subscriber-receipt", trackSub+i, g, held, sub.recv[g])
				}
			}
		}
	}
	if u := rig.upstream; u != nil {
		wStart, wEnd := s.windowStart, s.windowStart.Add(time.Duration(res.steady)*s.w.pace)
		for i := range u.starts {
			if u.starts[i].Before(wStart) || u.starts[i].After(wEnd) {
				continue
			}
			res.upstreamMs = append(res.upstreamMs, ms(u.ends[i].Sub(u.starts[i])))
			res.tr.add("upstream-fetch", trackUpstream, 0, u.starts[i], u.ends[i])
		}
	}
	return nil
}
