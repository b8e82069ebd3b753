package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"celestial/internal/applyengine"
	"celestial/internal/coordinator"
	"celestial/internal/hostlink"
	"celestial/internal/httpapi"
	"celestial/internal/readpath"
)

// followRig is p1-follow's reads-beside-writes deployment, all in this
// process over loopback: an applying host agent owning one shard, the
// coordinator serving /v1, a read replica following its binary /v1/diff,
// in-process binary /v1/diff subscribers on the replica, and the replica
// listening for the open-loop GET generator.
type followRig struct {
	fo       *hostlink.Fanout
	api      http.Handler // the coordinator's API, unwrapped
	agent    *hostlink.Agent
	replica  *readpath.Replica
	upstream *upstreamTimer // nil when untraced
	subs     []*subscriber
	// held[g] is when the replica first held generation g (traced only).
	held []time.Time

	base        string // the replica's base URL
	ctx         context.Context
	cancel      context.CancelFunc
	wg          sync.WaitGroup
	servers     []*http.Server
	agentLn     net.Listener
	replicaHTTP *http.Transport
	closeOnce   sync.Once
}

// goLabeled starts fn on a goroutine carrying the pprof label layer, so
// CPU it burns outside any layer package is still attributed. wg tracks it.
func goLabeled(ctx context.Context, wg *sync.WaitGroup, layer string, fn func()) {
	wg.Add(1)
	go pprof.Do(ctx, pprof.Labels("layer", layer), func(context.Context) {
		defer wg.Done()
		fn()
	})
}

// serveLabeled serves h on a fresh loopback listener under a pprof layer
// label (inherited by every connection goroutine) and returns the server.
func (rig *followRig) serveLabeled(layer string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	rig.servers = append(rig.servers, srv)
	goLabeled(rig.ctx, &rig.wg, layer, func() { _ = srv.Serve(ln) })
	return srv, "http://" + ln.Addr().String(), nil
}

// startFollow brings the rig up before the run starts: the agent is
// attached and every subscriber is streaming when it returns.
func startFollow(w *workload, g *generated, coord *coordinator.Coordinator, traced bool) (*followRig, error) {
	ctx, cancel := context.WithCancel(context.Background())
	rig := &followRig{fo: coord.Fanout(), ctx: ctx, cancel: cancel}
	ok := false
	defer func() {
		if !ok {
			rig.close()
		}
	}()

	// Host agent: one shard applied remotely through the same engine
	// construction cmd/celestial-agent uses; the other shards stay on the
	// coordinator's loopback path.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig.agentLn = ln
	goLabeled(ctx, &rig.wg, "fanout", func() { _ = rig.fo.Serve(ln) })
	rig.agent = &hostlink.Agent{
		ID: w.agentShard, Addr: ln.Addr().String(), Replica: hostlink.NewReplica(),
		ReconnectWait: 20 * time.Millisecond, Apply: true,
		NewApplier: func(shard int, seed int64) hostlink.ResultApplier {
			return applyengine.New(applyengine.Config{Shard: shard, Backend: &applyengine.ReplicaBackend{}, Seed: seed})
		},
	}
	goLabeled(ctx, &rig.wg, "fanout", func() { _ = rig.agent.Run(ctx) })
	if err := waitFor(10*time.Second, func() bool { return rig.fo.ConnectedAgents() == 1 }); err != nil {
		return nil, fmt.Errorf("agent did not attach: %w", err)
	}

	// The coordinator's API, optionally wrapped to time each replica fetch.
	rig.api = httpapi.New(coord)
	var h http.Handler = rig.api
	if traced {
		rig.upstream = &upstreamTimer{h: rig.api}
		h = rig.upstream
	}
	_, upstreamURL, err := rig.serveLabeled("publish", h)
	if err != nil {
		return nil, err
	}
	rig.replicaHTTP = &http.Transport{MaxIdleConnsPerHost: 4}
	rig.replica, err = readpath.New(readpath.Options{
		Upstream: upstreamURL, Client: &http.Client{Transport: rig.replicaHTTP},
		ReconnectWait: 20 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	goLabeled(ctx, &rig.wg, "replica", func() { _ = rig.replica.Run(ctx) })
	if _, rig.base, err = rig.serveLabeled("replica", rig.replica); err != nil {
		return nil, err
	}
	if traced {
		rig.held = make([]time.Time, g.ticks+2)
		goLabeled(ctx, &rig.wg, "bench", rig.watchCatchup)
	}

	// Subscribers attach from generation 0 so each must see every
	// generation of the run exactly once.
	for i := 0; i < w.subscribers; i++ {
		s := &subscriber{id: i, decode: i == 0, recv: make([]time.Time, g.ticks+2), attached: make(chan struct{})}
		rig.subs = append(rig.subs, s)
		req := httptest.NewRequest(http.MethodGet, "/v1/diff?since=0", nil).WithContext(ctx)
		req.Header.Set("Accept", httpapi.DiffContentType)
		goLabeled(ctx, &rig.wg, "replica", func() { rig.replica.ServeHTTP(s, req) })
	}
	for _, s := range rig.subs {
		select {
		case <-s.attached:
		case <-time.After(10 * time.Second):
			return nil, errors.New("subscribers did not attach")
		}
	}
	ok = true
	return rig, nil
}

// watchCatchup records when the replica first holds each generation.
func (rig *followRig) watchCatchup() {
	seen := uint64(0)
	for {
		ch := rig.replica.UpdateChan()
		gen := rig.replica.Generation()
		now := time.Now()
		for ; seen < gen && seen+1 < uint64(len(rig.held)); seen++ {
			rig.held[seen+1] = now
		}
		select {
		case <-ch:
		case <-rig.ctx.Done():
			return
		}
	}
}

// waitCaughtUp waits until the replica and every subscriber hold gen.
func (rig *followRig) waitCaughtUp(gen uint64, timeout time.Duration) error {
	return waitFor(timeout, func() bool {
		if rig.replica.Generation() < gen {
			return false
		}
		for _, s := range rig.subs {
			if s.last.Load() < gen {
				return false
			}
		}
		return true
	})
}

// close stops every goroutine the rig started and waits for them.
func (rig *followRig) close() {
	rig.closeOnce.Do(func() {
		rig.fo.Close()
		rig.cancel()
		for _, srv := range rig.servers {
			_ = srv.Close()
		}
		if rig.agentLn != nil {
			_ = rig.agentLn.Close()
		}
		rig.wg.Wait()
		if rig.replicaHTTP != nil {
			rig.replicaHTTP.CloseIdleConnections()
		}
	})
}

// get serves one GET from h in process and returns the body of a 200.
func (rig *followRig) get(h http.Handler, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

// waitFor polls cond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// upstreamTimer wraps the coordinator's API to time every document fetch
// the replica makes (the long-lived /v1/diff stream is passed through).
type upstreamTimer struct {
	h      http.Handler
	mu     sync.Mutex
	starts []time.Time
	ends   []time.Time
}

func (u *upstreamTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/diff" || r.URL.Path == "/diff" {
		u.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	u.h.ServeHTTP(w, r)
	end := time.Now()
	u.mu.Lock()
	u.starts = append(u.starts, start)
	u.ends = append(u.ends, end)
	u.mu.Unlock()
}

// subscriber is one in-process binary /v1/diff subscriber: the response
// writer the replica's stream handler writes frames into. It checks that
// generations arrive exactly once and in order, and records when each
// arrived. Write is only called from the handler goroutine.
type subscriber struct {
	id       int
	decode   bool // decode every frame in full, cross-checking the header peek
	hdr      http.Header
	attached chan struct{}
	next     uint64
	recv     []time.Time
	last     atomic.Uint64
	err      error
	buf      []byte
}

func (s *subscriber) Header() http.Header {
	if s.hdr == nil {
		s.hdr = http.Header{}
	}
	return s.hdr
}

func (s *subscriber) WriteHeader(status int) {
	if status != http.StatusOK && s.err == nil {
		s.err = fmt.Errorf("subscriber %d: status %d", s.id, status)
	}
	close(s.attached)
}

// Write consumes whole stream frames: u32 LE length (type byte plus
// payload), u8 type, payload; a diff payload starts with its u64 LE
// generation.
func (s *subscriber) Write(p []byte) (int, error) {
	now := time.Now()
	n := len(p)
	for len(p) > 0 {
		if len(p) < 5 {
			return 0, s.fail("short frame")
		}
		size := int(binary.LittleEndian.Uint32(p))
		if size < 1 || len(p) < 4+size {
			return 0, s.fail("frame split across writes")
		}
		frame := p[:4+size]
		p = p[4+size:]
		switch httpapi.StreamFrameType(frame[4]) {
		case httpapi.StreamFrameKeepalive:
			continue
		case httpapi.StreamFrameDiff:
		default:
			return 0, s.fail(fmt.Sprintf("unexpected frame type %d (a resync means a missed generation)", frame[4]))
		}
		if size < 9 {
			return 0, s.fail("short diff frame")
		}
		gen := binary.LittleEndian.Uint64(frame[5:])
		if s.decode {
			var f httpapi.StreamFrame
			var err error
			f, s.buf, err = httpapi.ReadStreamFrame(bytes.NewReader(frame), s.buf)
			if err != nil || f.Generation != gen {
				return 0, s.fail(fmt.Sprintf("frame decode: generation %d vs peeked %d (%v)", f.Generation, gen, err))
			}
		}
		if gen != s.next+1 {
			return 0, s.fail(fmt.Sprintf("received generation %d after %d", gen, s.next))
		}
		s.next = gen
		if gen < uint64(len(s.recv)) {
			s.recv[gen] = now
		}
		s.last.Store(gen)
	}
	return n, nil
}

func (s *subscriber) fail(msg string) error {
	if s.err == nil {
		s.err = fmt.Errorf("subscriber %d: %s", s.id, msg)
	}
	return s.err
}

// getKinds are the GET generator's request kinds.
var getKinds = []string{"info", "gst", "sat", "path"}

// getRequest is one scheduled GET.
type getRequest struct {
	kind int
	path string
	due  time.Time
}

// getResult is one completed GET.
type getResult struct {
	kind              int
	due, issued, done time.Time
	status            int
	conn              int
	gen               uint64
}

// getMix builds the seeded request sequence: 10% /v1/info, 25% station
// documents, 25% satellite documents from a fixed set of 16 satellites,
// 40% station-to-station paths.
func getMix(seed int64, g *generated, w *workload, n int) []getRequest {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x676574))
	type sat struct{ shell, idx int }
	var sats []sat
	for len(sats) < 16 {
		sh := rng.IntN(len(w.shells))
		sats = append(sats, sat{sh, rng.IntN(w.shells[sh].planes * w.shells[sh].sats)})
	}
	out := make([]getRequest, n)
	for i := range out {
		r := &out[i]
		switch x := rng.Float64(); {
		case x < 0.10:
			r.kind, r.path = 0, "/v1/info"
		case x < 0.35:
			r.kind, r.path = 1, "/v1/gst/"+g.stations[rng.IntN(len(g.stations))].name
		case x < 0.60:
			s := sats[rng.IntN(len(sats))]
			r.kind, r.path = 2, fmt.Sprintf("/v1/shell/%d/%d", s.shell, s.idx)
		default:
			a := rng.IntN(len(g.stations))
			b := (a + 1 + rng.IntN(len(g.stations)-1)) % len(g.stations)
			r.kind, r.path = 3, "/v1/path/"+g.stations[a].name+"/"+g.stations[b].name
		}
	}
	return out
}

// getLoad is a running open-loop GET generator.
type getLoad struct {
	results []getResult
	late    []time.Duration
	wg      sync.WaitGroup
}

// startGets issues reqs open loop, each at its due time, over conns
// keep-alive connections to base. Requests wait for a free connection in
// due order; every latency counts from the due time.
func startGets(ctx context.Context, base string, reqs []getRequest, conns int, gen func() uint64) *getLoad {
	l := &getLoad{results: make([]getResult, len(reqs)), late: make([]time.Duration, len(reqs))}
	queue := make(chan int, len(reqs)) // every request fits: the dispatcher never blocks
	goLabeled(ctx, &l.wg, "bench", func() {
		defer close(queue)
		for i := range reqs {
			if d := time.Until(reqs[i].due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			l.late[i] = max(0, time.Since(reqs[i].due))
			queue <- i
		}
	})
	for c := 0; c < conns; c++ {
		goLabeled(ctx, &l.wg, "bench", func() {
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
			for i := range queue {
				r := &l.results[i]
				r.kind, r.due, r.conn, r.gen = reqs[i].kind, reqs[i].due, c, gen()
				r.issued = time.Now()
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+reqs[i].path, nil)
				if err == nil {
					var resp *http.Response
					if resp, err = client.Do(req); err == nil {
						_, err = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if err == nil {
							r.status = resp.StatusCode
						}
					}
				}
				r.done = time.Now()
			}
		})
	}
	return l
}
