package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"celestial/internal/config"
	"celestial/internal/coordinator"
	"celestial/internal/geom"
	"celestial/internal/orbit"
)

// benchServer builds a started coordinator (Starlink shell 1 scale, two
// stations, long duration so the tick loop never stops mid-benchmark) and
// an API server over it.
func benchServer(b *testing.B, caching bool) (*Server, *coordinator.Coordinator) {
	b.Helper()
	cfg := &config.Config{
		Duration:   time.Hour,
		Resolution: time.Second,
		Shells: []config.Shell{{
			ShellConfig: orbit.ShellConfig{
				Name: "starlink-1", Planes: 24, SatsPerPlane: 22, AltitudeKm: 550,
				InclinationDeg: 53, ArcDeg: 360, PhasingFactor: 13, Model: orbit.ModelKepler,
			},
		}},
		GroundStations: []config.GroundStation{
			{Name: "accra", Location: geom.LatLon{LatDeg: 5.6037, LonDeg: -0.1870}},
			{Name: "johannesburg", Location: geom.LatLon{LatDeg: -26.2041, LonDeg: 28.0473}},
		},
	}
	cfg.Network.MinElevationDeg = 25
	if err := config.Finalize(cfg); err != nil {
		b.Fatal(err)
	}
	c, err := coordinator.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	s := New(c)
	s.SetCaching(caching)
	return s, c
}

// nopResponseWriter discards the response so the benchmark measures the
// service, not the recorder.
type nopResponseWriter struct{ h http.Header }

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopResponseWriter) WriteHeader(int)             {}

// hammer issues the endpoints in parallel against the server, measuring
// steady-state serving: each endpoint is primed once before the timer so
// a cached server's one-off fill cost is not attributed to the first
// iteration (the CI protocol runs benchmarks with -benchtime 1x).
func hammer(b *testing.B, s *Server, endpoints ...string) {
	b.Helper()
	for _, ep := range endpoints {
		serveOnce(s, ep)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		reqs := make([]*http.Request, len(endpoints))
		for i, ep := range endpoints {
			reqs[i] = httptest.NewRequest(http.MethodGet, ep, nil)
		}
		w := &nopResponseWriter{h: make(http.Header)}
		for i := 0; pb.Next(); i++ {
			s.ServeHTTP(w, reqs[i%len(reqs)])
		}
	})
}

// serveOnce issues one request, discarding the response.
func serveOnce(s *Server, endpoint string) {
	s.ServeHTTP(&nopResponseWriter{h: make(http.Header)}, httptest.NewRequest(http.MethodGet, endpoint, nil))
}

// BenchmarkAPI measures the information service's request throughput:
// cached vs uncached serving for the hot endpoints, and a mixed client
// load interleaved with coordinator ticks (the deployment shape: many
// emulated applications polling while the constellation updates). The
// cached-vs-uncached ns/op ratio for /info is the req/s speedup the
// response cache buys; CI records all entries in the benchmark artifact
// and compares them against BENCH_baseline.json.
func BenchmarkAPI(b *testing.B) {
	pathEndpoints := []string{
		"/path/accra/johannesburg",
		"/path/johannesburg/accra",
		"/path/0.0/263.0",
		"/path/accra/100.0",
	}
	b.Run("info-cached", func(b *testing.B) {
		s, _ := benchServer(b, true)
		hammer(b, s, "/info")
	})
	b.Run("info-speedup", func(b *testing.B) {
		// The req/s ratio the response cache buys on /info, measured
		// over a fixed iteration count so the metric is meaningful even
		// under the CI's -benchtime 1x protocol.
		s, c := benchServer(b, true)
		uncached := New(c)
		uncached.SetCaching(false)
		serveOnce(s, "/info")
		const iters = 20000
		measure := func(srv *Server) time.Duration {
			req := httptest.NewRequest(http.MethodGet, "/info", nil)
			w := &nopResponseWriter{h: make(http.Header)}
			start := time.Now()
			for i := 0; i < iters; i++ {
				srv.ServeHTTP(w, req)
			}
			return time.Since(start)
		}
		cold := measure(uncached)
		warm := measure(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(s, "/info")
		}
		b.ReportMetric(float64(cold)/float64(warm), "speedup-x")
	})
	b.Run("info-uncached", func(b *testing.B) {
		s, _ := benchServer(b, false)
		hammer(b, s, "/info")
	})
	b.Run("path-cached", func(b *testing.B) {
		s, _ := benchServer(b, true)
		hammer(b, s, pathEndpoints...)
	})
	b.Run("path-uncached", func(b *testing.B) {
		s, _ := benchServer(b, false)
		hammer(b, s, pathEndpoints...)
	})
	b.Run("diff-replay", func(b *testing.B) {
		// Pins the shared-frame economy on /diff: replaying the retained
		// window re-serves prebuilt per-generation frames, so allocs/op
		// must not scale back up to per-request re-serialization of every
		// diff document (the regression the frame cache removed).
		s, c := benchServer(b, true)
		for i := 0; i < 8; i++ {
			if err := c.Run(time.Second); err != nil {
				b.Fatal(err)
			}
		}
		hammer(b, s, "/diff?since="+strconv.FormatUint(c.Generation()-8, 10))
	})
	b.Run("mixed-ticking", func(b *testing.B) {
		// The mixed endpoint load between coordinator ticks: every
		// requestsPerTick requests the coordinator advances one tick,
		// which publishes a new state and invalidates the response
		// caches, so the requests after it pay the refills. The tick runs
		// with the timer stopped, keeping the coordinator's allocations
		// out of the service's allocs/op: a ticker racing the timed window
		// added a random number of whole ticks to it, which under
		// -benchtime 1x swung allocs/op to twice its baseline.
		const requestsPerTick = 64
		s, c := benchServer(b, true)
		endpoints := append([]string{"/info", "/gst/accra", "/diff?since=0"}, pathEndpoints...)
		reqs := make([]*http.Request, len(endpoints))
		for i, ep := range endpoints {
			serveOnce(s, ep)
			reqs[i] = httptest.NewRequest(http.MethodGet, ep, nil)
		}
		w := &nopResponseWriter{h: make(http.Header)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%requestsPerTick == 0 {
				b.StopTimer()
				if err := c.Run(time.Second); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			s.ServeHTTP(w, reqs[i%len(reqs)])
		}
	})
}
