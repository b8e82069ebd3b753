package httpapi

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"celestial/internal/coordinator"
)

// uncachedSource wraps a Source so that its cache versions change on every
// call: every request through RegisterRoutes misses the version-keyed
// response caches and runs the full build-and-encode path. It is the
// uncached reference of the cache differential and benchmarks. (The /shell
// documents are keyed by configuration, not by a version, and /diff embeds
// the versions in its body, so neither is compared through it.)
type uncachedSource struct {
	Source
	ver atomic.Uint64
}

func (u *uncachedSource) Generation() uint64      { return u.ver.Add(1) }
func (u *uncachedSource) TopologyVersion() uint64 { return u.ver.Add(1) }

// newUncachedServer mounts the route table over an uncachedSource of c.
func newUncachedServer(c *coordinator.Coordinator) *Server {
	return RegisterRoutes(http.NewServeMux(), &uncachedSource{Source: NewCoordinatorSource(c)})
}

// body performs a GET and returns the response body bytes.
func body(t *testing.T, s *Server, path string, wantStatus int) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s = %d (%s), want %d", path, rec.Code, rec.Body.String(), wantStatus)
	}
	return rec.Body.Bytes()
}

// differentialEndpoints are the version-keyed endpoints the byte-equality
// differential runs over.
var differentialEndpoints = []string{
	"/info",
	"/shell/0/100",
	"/shell/0/0",
	"/gst/accra",
	"/gst/johannesburg",
	"/path/accra/johannesburg",
	"/path/0.0/5.0",
	"/path/100.0/accra",
}

// unversionedEndpoints are the endpoints an uncachedSource cannot force
// past their caches: /shell documents are keyed by configuration and /diff
// replays the frame log.
var unversionedEndpoints = []string{"/shell/0", "/diff?since=0"}

// TestCachedResponsesByteIdentical is the differential test for the cache
// rebuild: for every endpoint, the cached server's response — on a cold
// cache and again on a warm one — must be byte-for-byte identical to the
// uncached encoder's output for the same snapshot, across topology
// changes. The unversioned endpoints are compared against a fresh server
// per check instead: a cold shell cache and an independently built frame
// log.
func TestCachedResponsesByteIdentical(t *testing.T) {
	cached, c := testServer(t)
	uncached := newUncachedServer(c)

	check := func(tag string) {
		t.Helper()
		fresh := New(c)
		for _, set := range []struct {
			ref *Server
			eps []string
		}{{uncached, differentialEndpoints}, {fresh, unversionedEndpoints}} {
			for _, ep := range set.eps {
				ref := body(t, set.ref, ep, http.StatusOK)
				cold := body(t, cached, ep, http.StatusOK)
				warm := body(t, cached, ep, http.StatusOK)
				if !bytes.Equal(ref, cold) {
					t.Errorf("%s: GET %s cold cache differs from the reference:\n  reference: %s\n  cached:    %s",
						tag, ep, ref, cold)
				}
				if !bytes.Equal(cold, warm) {
					t.Errorf("%s: GET %s warm cache differs from its own cold fill:\n  cold: %s\n  warm: %s",
						tag, ep, cold, warm)
				}
			}
		}
	}

	check("t=0")
	// Advance through several update ticks (non-empty diffs: satellites
	// move whole delay quanta at this resolution) and re-run: the caches
	// must have invalidated and refilled to the fresh encoder output.
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	check("t=30")
	if err := c.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	check("t=32")
}

// TestCacheServesStoredDocument pins the cache mechanics themselves: a
// fresh fill lands in the respCache and the stored bytes are what a
// repeat request receives.
func TestCacheServesStoredDocument(t *testing.T) {
	s, c := testServer(t)
	first := append([]byte(nil), body(t, s, "/info", http.StatusOK)...)
	doc, ok := s.info.get(c.Generation(), "")
	if !ok {
		t.Fatal("/info fill did not populate the cache")
	}
	if !bytes.Equal(doc, first) {
		t.Error("cached document differs from the served response")
	}
	if got := body(t, s, "/gst/accra", http.StatusOK); len(got) == 0 {
		t.Fatal("empty /gst response")
	}
	if _, ok := s.nodes.get(c.TopologyVersion(), "/gst/accra"); !ok {
		t.Error("/gst fill did not populate the node cache")
	}
	if _, ok := s.paths.get(c.TopologyVersion(), "accra\x00johannesburg"); ok {
		t.Error("path cache populated before any /path request")
	}
	body(t, s, "/path/accra/johannesburg", http.StatusOK)
	if _, ok := s.paths.get(c.TopologyVersion(), "accra\x00johannesburg"); !ok {
		t.Error("/path fill did not populate the path cache")
	}
}

func TestRespCacheVersioning(t *testing.T) {
	var c respCache
	c.put(1, "a", []byte("one"))
	if doc, ok := c.get(1, "a"); !ok || string(doc) != "one" {
		t.Fatalf("get(1) = %q, %v", doc, ok)
	}
	if _, ok := c.get(2, "a"); ok {
		t.Error("newer version served an older document")
	}
	// A newer put drops the previous version's documents.
	c.put(2, "b", []byte("two"))
	if _, ok := c.get(1, "a"); ok {
		t.Error("older version still served after reset")
	}
	if _, ok := c.get(2, "a"); ok {
		t.Error("stale key survived the version reset")
	}
	// A straggler put behind the current version is dropped.
	c.put(1, "c", []byte("late"))
	if _, ok := c.get(1, "c"); ok {
		t.Error("stale-version put was stored")
	}
	if doc, ok := c.get(2, "b"); !ok || string(doc) != "two" {
		t.Errorf("current entry lost: %q, %v", doc, ok)
	}
}

func TestRespCacheBoundsDocumentCount(t *testing.T) {
	var c respCache
	for i := 0; i < maxCachedDocs+10; i++ {
		c.put(1, fmt.Sprintf("k%d", i), []byte("x"))
	}
	c.mu.RLock()
	n := len(c.docs)
	c.mu.RUnlock()
	if n != maxCachedDocs {
		t.Errorf("cache grew to %d documents, cap is %d", n, maxCachedDocs)
	}
	// Existing keys still update past the cap.
	c.put(1, "k0", []byte("y"))
	if doc, _ := c.get(1, "k0"); string(doc) != "y" {
		t.Error("existing key no longer updatable at cap")
	}
}

// TestConcurrentRequestsRaceTickLoop drives parallel API clients against
// all endpoints while the coordinator tick loop recycles snapshot buffers
// underneath them — the lease/release surface the caches sit on. Run with
// -race; correctness here is "no race, no torn response, only 200s".
func TestConcurrentRequestsRaceTickLoop(t *testing.T) {
	s, c := testServer(t)
	endpoints := []string{
		"/info",
		"/shell/0",
		"/shell/0/100",
		"/gst/accra",
		"/path/accra/johannesburg",
		"/path/0.0/5.0",
		"/diff?since=0",
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// 25 ticks x 2 s resolution, each recycling the two-updates-ago
		// snapshot the moment its leases drain.
		for i := 0; i < 25; i++ {
			if err := c.Run(2 * time.Second); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				ep := endpoints[(g+i)%len(endpoints)]
				req := httptest.NewRequest(http.MethodGet, ep, nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s = %d (%s)", ep, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	<-done
	wg.Wait()
}
