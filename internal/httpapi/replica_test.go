package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"celestial/internal/hostlink"
)

// replicaServer builds a route table over a fresh replica and returns
// both. The replica is fed through the same ApplySnapshot/ApplyDiff
// methods the TCP agent uses.
func replicaServer() (*Server, *hostlink.Replica) {
	rep := hostlink.NewReplica()
	mux := http.NewServeMux()
	s := RegisterRoutes(mux, NewReplicaSource(2, rep))
	return s, rep
}

func feedReplica(t *testing.T, rep *hostlink.Replica, upTo uint64) {
	t.Helper()
	if err := rep.ApplySnapshot(&hostlink.Snapshot{
		Agent: 2, Generation: 1, Digest: 0xabc, T: 2.0,
		Active:   []int32{10, 11},
		Inactive: []int32{12},
		Links:    []hostlink.LinkState{{A: 10, B: 11, DelayQ: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	for g := uint64(2); g <= upTo; g++ {
		if err := rep.ApplyDiff(&hostlink.DiffFrame{
			Agent: 2, Generation: g, T: float64(2 * g),
			Changed:   []hostlink.LinkState{{A: 10, B: 11, DelayQ: int32(4 + g)}},
			Activated: []int32{12},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicaSourceServesV1 pins the agent-side read path: the shared
// route table over a shard replica answers /v1/info from replica state,
// 404s the geometry documents it cannot know, and replays /v1/diff from
// the replica's retained frame history.
func TestReplicaSourceServesV1(t *testing.T) {
	s, rep := replicaServer()

	// Before the agent attaches there is no state: 503, like a
	// coordinator before its first update.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/info", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty replica /v1/info = %d, want 503", rec.Code)
	}

	feedReplica(t, rep, 5)

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/info", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/info = %d (%s)", rec.Code, rec.Body.String())
	}
	var info Info
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Generation != 5 || info.T != 10.0 || info.Nodes != 3 {
		t.Errorf("info = gen %d t %v nodes %d, want 5/10/3", info.Generation, info.T, info.Nodes)
	}

	for _, ep := range []string{"/v1/shell/0", "/v1/shell/0/1", "/v1/gst/accra", "/v1/path/accra/878.0"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, ep, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404 (not tracked by a replica)", ep, rec.Code)
		}
	}

	// /diff replays the retained shard frames after the snapshot.
	var diffs DiffResponse
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/diff?since=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/diff?since=1 = %d (%s)", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &diffs); err != nil {
		t.Fatal(err)
	}
	if len(diffs.Diffs) != 4 {
		t.Fatalf("replayed %d diffs, want 4 (generations 2..5): %s", len(diffs.Diffs), rec.Body.Bytes())
	}
	for i, d := range diffs.Diffs {
		want := uint64(i + 2)
		if d.Generation != want {
			t.Errorf("diff %d generation = %d, want %d", i, d.Generation, want)
		}
		if len(d.DelayChanged) != 1 || len(d.Activated) != 1 {
			t.Errorf("diff %d lost deltas: %+v", i, d)
		}
	}

	// A cursor before the snapshot resync point cannot be replayed.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/diff?since=0", nil))
	var resync DiffResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resync); err != nil {
		t.Fatal(err)
	}
	if !resync.Resync {
		t.Errorf("pre-snapshot cursor did not force a resync: %s", rec.Body.Bytes())
	}
}

// TestReplicaSourceFollowsSnapshotResync pins that the source's frame log
// answers every cursor as the replica's own history does, including after
// a snapshot resync at the generation the log already caught up to — the
// one restart the generation number alone cannot reveal.
func TestReplicaSourceFollowsSnapshotResync(t *testing.T) {
	rep := hostlink.NewReplica()
	src := NewReplicaSource(2, rep)
	feedReplica(t, rep, 5)
	if frames, ok := src.Frames(1); !ok || len(frames) != 4 {
		t.Fatalf("Frames(1) = %d frames, ok=%v; want generations 2..5", len(frames), ok)
	}
	check := func(since uint64) {
		t.Helper()
		frames, ok := src.Frames(since)
		diffs, wantOK := rep.Diffs(since)
		if ok != wantOK || len(frames) != len(diffs) {
			t.Fatalf("Frames(%d) = %d frames, ok=%v; replica replays %d, ok=%v",
				since, len(frames), ok, len(diffs), wantOK)
		}
		for i, f := range frames {
			if f.Generation != diffs[i].Generation {
				t.Fatalf("Frames(%d)[%d] is generation %d, replica's is %d", since, i, f.Generation, diffs[i].Generation)
			}
		}
	}
	if err := rep.ApplySnapshot(&hostlink.Snapshot{Agent: 2, Generation: 5, Digest: 0xdef, T: 10}); err != nil {
		t.Fatal(err)
	}
	for since := uint64(0); since <= 6; since++ {
		check(since)
	}
	if err := rep.ApplyDiff(&hostlink.DiffFrame{Agent: 2, Generation: 6, T: 12, Activated: []int32{11}}); err != nil {
		t.Fatal(err)
	}
	for since := uint64(0); since <= 7; since++ {
		check(since)
	}
}
