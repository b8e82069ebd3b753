package httpapi

import (
	"celestial/internal/constellation"
	"celestial/internal/hostlink"
)

// ReplicaSource serves the information-service route table from a host
// agent's shard replica — the same RegisterRoutes entry point the
// coordinator and the /diff read replicas use, so an agent's /v1 handlers
// cannot drift from theirs. A shard replica tracks machine activity and
// link delay quanta, not the constellation geometry, so the source is
// deliberately partial: /info reports the replica's cursor and state
// sizes, /diff replays the shard-scoped frames the agent retained, and
// the geometry-derived documents (/shell, /gst, /path, per-satellite)
// answer 404 — those questions belong to the coordinator.
type ReplicaSource struct {
	rep   *hostlink.Replica
	shard int
	fl    *frameLog
}

// NewReplicaSource wraps one shard replica as a route-table Source.
func NewReplicaSource(shard int, rep *hostlink.Replica) *ReplicaSource {
	return &ReplicaSource{rep: rep, shard: shard, fl: newFrameLog(hostlink.DefaultRetention)}
}

// Generation implements Source: the replica's applied cursor.
func (rs *ReplicaSource) Generation() uint64 {
	gen, _ := rs.rep.Cursor()
	return gen
}

// TopologyVersion implements Source. The replica does not distinguish
// empty diffs (it only receives frames that concern its shard), so every
// applied generation is a potential topology change.
func (rs *ReplicaSource) TopologyVersion() uint64 { return rs.Generation() }

// UpdateChan implements Source, waking /diff long-polls and streams on
// the next applied frame or snapshot.
func (rs *ReplicaSource) UpdateChan() <-chan struct{} { return rs.rep.UpdateChan() }

// InfoDoc implements Source: the replica's cursor, digest and tracked
// state sizes — what a machine on this host can learn locally without a
// round-trip to the coordinator.
func (rs *ReplicaSource) InfoDoc() ([]byte, int) {
	gen, _, t := rs.rep.State()
	if gen == 0 {
		return errDoc(503, "replica has no state yet (agent not attached)")
	}
	active, inactive, _, _, _ := rs.rep.Counts()
	return marshalDoc(Info{T: t, Generation: gen, Nodes: active + inactive}), 200
}

func (rs *ReplicaSource) ShellDoc(string) ([]byte, int) {
	return rs.notTracked()
}

func (rs *ReplicaSource) SatDoc(string, string) ([]byte, int) {
	return rs.notTracked()
}

func (rs *ReplicaSource) GSTDoc(string) ([]byte, int) {
	return rs.notTracked()
}

func (rs *ReplicaSource) PathDoc(string, string) ([]byte, int) {
	return rs.notTracked()
}

func (rs *ReplicaSource) notTracked() ([]byte, int) {
	return errDoc(404, "not tracked by this agent replica (shard %d); ask the coordinator", rs.shard)
}

// Frames implements Source over the replica's retained diff history.
// Each frame is converted and serialized once and shared by every
// subscriber, like the coordinator's.
func (rs *ReplicaSource) Frames(since uint64) ([]*Frame, bool) {
	return rs.fl.frames(since, rs)
}

// replay builds the frames of the replica's retained diffs after since.
func (rs *ReplicaSource) replay(since uint64) ([]*Frame, bool) {
	diffs, ok := rs.rep.Diffs(since)
	return wireFrames(diffs), ok
}

// extend replays from the generation before head: a snapshot resync
// restarts the replica's window, and one that restarted it at head is
// noticed only by the replica refusing head-1.
func (rs *ReplicaSource) extend(head uint64) ([]*Frame, bool) {
	if head == 0 {
		return rs.replay(0)
	}
	diffs, ok := rs.rep.Diffs(head - 1)
	if !ok || len(diffs) == 0 {
		return nil, false
	}
	return wireFrames(diffs[1:]), true
}

// wireFrames builds the shared frames of shard-scoped wire diffs.
func wireFrames(diffs []*hostlink.DiffFrame) []*Frame {
	frames := make([]*Frame, len(diffs))
	for i, d := range diffs {
		rec := recordOfWire(d)
		frames[i] = BuildFrame(d.Generation, &rec)
	}
	return frames
}

// recordOfWire lifts a shard-scoped wire frame back into the diff-record
// form the shared frame builder consumes. The wire carries new delay
// quanta only, so the record's old-quantum fields and the path-cache
// counters are zero — an agent's /diff stream describes its shard's
// deltas, not the coordinator's global diff.
func recordOfWire(f *hostlink.DiffFrame) constellation.DiffRecord {
	rec := constellation.DiffRecord{T: f.T, Degraded: f.Degraded}
	for _, l := range f.Added {
		rec.Added = append(rec.Added, constellation.LinkDelta{A: int(l.A), B: int(l.B), NewQ: l.DelayQ})
	}
	for _, l := range f.Removed {
		rec.Removed = append(rec.Removed, constellation.LinkDelta{A: int(l.A), B: int(l.B), OldQ: l.DelayQ})
	}
	for _, l := range f.Changed {
		rec.DelayChanged = append(rec.DelayChanged, constellation.LinkDelta{A: int(l.A), B: int(l.B), NewQ: l.DelayQ})
	}
	rec.Activated = append(rec.Activated, f.Activated...)
	rec.Deactivated = append(rec.Deactivated, f.Deactivated...)
	return rec
}
