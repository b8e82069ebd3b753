package constellation

import (
	"testing"

	"celestial/internal/topo"
)

// snapshotSequential is the single-threaded reference implementation of
// Snapshot: the same pipeline with one worker, a Full diff and a graph
// rebuilt from the link list. The differential tests compare the parallel
// and pooled paths against it.
func snapshotSequential(c *Constellation, t float64) (*State, error) {
	st, err := c.snapshotInto(new(State), t, 1)
	if err != nil {
		return nil, err
	}
	st.computeDiffFrom(nil)
	st.rebuildGraph()
	return st, nil
}

// assertUplinksBrute is the uplink oracle: every (station, shell) uplink
// list of st must equal the exhaustive O(G×S) elevation scan over st's own
// satellite positions, so the visibility index — built cold or updated
// incrementally — never changes which satellites a station sees, or their
// order.
func assertUplinksBrute(t *testing.T, st *State) {
	t.Helper()
	c := st.c
	var want []topo.Uplink
	for gi := range c.gst {
		for si, sh := range c.shells {
			shellPos := st.Positions[c.base[si] : c.base[si]+sh.Size()]
			want = topo.VisibleSatsInto(c.gstPos[gi], shellPos,
				c.cfg.Shells[si].Network.MinElevationDeg, want)
			got := st.uplinks[gi][si]
			if len(got) != len(want) {
				t.Fatalf("t=%v station %d shell %d: %d uplinks, brute scan sees %d",
					st.T, gi, si, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("t=%v station %d shell %d uplink %d: %+v, brute scan %+v",
						st.T, gi, si, i, got[i], want[i])
				}
			}
		}
	}
}
