package hostlink

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refLog is the reference model of Log: every generation in a map, the
// window (base, head] kept explicitly, eviction by deleting the oldest
// key. It is deliberately the obvious implementation, so Log's ring
// arithmetic is checked against it rather than against itself.
type refLog struct {
	entries   map[uint64]int
	head      uint64
	base      uint64
	capacity  int
	evictions uint64
}

func newRefLog(capacity int) *refLog {
	return &refLog{entries: map[uint64]int{}, capacity: capacity}
}

func (r *refLog) append(v int) {
	r.head++
	r.entries[r.head] = v
	if r.head-r.base > uint64(r.capacity) {
		r.base++
		delete(r.entries, r.base)
		r.evictions++
	}
}

func (r *refLog) reset(head uint64) {
	r.head, r.base = head, head
	clear(r.entries)
}

func (r *refLog) at(gen uint64) (int, bool) {
	if gen <= r.base || gen > r.head {
		return 0, false
	}
	v, ok := r.entries[gen]
	return v, ok
}

func (r *refLog) since(since uint64) ([]int, bool) {
	if since > r.head || since < r.base {
		return nil, false
	}
	var out []int
	for g := since + 1; g <= r.head; g++ {
		out = append(out, r.entries[g])
	}
	return out, true
}

// cursor draws a cursor from the classes the /diff contract
// distinguishes: ahead of the head, at the head, inside the window,
// evicted or before a reset point, and generation 0.
func cursor(rnd *rand.Rand, r *refLog) uint64 {
	switch rnd.Intn(5) {
	case 0:
		return r.head + 1 + uint64(rnd.Intn(3))
	case 1:
		return r.head
	case 2:
		if r.head == r.base {
			return r.head
		}
		return r.base + uint64(rnd.Int63n(int64(r.head-r.base)+1))
	case 3:
		if r.base == 0 {
			return 0
		}
		return uint64(rnd.Int63n(int64(r.base)))
	default:
		return 0
	}
}

// TestLogMatchesReference drives Log and the map-based reference through
// the same random Append/Reset/Since/At sequences and requires identical
// answers, window sizes and eviction counts throughout.
func TestLogMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 4, 64} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", capacity, seed), func(t *testing.T) {
				rnd := rand.New(rand.NewSource(seed))
				l, ref := NewLog[int](capacity), newRefLog(capacity)
				for step := 0; step < 2000; step++ {
					switch op := rnd.Intn(20); {
					case op < 12:
						v := rnd.Int()
						*l.Append() = v
						ref.append(v)
					case op == 12:
						// Re-anchor ahead, at, or behind the head, like a
						// snapshot resync or a regressed upstream.
						h := ref.head + uint64(rnd.Intn(2*capacity+2))
						if rnd.Intn(4) == 0 && ref.head > 0 {
							h = uint64(rnd.Int63n(int64(ref.head)))
						}
						l.Reset(h)
						ref.reset(h)
					case op < 17:
						since := cursor(rnd, ref)
						got, ok := l.Since(since)
						want, wantOK := ref.since(since)
						if ok != wantOK || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
							t.Fatalf("step %d: Since(%d) = %v, %v; reference %v, %v (head %d, base %d)",
								step, since, got, ok, want, wantOK, ref.head, ref.base)
						}
					default:
						gen := cursor(rnd, ref)
						if rnd.Intn(2) == 0 && gen > 0 {
							gen-- // reach the oldest retained generation too
						}
						p, ok := l.At(gen)
						want, wantOK := ref.at(gen)
						if ok != wantOK || (ok && *p != want) {
							t.Fatalf("step %d: At(%d) ok=%v; reference %d, %v", step, gen, ok, want, wantOK)
						}
					}
					if l.Head() != ref.head || l.Len() != int(ref.head-ref.base) ||
						l.Evictions() != ref.evictions || l.Cap() != capacity {
						t.Fatalf("step %d: head %d len %d evictions %d cap %d; reference head %d len %d evictions %d",
							step, l.Head(), l.Len(), l.Evictions(), l.Cap(), ref.head, ref.head-ref.base, ref.evictions)
					}
				}
			})
		}
	}
}

// TestLogSlotReuseAllocatesNothing pins the property the coordinator's
// tick relies on: once every slot has grown its buffers, appending a
// generation and refilling its slot in place allocates nothing.
func TestLogSlotReuseAllocatesNothing(t *testing.T) {
	l := NewLog[[]int](4)
	payload := []int{1, 2, 3, 4, 5, 6, 7, 8}
	fill := func() {
		e := l.Append()
		*e = append((*e)[:0], payload...)
	}
	for i := 0; i < l.Cap(); i++ {
		fill()
	}
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Errorf("steady-state Append allocated %v times per generation, want 0", allocs)
	}
}
