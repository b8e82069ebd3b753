package hostlink

// DefaultRetention is the default depth of every generation log: how
// many recent generations the coordinator's diff retention, the host
// agent's replica and a read replica keep for replay. At the paper's 1 s
// update resolution it covers about a minute of history; a follower that
// falls further behind resyncs from full state.
const DefaultRetention = 64

// Log is the retention window every producer and follower of the diff
// stream keeps: a fixed-capacity ring of per-generation entries holding
// the contiguous generations (Head()-Len(), Head()]. It does no locking;
// each owner guards it with its own lock.
//
// The cursor rules are those of GET /diff?since=: a cursor at the head
// replays nothing, successfully; a cursor inside the window replays the
// generations after it; a cursor ahead of the head (stale or corrupted)
// or older than Head()-Len() cannot be replayed and sends the follower
// back to full state.
type Log[T any] struct {
	slots     []T
	head      uint64
	n         int
	evictions uint64
}

// NewLog returns an empty log at generation 0 retaining up to capacity
// generations (at least one).
func NewLog[T any](capacity int) *Log[T] {
	return &Log[T]{slots: make([]T, max(capacity, 1))}
}

// Append advances the head by one generation and returns its slot for the
// caller to fill in place. The slot keeps the value of the generation it
// last carried (zero after a Reset), so its buffers can be reused: a full
// log evicts its oldest generation and allocates nothing.
func (l *Log[T]) Append() *T {
	l.head++
	if l.n == len(l.slots) {
		l.evictions++
	} else {
		l.n++
	}
	return &l.slots[l.head%uint64(len(l.slots))]
}

// At returns the entry of generation gen, or false when gen is not
// retained.
func (l *Log[T]) At(gen uint64) (*T, bool) {
	if gen > l.head || gen+uint64(l.n) <= l.head {
		return nil, false
	}
	return &l.slots[gen%uint64(len(l.slots))], true
}

// Since returns a copy of the entries of every generation in
// (since, Head()], oldest first. ok is false when the cursor is outside
// the replayable window: ahead of the head, or older than the oldest
// retained generation.
func (l *Log[T]) Since(since uint64) ([]T, bool) {
	if since > l.head || since+uint64(l.n) < l.head {
		return nil, false
	}
	if since == l.head {
		return nil, true
	}
	out := make([]T, 0, l.head-since)
	for g := since + 1; g <= l.head; g++ {
		out = append(out, l.slots[g%uint64(len(l.slots))])
	}
	return out, true
}

// Reset drops every retained entry and re-anchors the empty window at
// head: the next Append is generation head+1, and only a cursor at head
// replays (nothing). It is the resync point of a follower that adopted
// full state, or whose upstream skipped generations.
func (l *Log[T]) Reset(head uint64) {
	clear(l.slots)
	l.head = head
	l.n = 0
}

// Head returns the newest generation (0 before the first Append).
func (l *Log[T]) Head() uint64 { return l.head }

// Len returns how many generations the log retains.
func (l *Log[T]) Len() int { return l.n }

// Cap returns the log's capacity.
func (l *Log[T]) Cap() int { return len(l.slots) }

// Evictions counts generations dropped by Append to make room.
func (l *Log[T]) Evictions() uint64 { return l.evictions }
