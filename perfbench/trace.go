package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// Trace tracks of the Chrome trace: one per kind of span, so a viewer
// lines up the layers of each generation vertically.
const (
	trackSetup = iota + 1
	trackTick
	trackCommit
	trackCatchup
	trackUpstream
	trackGet     // + connection index
	trackSub = 8 // + subscriber index, for the traced subscribers
)

// tracedSubscribers is how many subscribers' receipts become spans; the
// rest still feed the metrics.
const tracedSubscribers = 8

// span is one timed call the benchmark made into a layer. Spans of one
// generation share its id.
type span struct {
	name       string
	track      int
	id         uint64
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records one span.
func (t *tracer) add(name string, track int, id uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name, track, id, start, end})
	t.mu.Unlock()
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps from base), which Perfetto and
// chrome://tracing open directly.
func (t *tracer) writeChrome(path string, base time.Time) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	t.mu.Lock()
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"gen\":%d}}",
			s.name, s.track, float64(s.start.Sub(base).Nanoseconds())/1e3,
			float64(s.end.Sub(s.start).Nanoseconds())/1e3, s.id)
	}
	t.mu.Unlock()
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
