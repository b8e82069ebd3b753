package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder are the percentiles a tail metric may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder, capped at
// limit, that has at least ten of n samples beyond it; 0 when even the
// median has fewer.
func tailPercentile(n int, limit float64) float64 {
	for _, p := range tailLadder {
		if p <= limit && float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; it sorts xs in place. Empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// tail returns the percentile of xs at the highest ladder rung up to limit
// that has ten samples beyond it (the median when none has), and the rung.
func tail(xs []float64, limit float64) (float64, float64) {
	p := tailPercentile(len(xs), limit)
	if p == 0 {
		p = 50
	}
	return percentile(xs, p), p
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoop records an open-loop generator: every operation is timed from
// the instant it was due, so a stall charges the wait to every operation
// queued behind it, and the generator's own lateness — how long after its
// due time each operation was issued — is kept separately.
type openLoop struct {
	latencyMs []float64
	lateMs    []float64
}

// record notes one operation due at due, issued at issued and completed
// at done.
func (o *openLoop) record(due, issued, done time.Time) {
	o.latencyMs = append(o.latencyMs, ms(done.Sub(due)))
	o.lateMs = append(o.lateMs, ms(max(0, issued.Sub(due))))
}
