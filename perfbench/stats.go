package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile's rank before
// the percentile is reported: a p99 needs at least 1000 samples, a p90 at
// least 100 and a median at least 20, so a tail is never read off a handful
// of points.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of ascending samples — the
// value at rank ⌈q·n⌉ — and whether at least minBeyond samples lie beyond
// that rank.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 || !(q > 0 && q <= 1) {
		return 0, false
	}
	// The small slack keeps q·n from rounding one rank up when q has no
	// exact binary form (0.99·1000 must be rank 990).
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median returns the middle of the samples (the mean of the middle two for
// an even count); zero for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantiles sorts the samples in place and reads off the requested
// percentiles. When a percentile has too few samples beyond it, the check is
// recorded as a failed operation unless the run is test-sized.
func quantiles(rep *report, o options, what string, samples []float64, qs ...float64) []float64 {
	sort.Float64s(samples)
	out := make([]float64, len(qs))
	for i, q := range qs {
		v, ok := percentile(samples, q)
		if !o.tiny {
			rep.check(ok, "%s: %d samples are too few for p%g", what, len(samples), 100*q)
		}
		out[i] = v
	}
	return out
}

// reservoirCap is how many samples a reservoir keeps: enough for a p99
// with minBeyond samples beyond it, and a fixed 128 KiB however many
// operations a run completes.
const reservoirCap = 1 << 14

// reservoir keeps a uniform random sample of at most reservoirCap of the
// values added (Vitter's Algorithm R), so the memory a run's latencies take,
// and peak_rss_mb with it, does not grow with how many operations a fast
// box fits in the window.
type reservoir struct {
	vals []float64
	seen int
	rng  *rand.Rand
}

func newReservoir(seed uint64) *reservoir {
	return &reservoir{vals: make([]float64, 0, reservoirCap), rng: rand.New(rand.NewPCG(seed, 0x5eed))}
}

func (r *reservoir) add(v float64) {
	r.seen++
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, v)
	} else if k := r.rng.IntN(r.seen); k < len(r.vals) {
		r.vals[k] = v
	}
}

// sliceCounter counts events into the whole slices of width step that fit
// in [start, end), so a rate can be read per slice without keeping a
// timestamp per event.
type sliceCounter struct {
	start  time.Time
	span   time.Duration // the time counted over
	step   time.Duration
	counts []float64
	total  int // every event added, in a slice or not
}

func newSliceCounter(start, end time.Time, step time.Duration) *sliceCounter {
	return &sliceCounter{start: start, span: end.Sub(start), step: step, counts: make([]float64, int(end.Sub(start)/step))}
}

func (c *sliceCounter) add(t time.Time) {
	c.total++
	if k := int(t.Sub(c.start) / c.step); k >= 0 && k < len(c.counts) {
		c.counts[k]++
	}
}

// merge adds o's counts, taken over the same slices, to c's.
func (c *sliceCounter) merge(o *sliceCounter) {
	c.total += o.total
	for k, n := range o.counts {
		c.counts[k] += n
	}
}

// extend appends the slices, events and time of o, counted over a later
// stretch of time, to c's.
func (c *sliceCounter) extend(o *sliceCounter) {
	c.counts = append(c.counts, o.counts...)
	c.total += o.total
	c.span += o.span
}

// rate returns the median over whole slices of the events per second
// completed in each; with fewer than two whole slices, the overall rate.
func (c *sliceCounter) rate() float64 {
	if len(c.counts) < 2 {
		return float64(c.total) / c.span.Seconds()
	}
	return median(c.counts) / c.step.Seconds()
}

// tailNote renders the pooled p90 and p99 of samples, with the sample
// count, for the human-readable notes; a percentile without ten samples
// beyond it reads n/a. The tails are printed, not gated: on a shared 2-CPU
// box they swing between runs by more than any useful bound.
func tailNote(samples []float64) string {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := fmt.Sprintf("n=%d", len(s))
	for _, q := range []float64{0.90, 0.99} {
		if v, ok := percentile(s, q); ok {
			out += fmt.Sprintf(" p%g=%.6g", 100*q, v)
		} else {
			out += fmt.Sprintf(" p%g=n/a", 100*q)
		}
	}
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeEach runs fn reps times and returns the median duration of one call.
func timeEach(reps int, fn func() error) (time.Duration, error) {
	samples := make([]float64, reps)
	for i := range samples {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples[i] = float64(time.Since(start))
	}
	return time.Duration(median(samples)), nil
}
