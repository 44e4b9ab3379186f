package main

import (
	"runtime"
	"sync"
	"time"
)

// openLoop is a fixed-rate schedule: batch i is due at start + i·period, and
// worker w of workers sends batches w, w+workers, w+2·workers, ... in order.
// A worker waits for a batch's due time, or sends at once when it is already
// behind. A batch's latency counts from its due time, not from when it was
// sent, so a server that stalls shows up as latency instead of as a lower
// offered rate.
type openLoop struct {
	start   time.Time
	period  time.Duration
	batches int
	workers int
}

// clock is the time source of the open loop, replaceable in tests.
type clock interface {
	Now() time.Time
	// SleepUntil returns at t or as soon after as it can.
	SleepUntil(t time.Time)
}

// spinWindow is how long before a due time wallClock stops sleeping and
// yields in a loop instead. An idle Go process wakes from a sleep up to a
// millisecond late, which would add the generator's own lateness to every
// latency.
const spinWindow = 1500 * time.Microsecond

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// sent is the timing of one scheduled batch.
type sent struct {
	// late is how long after its due time the batch was sent.
	late time.Duration
	// latency is how long after its due time the batch completed.
	latency time.Duration
}

func (l openLoop) due(i int) time.Time { return l.start.Add(time.Duration(i) * l.period) }

// drive sends worker w's share of the schedule and returns the timing of each
// of its batches, in schedule order.
func (l openLoop) drive(w int, clk clock, send func(i int)) []sent {
	var out []sent
	for i := w; i < l.batches; i += l.workers {
		due := l.due(i)
		if clk.Now().Before(due) {
			clk.SleepUntil(due)
		}
		begin := clk.Now()
		send(i)
		out = append(out, sent{late: begin.Sub(due), latency: clk.Now().Sub(due)})
	}
	return out
}

// run drives every worker on its own goroutine and returns the timing of
// every batch, in schedule order.
func (l openLoop) run(send func(w, i int)) []sent {
	all := make([]sent, l.batches)
	var wg sync.WaitGroup
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k, s := range l.drive(w, wallClock{}, func(i int) { send(w, i) }) {
				all[w+k*l.workers] = s
			}
		}(w)
	}
	wg.Wait()
	return all
}

// closedLoop runs send back to back on every worker until the deadline and
// returns the successful sends counted into slices of width step from the
// start.
func closedLoop(workers int, until time.Time, step time.Duration, send func(w int) bool) *sliceCounter {
	start := time.Now()
	per := make([]*sliceCounter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		per[w] = newSliceCounter(start, until, step)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(until) {
				if send(w) {
					per[w].add(time.Now())
				}
			}
		}(w)
	}
	wg.Wait()
	for _, c := range per[1:] {
		per[0].merge(c)
	}
	return per[0]
}
