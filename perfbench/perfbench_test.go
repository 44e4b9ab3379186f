package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{20, 0.50, 10, true},    // rank 10, ten beyond
		{19, 0.50, 10, false},   // rank 10, nine beyond
		{100, 0.90, 90, true},   // rank 90, ten beyond
		{99, 0.90, 90, false},   // rank ⌈89.1⌉ = 90, nine beyond
		{1000, 0.99, 990, true}, // 0.99·1000 must not round up to rank 991
		{999, 0.99, 990, false},
		{1, 1, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

// fakeClock advances only when the code under test sleeps or sends.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time         { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) { c.now = t }

func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	loop := openLoop{start: t0, period: 10 * time.Millisecond, batches: 7, workers: 2}
	if got := loop.due(5); !got.Equal(t0.Add(50 * time.Millisecond)) {
		t.Fatalf("due(5) = %v, want start+50ms", got.Sub(t0))
	}

	// Worker 1 owns batches 1, 3, 5 (due at 10, 30, 50 ms). A 5 ms
	// service time fits in its 20 ms slot: never late, latency = service.
	clk := &fakeClock{now: t0}
	var order []int
	got := loop.drive(1, clk, func(i int) {
		order = append(order, i)
		clk.now = clk.now.Add(5 * time.Millisecond)
	})
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 5 {
		t.Fatalf("worker 1 sent batches %v, want [1 3 5]", order)
	}
	for k, s := range got {
		if s.late != 0 || s.latency != 5*time.Millisecond {
			t.Errorf("batch %d: late %v latency %v, want 0 and 5ms", order[k], s.late, s.latency)
		}
	}

	// A 35 ms service time overruns the 20 ms slot: each batch is sent as
	// soon as the previous one ends, 15 ms later than the one before, and
	// its latency still counts from the due time.
	clk = &fakeClock{now: t0}
	got = loop.drive(0, clk, func(int) { clk.now = clk.now.Add(35 * time.Millisecond) })
	wantLate := []time.Duration{0, 15 * time.Millisecond, 30 * time.Millisecond, 45 * time.Millisecond}
	if len(got) != len(wantLate) {
		t.Fatalf("worker 0 sent %d batches, want 4", len(got))
	}
	for k, s := range got {
		if s.late != wantLate[k] || s.latency != wantLate[k]+35*time.Millisecond {
			t.Errorf("batch %d: late %v latency %v, want %v and %v", 2*k, s.late, s.latency, wantLate[k], wantLate[k]+35*time.Millisecond)
		}
	}
}

func TestSliceRate(t *testing.T) {
	start := time.Unix(0, 0)
	done := newSliceCounter(start, start.Add(400*time.Millisecond), 100*time.Millisecond)
	other := newSliceCounter(start, start.Add(400*time.Millisecond), 100*time.Millisecond)
	// 10 events in each of four 100 ms slices, plus a burst of 50 in the
	// third, split between two counters: the median slice still completes
	// 10, i.e. 100 per second.
	for slice := 0; slice < 4; slice++ {
		n := 10
		if slice == 2 {
			n = 60
		}
		for i := 0; i < n; i++ {
			c := done
			if i%2 == 1 {
				c = other
			}
			c.add(start.Add(time.Duration(slice)*100*time.Millisecond + time.Duration(i)*time.Millisecond))
		}
	}
	done.merge(other)
	// A later 100 ms slice with 10 events, appended: still 100 per second.
	later := newSliceCounter(start, start.Add(100*time.Millisecond), 100*time.Millisecond)
	for i := 0; i < 10; i++ {
		later.add(start)
	}
	done.extend(later)
	if got := done.rate(); got != 100 {
		t.Errorf("rate = %g, want 100", got)
	}
	if done.total != 100 || len(done.counts) != 5 {
		t.Errorf("total = %d over %d slices, want 100 over 5", done.total, len(done.counts))
	}
}

func TestReservoir(t *testing.T) {
	for _, n := range []int{reservoirCap / 2, 10 * reservoirCap} {
		r := newReservoir(1)
		for i := 0; i < n; i++ {
			r.add(float64(i))
		}
		if want := min(n, reservoirCap); len(r.vals) != want || r.seen != n {
			t.Fatalf("n=%d: kept %d of %d seen, want %d of %d", n, len(r.vals), r.seen, want, n)
		}
		// A uniform sample of 0..n-1 has its median near n/2.
		if m := median(r.vals); math.Abs(m/float64(n)-0.5) > 0.02 {
			t.Errorf("n=%d: sample median %g, want about %d", n, m, n/2)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the program and the benchmark
// definition in lockstep: the same workloads, and the same metric names,
// units and directions in the same order.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what      string
		json, bin []spec
	}{{"end_to_end", def.EndToEnd, endToEnd}, {"per_layer", def.PerLayer, perLayer}} {
		if len(c.json) != len(c.bin) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.what, len(c.json), len(c.bin))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.bin[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", c.what, i, c.json[i], c.bin[i])
			}
		}
	}
}

// TestSmoke runs every workload at a test-sized budget, untraced and traced,
// and requires every output check to pass and every declared metric to be
// printed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload and builds a 100k-category sketch")
	}
	o := options{seed: 3, seconds: 1, tiny: true}
	for _, w := range workloads {
		rep, err := w.run(o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		res, err := finish(rep, endToEnd)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if _, err := json.Marshal(res); err != nil {
			t.Errorf("%s: result does not encode: %v", w.name, err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, rep.failed, rep.attempted, rep.failures)
		}
	}
	rep, err := traceRun(o)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	res, err := finish(rep, perLayer)
	if err != nil {
		t.Errorf("traced: %v", err)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("traced result does not encode: %v", err)
	}
	if rep.failed != 0 {
		t.Errorf("traced: %d of %d operations failed: %v", rep.failed, rep.attempted, rep.failures)
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"},
		{"--workload", "optimize", "--seconds", "0"},
		{"--workload", "optimize", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v exited 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v printed a result: %s", args, out.String())
		}
	}
}
