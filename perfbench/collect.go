package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"optrr/internal/dataset"
	"optrr/internal/obs"
	"optrr/internal/randx"
	"optrr/internal/rr"
	"optrr/internal/rrclient"
	"optrr/internal/rrserver"
)

// The collection workload deploys a scheme on rrserver, mounts it with
// obs.ServeMux on loopback and drives it with one rrclient SDK client per
// worker, nproc workers, each client on its own single HTTP connection.
const (
	batchSize = 1000
	// poolBatches is how many distinct batches of private values each
	// worker draws before the measurement and then cycles through.
	poolBatches = 64
	// serveZ is the confidence quantile the deployments serve; the output
	// checks hold estimates to these deliberately wide half-widths.
	serveZ = 4.4
	// snapshotEvery is the snapshot period. The loop starts with the
	// measurement, so in a 30 s window it ticks five times on every run.
	snapshotEvery = 5 * time.Second
	// readMargin is the target margin of the read, GET /v1/estimate?margin=.
	readMargin = 0.01
	// warmShare, openShare and closedShare split the measurement window
	// between an unmeasured warm-up, the fixed-rate phase and the capacity
	// phase. After the warm-up the two phases alternate in collectCycles
	// rounds, so each samples the whole window and a neighbour's burst of
	// load on a shared box lands in both, not wholly in one.
	warmShare     = 0.1
	openShare     = 0.6
	closedShare   = 0.3
	collectCycles = 6
	// rateSlice is the slice width the closed-loop rate is read over.
	rateSlice = 250 * time.Millisecond
)

// deployment is the collection scenario: the scheme, the generator of the
// respondents' private values and the offered load.
type deployment struct {
	// build constructs the scheme to deploy.
	build func(seed uint64) (rr.Scheme, error)
	// prior is the generator's true distribution over the domain.
	prior []float64
	// rate is the open loop's offered load in batches per second, an
	// absolute number pinned well below capacity: about a tenth of what the
	// closed loop sustains on a busy 2-CPU box at this benchmark's first
	// commit. The workers also issue the reads, and a shared box loses up
	// to half its capacity at times; nearer saturation the latency measures
	// the backlog rather than the service.
	rate float64
	// setups is how many times a run builds the deployment; setup_s is
	// the median.
	setups int
	// reads is how many reads the open-loop phase interleaves with its
	// batches, one every K batches.
	reads int
}

// denseDeployment is a Warner matrix (n = 10, p = 0.75) over the Figure 4
// normal prior.
func denseDeployment() *deployment {
	return &deployment{
		build:  func(uint64) (rr.Scheme, error) { return rr.Warner(optCategories, 0.75) },
		prior:  dataset.DefaultNormal(optCategories).Prior(optCategories),
		rate:   400,
		setups: 9,
		reads:  240,
	}
}

// drawValues draws n private values from prior with worker w's stream.
func drawValues(prior []float64, seed uint64, w, n int) ([]int, error) {
	a, err := randx.NewAlias(prior)
	if err != nil {
		return nil, err
	}
	rng := randx.Stream(seed, uint64(w))
	vals := make([]int, n)
	for i := range vals {
		vals[i] = a.Draw(rng)
	}
	return vals, nil
}

// values holds every worker's private values, drawn before anything is
// timed, and counts how often each batch was accepted, so the output checks
// compare the estimates with the exact distribution of what was reported.
type values struct {
	pools [][]int // pools[w] is worker w's poolBatches batches, back to back
	sent  [][]int // sent[w][k] counts accepted sends of worker w's batch k
}

func drawPools(prior []float64, o options, workers int) (*values, error) {
	v := &values{pools: make([][]int, workers), sent: make([][]int, workers)}
	for w := range v.pools {
		var err error
		if v.pools[w], err = drawValues(prior, o.seed, w, poolBatches*batchSize); err != nil {
			return nil, err
		}
		v.sent[w] = make([]int, poolBatches)
	}
	return v, nil
}

// batch returns worker w's k-th batch, cycling through its pool.
func (v *values) batch(w, k int) []int {
	lo := (k % poolBatches) * batchSize
	return v.pools[w][lo : lo+batchSize]
}

// accepted records that worker w's k-th batch landed; only worker w calls
// it for w.
func (v *values) accepted(w, k int) { v.sent[w][k%poolBatches]++ }

// truth is the distribution of every accepted private value over the
// domain.
func (v *values) truth(domain int) []float64 {
	counts := make([]float64, domain)
	total := 0.0
	for w, pool := range v.pools {
		for k, n := range v.sent[w] {
			for _, x := range pool[k*batchSize : (k+1)*batchSize] {
				counts[x] += float64(n)
			}
			total += float64(n * batchSize)
		}
	}
	for x := range counts {
		counts[x] /= total
	}
	return counts
}

// service is one running deployment and its clients.
type service struct {
	srv        *rrserver.Server
	http       *obs.Server
	reg        *obs.Registry
	clients    []*rrclient.Client
	transports []*http.Transport
	stop       context.CancelFunc
	done       chan error
	closeOnce  sync.Once
	closeErr   error
}

// startService builds the scheme, starts rrserver on loopback, has every
// client adopt the scheme and lands client 0's first batch: the set-up a
// deployment pays before it collects. dir receives the snapshots.
func startService(d *deployment, o options, workers int, dir string, first []int) (*service, time.Duration, error) {
	start := time.Now()
	scheme, err := d.build(o.seed)
	if err != nil {
		return nil, 0, err
	}
	s := &service{reg: obs.NewRegistry(), done: make(chan error, 1)}
	s.srv, err = rrserver.New(rrserver.Config{
		Scheme:        scheme,
		Z:             serveZ,
		SnapshotPath:  filepath.Join(dir, "snapshot.json"),
		SnapshotEvery: snapshotEvery,
		Registry:      s.reg,
		Logf:          func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	})
	if err != nil {
		return nil, 0, err
	}
	if s.http, err = obs.ServeMux("127.0.0.1:0", s.reg, s.srv.Register); err != nil {
		return nil, 0, err
	}
	base := "http://" + s.http.Addr()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		c := rrclient.New(base,
			rrclient.WithHTTPClient(&http.Client{Transport: tr, Timeout: time.Minute}),
			rrclient.WithSeed(randx.StreamSeed(o.seed^0x5eed, uint64(w))))
		s.transports = append(s.transports, tr)
		s.clients = append(s.clients, c)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = c.DeployedScheme(context.Background())
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, 0, err
		}
	}
	if _, err := s.clients[0].ReportValues(context.Background(), first); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// snapshotLoop starts the server's periodic snapshots. A run starts them
// when its measurement begins, so every run's phases see the snapshots at
// the same offsets however long its set-up took.
func (s *service) snapshotLoop() {
	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	go func() { s.done <- s.srv.Run(ctx) }()
}

// close stops the listener, then the snapshot loop if it runs (which writes
// a final snapshot), and waits for both. Later calls return the first
// call's error.
func (s *service) close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.http.Close()
		if s.stop != nil {
			s.stop()
			if err := <-s.done; s.closeErr == nil {
				s.closeErr = err
			}
		}
		for _, tr := range s.transports {
			tr.CloseIdleConnections()
		}
	})
	return s.closeErr
}

// setupService builds the deployment d.setups times, keeps the last one and
// returns the set-up times in seconds.
func setupService(d *deployment, o options, workers int, dir string, first []int) (*service, []float64, error) {
	n := d.setups
	if o.tiny {
		n = 1
	}
	var times []float64
	var svc *service
	for k := 0; k < n; k++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return nil, nil, err
			}
			svc = nil
			runtime.GC()
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", k))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, nil, err
		}
		s, took, err := startService(d, o, workers, sub, first)
		if err != nil {
			return nil, nil, err
		}
		svc = s
		times = append(times, took.Seconds())
	}
	return svc, times, nil
}

// openPhase is the outcome of the fixed-rate phase.
type openPhase struct {
	batches  []sent
	readMs   []float64
	accepted int
	elapsed  time.Duration
}

// extend adds q's batches, reads and time to p's.
func (p *openPhase) extend(q openPhase) {
	p.batches = append(p.batches, q.batches...)
	p.readMs = append(p.readMs, q.readMs...)
	p.accepted += q.accepted
	p.elapsed += q.elapsed
}

// runOpenLoop offers d.rate batches per second for the window, with reads
// spread evenly among them, one after every K-th batch.
func runOpenLoop(d *deployment, rep *report, svc *service, vals *values, window time.Duration, reads int) openPhase {
	workers := len(svc.clients)
	batches := int(d.rate * window.Seconds())
	if batches < workers {
		batches = workers
	}
	every := batches / max(1, reads)
	if every < 1 {
		every = 1
	}
	loop := openLoop{
		start:   time.Now().Add(10 * time.Millisecond),
		period:  time.Duration(float64(time.Second) / d.rate),
		batches: batches,
		workers: workers,
	}
	var (
		mu       sync.Mutex
		readMs   []float64
		accepted int
	)
	ctx := context.Background()
	start := time.Now()
	timings := loop.run(func(w, i int) {
		c := svc.clients[w]
		_, err := c.ReportValues(ctx, vals.batch(w, i/workers))
		if rep.op(err) {
			vals.accepted(w, i/workers)
			mu.Lock()
			accepted += batchSize
			mu.Unlock()
		}
		if i%every == every-1 {
			t := time.Now()
			_, err := c.Estimate(ctx, readMargin)
			took := ms(time.Since(t))
			if rep.op(err) {
				mu.Lock()
				readMs = append(readMs, took)
				mu.Unlock()
			}
		}
	})
	return openPhase{batches: timings, readMs: readMs, accepted: accepted, elapsed: time.Since(start)}
}

// runClosedLoop sends batches back to back on every worker for the window
// and returns the accepted batches counted per rateSlice.
func runClosedLoop(rep *report, svc *service, vals *values, window time.Duration) *sliceCounter {
	ctx := context.Background()
	next := make([]int, len(svc.clients))
	until := time.Now().Add(window)
	done := closedLoop(len(svc.clients), until, rateSlice, func(w int) bool {
		k := next[w]
		next[w]++
		if _, err := svc.clients[w].ReportValues(ctx, vals.batch(w, k)); !rep.op(err) {
			return false
		}
		vals.accepted(w, k)
		return true
	})
	return done
}

// runCollect measures a collection workload end to end: set-up, the
// open-loop phase (report and read latency at a fixed offered load), the
// closed-loop phase (capacity) and the final output checks.
func runCollect(d *deployment, o options) (*report, error) {
	rep := newReport()
	workers := runtime.NumCPU()
	vals, err := drawPools(d.prior, o, workers)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	svc, setups, err := setupService(d, o, workers, dir, vals.batch(0, 0))
	if err != nil {
		return nil, err
	}
	defer svc.close()
	rep.op(nil) // the set-up's first batch was accepted
	vals.accepted(0, 0)

	// Drop the set-up's garbage and bring the heap and the connections to
	// their serving steady state before anything is measured.
	runtime.GC()
	svc.snapshotLoop()
	runClosedLoop(rep, svc, vals, o.window(warmShare))
	var (
		open   openPhase
		closed *sliceCounter
	)
	for c := 0; c < collectCycles; c++ {
		open.extend(runOpenLoop(d, rep, svc, vals, o.window(openShare/collectCycles), d.reads/collectCycles))
		done := runClosedLoop(rep, svc, vals, o.window(closedShare/collectCycles))
		if closed == nil {
			closed = done
		} else {
			closed.extend(done)
		}
	}
	rps, closedReports := batchSize*closed.rate(), batchSize*closed.total

	var lat, late []float64
	for _, b := range open.batches {
		lat = append(lat, ms(b.latency))
		late = append(late, ms(b.late))
	}
	rep.set("setup_s", median(setups))
	rep.set("throughput_per_s", rps)
	rep.set("latency_p50_ms", quantiles(rep, o, "report latency", append([]float64(nil), lat...), 0.50)[0])
	rep.set("read_p50_ms", quantiles(rep, o, "read latency", append([]float64(nil), open.readMs...), 0.50)[0])
	rep.set("quality", verifyDense(context.Background(), rep, svc.clients[0], vals.truth(len(d.prior))))
	if err := setPeakRSS(rep); err != nil {
		return nil, err
	}
	if err := svc.close(); err != nil {
		return nil, err
	}
	rep.notef("ingest_rps %.6g reports/s closed loop (%d reports, %d workers)", rps, closedReports, workers)
	rep.notef("open loop offered %.6g batches/s of %d, accepted %.6g reports/s; %d reads of %d batches",
		d.rate, batchSize, float64(open.accepted)/open.elapsed.Seconds(), len(open.readMs), len(open.batches))
	rep.notef("report latency ms %s; read latency ms %s; loadgen lateness ms %s",
		tailNote(lat), tailNote(open.readMs), tailNote(late))
	return rep, nil
}

// verifyDense holds the final full-domain estimate to the served
// half-widths around the distribution of the values actually sent; quality
// is one minus the total variation distance between the two.
func verifyDense(ctx context.Context, rep *report, c *rrclient.Client, truth []float64) float64 {
	est, err := c.Estimate(ctx, 0)
	if !rep.op(err) {
		return 0
	}
	if !rep.check(len(est.Estimate) == len(truth) && len(est.HalfWidth) == len(truth),
		"estimate has %d values and %d half-widths for %d categories", len(est.Estimate), len(est.HalfWidth), len(truth)) {
		return 0
	}
	tv := 0.0
	for x, p := range truth {
		diff := math.Abs(est.Estimate[x] - p)
		tv += diff / 2
		rep.check(diff <= est.HalfWidth[x], "category %d: estimate %.5f is %.5f from the true %.5f, beyond the half-width %.5f",
			x, est.Estimate[x], diff, p, est.HalfWidth[x])
	}
	return 1 - tv
}
