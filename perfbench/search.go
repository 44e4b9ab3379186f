package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"optrr"
	"optrr/internal/core"
	"optrr/internal/dataset"
	"optrr/internal/metrics"
	"optrr/internal/pareto"
	"optrr/internal/randx"
)

// The search workloads. Both repeat the search for the measurement window,
// each repeat at its own sub-seed of --seed, and report medians across
// generations and repeats, so neither one slow stretch of a shared box nor
// one lucky seed decides a result.
const (
	// optimize: the paper's Figure 4 setting.
	optCategories  = 10
	optRecords     = 10000
	optDelta       = 0.8
	optGenerations = 3000
	// optRefUtility is the utility coordinate of the fixed hypervolume
	// reference point (privacy 0, utility optRefUtility); quality is the
	// share of the box [0, 1] × [0, optRefUtility] the front dominates. The
	// reference cuts off the front's steep high-privacy tail, so quality
	// weighs the part of the front a deployment picks from.
	optRefUtility = 2e-4

	// optimize-multi: three correlated, skewed attributes.
	multiRecords     = 10000
	multiDelta       = 0.5
	multiGenerations = 300
	// multiRefUtility plays the role of optRefUtility for the joint front.
	multiRefUtility = 1e-3

	minSearches = 3
	maxSearches = 200
	// readShare of the measurement window times reads of the fronts, in a
	// slot after every search, so reads and generations sample the same
	// stretch of a shared box. A read tabulates readLevels points of a front.
	// Reads take the first readFronts fronts of a run: a fixed number, so
	// the heap they hold, and peak_rss_mb with it, does not grow with the
	// number of searches a fast box fits in the window.
	readShare  = 0.2
	readLevels = 8
	readFronts = 5
	// blockGens is the run of consecutive generations throughput is read
	// over, as generations per second in the median block. Short blocks
	// keep a neighbour's CPU stall out of the median; a periodic cost that
	// recurs less often than every blockGens generations shows only in the
	// optimize_s note.
	blockGens = 10
)

var multiSizes = []int{5, 6, 8}

// genClock is a context that timestamps every Err poll. The optimizers poll
// their context once before any work and then once at the start of every
// generation (core.Config.Context documents the per-generation check), so
// the last G polls of a G-generation run mark the generation starts. This
// times generations from outside the optimizer at the cost of one clock
// read each, without the per-generation bookkeeping a Progress callback or
// recorder switches on.
type genClock struct {
	context.Context
	polls []time.Time
}

func newGenClock(gens int) *genClock {
	return &genClock{Context: context.Background(), polls: make([]time.Time, 0, gens+8)}
}

func (c *genClock) Err() error {
	c.polls = append(c.polls, time.Now())
	return nil
}

// searchRun is the timing of one search call.
type searchRun struct {
	setup  time.Duration // call until the first generation starts
	wall   time.Duration // call until return
	blocks []float64     // seconds per block of blockSize(gens) generations
}

// blockSize is the block length throughput is read over; a search of gens
// generations times gens-1 of them.
func blockSize(gens int) int { return max(1, min(blockGens, gens-1)) }

// timeSearch runs one search under a fresh genClock and adds its
// generation wall times, all but the last, in ms to genMs.
func timeSearch(gens int, genMs *reservoir, search func(ctx context.Context) error) (searchRun, error) {
	clk := newGenClock(gens)
	start := time.Now()
	if err := search(clk); err != nil {
		return searchRun{}, err
	}
	end := time.Now()
	p := clk.polls
	if len(p) < gens || gens < 1 {
		return searchRun{}, fmt.Errorf("search polled its context %d times for %d generations", len(p), gens)
	}
	p = p[len(p)-gens:]
	run := searchRun{setup: p[0].Sub(start), wall: end.Sub(start)}
	block := blockSize(gens)
	for lo := 1; lo < len(p); lo++ {
		genMs.add(ms(p[lo].Sub(p[lo-1])))
		if lo%block == 0 {
			run.blocks = append(run.blocks, p[lo].Sub(p[lo-block]).Seconds())
		}
	}
	return run, nil
}

// repeatSearch runs the search at least minSearches times and then for as
// long as another run and its read slot fit in the measurement window.
// Repeat r runs at subSeed(o.seed, r); the search adds its front to reads,
// and after it reads run for readShare/(1-readShare) of its wall time.
func repeatSearch(o options, gens int, genMs *reservoir, reads *frontReads, search func(ctx context.Context, seed uint64) error) ([]searchRun, error) {
	deadline := time.Now().Add(o.window(1))
	slot := func(wall time.Duration) time.Duration {
		return time.Duration(float64(wall) * readShare / (1 - readShare))
	}
	var runs []searchRun
	for len(runs) < maxSearches {
		if last := len(runs) - 1; last >= minSearches-1 && time.Until(deadline) < runs[last].wall+slot(runs[last].wall) {
			break
		}
		if o.tiny && len(runs) >= 1 {
			break
		}
		seed := subSeed(o.seed, len(runs))
		r, err := timeSearch(gens, genMs, func(ctx context.Context) error { return search(ctx, seed) })
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		reads.run(slot(r.wall))
	}
	return runs, nil
}

func subSeed(seed uint64, r int) uint64 { return randx.StreamSeed(seed, uint64(r)) }

// searchMetrics fills the timing metrics common to both search workloads:
// set-up, generations per second over the median block of consecutive
// generations, and per-generation latency.
func searchMetrics(rep *report, o options, inputs time.Duration, gens int, runs []searchRun, genMs *reservoir) {
	var setups, walls, blocks []float64
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		blocks = append(blocks, r.blocks...)
	}
	rep.set("setup_s", inputs.Seconds()+median(setups))
	rep.set("throughput_per_s", float64(blockSize(gens))/median(blocks))
	rep.set("latency_p50_ms", quantiles(rep, o, "generation latency", append([]float64(nil), genMs.vals...), 0.50)[0])
	rep.notef("optimize_s %.6g s (median of %d searches of %d generations); generation ms of %d sampled %s",
		median(walls), len(runs), gens, genMs.seen, tailNote(genMs.vals))
}

func optimizeProblem(o options) optrr.Problem {
	gens := optGenerations
	if o.tiny {
		gens = 300
	}
	return optrr.Problem{
		Prior:       dataset.DefaultNormal(optCategories).Prior(optCategories),
		Records:     optRecords,
		Delta:       optDelta,
		Seed:        o.seed,
		Generations: gens,
	}
}

// runOptimize is the paper's single-attribute search.
func runOptimize(o options) (*report, error) {
	rep := newReport()
	p := optimizeProblem(o)
	inputs := time.Since(processStart)
	var (
		res   *optrr.Result
		hvs   []float64
		genMs = newReservoir(o.seed)
		reads = &frontReads{rep: rep, delta: p.Delta, ms: newReservoir(o.seed + 1)}
	)
	runs, err := repeatSearch(o, p.Generations, genMs, reads, func(ctx context.Context, seed uint64) error {
		p.Seed = seed
		r, err := optrr.OptimizeContext(ctx, p)
		if err != nil {
			return err
		}
		res = r
		hvs = append(hvs, pareto.Hypervolume(r.Front, 0, optRefUtility))
		if len(reads.fronts) == readFronts {
			return nil
		}
		mats := r.Matrices()
		reads.fronts = append(reads.fronts, readFront{pts: r.Front, score: func(i int) (float64, error) {
			ev, err := optrr.Evaluate(mats[i], p.Prior, p.Records)
			return ev.MaxPosterior, err
		}})
		return nil
	})
	if err != nil {
		return nil, err
	}
	searchMetrics(rep, o, inputs, p.Generations, runs, genMs)

	mats := res.Matrices()
	tuples := make([][]*optrr.Matrix, len(mats))
	for i, m := range mats {
		tuples[i] = []*optrr.Matrix{m}
	}
	checkFront(rep, res.Front, tuples, p.Delta, hvs[len(hvs)-1], func(i int) (float64, error) {
		return optrr.MaxPosterior(mats[i], p.Prior)
	})
	rep.set("quality", median(hvs)/optRefUtility)

	reads.report(o)
	return rep, setPeakRSS(rep)
}

// multiJoint is the optimize-multi world over multiSizes: a joint whose mass
// decays with the spread between the attributes' (range-scaled) values, so
// it is not a product of marginals, tilted toward low values on every
// attribute so it is skewed too.
func multiJoint() []float64 {
	total := 1
	for _, n := range multiSizes {
		total *= n
	}
	joint := make([]float64, total)
	rec := make([]int, len(multiSizes))
	var sum float64
	for idx := range joint {
		v := idx
		for d := len(multiSizes) - 1; d >= 0; d-- {
			rec[d] = v % multiSizes[d]
			v /= multiSizes[d]
		}
		lo, hi, tilt := 1.0, 0.0, 1.0
		for d, n := range multiSizes {
			f := float64(rec[d]) / float64(n-1)
			lo, hi = math.Min(lo, f), math.Max(hi, f)
			tilt *= 1 / (1 + f)
		}
		joint[idx] = tilt / (1 + 8*(hi-lo))
		sum += joint[idx]
	}
	for i := range joint {
		joint[i] /= sum
	}
	return joint
}

func multiConfig(o options) core.MultiConfig {
	gens := multiGenerations
	if o.tiny {
		gens = 5
	}
	return core.MultiConfig{
		Joint:       multiJoint(),
		Sizes:       multiSizes,
		Records:     multiRecords,
		Delta:       multiDelta,
		Seed:        o.seed,
		Generations: gens,
	}
}

// runOptimizeMulti is the Kronecker-factored three-attribute search. It
// calls core.OptimizeMulti, the driver optrr.OptimizeMulti wraps, because
// only the driver's config carries the context the generations are timed
// through; the wrapper adds nothing but a sort of the front.
func runOptimizeMulti(o options) (*report, error) {
	rep := newReport()
	cfg := multiConfig(o)
	inputs := time.Since(processStart)
	var (
		res   core.MultiResult
		hvs   []float64
		genMs = newReservoir(o.seed)
		reads = &frontReads{rep: rep, delta: cfg.Delta, ms: newReservoir(o.seed + 1)}
	)
	runs, err := repeatSearch(o, cfg.Generations, genMs, reads, func(ctx context.Context, seed uint64) error {
		c := cfg
		c.Context = ctx
		c.Seed = seed
		r, err := core.OptimizeMulti(c)
		if err != nil {
			return err
		}
		res = r
		pts := multiPoints(r)
		hvs = append(hvs, pareto.Hypervolume(pts, 0, multiRefUtility))
		if len(reads.fronts) == readFronts {
			return nil
		}
		tuples := make([][]*optrr.Matrix, len(r.Front))
		for i, ind := range r.Front {
			if tuples[i], err = ind.Matrices(); err != nil {
				return err
			}
		}
		reads.fronts = append(reads.fronts, readFront{pts: pts, score: func(i int) (float64, error) {
			ev, err := metrics.JointEvaluate(tuples[i], cfg.Joint, cfg.Records)
			return ev.MaxPosterior, err
		}})
		return nil
	})
	if err != nil {
		return nil, err
	}
	searchMetrics(rep, o, inputs, cfg.Generations, runs, genMs)

	pts := multiPoints(res)
	tuples := make([][]*optrr.Matrix, len(res.Front))
	for i, ind := range res.Front {
		if tuples[i], err = ind.Matrices(); err != nil {
			return nil, err
		}
	}
	checkFront(rep, pts, tuples, cfg.Delta, hvs[len(hvs)-1], func(i int) (float64, error) {
		return optrr.JointMaxPosterior(tuples[i], cfg.Joint)
	})
	rep.set("quality", median(hvs)/multiRefUtility)

	reads.report(o)
	return rep, setPeakRSS(rep)
}

func multiPoints(r core.MultiResult) []pareto.Point {
	pts := make([]pareto.Point, len(r.Front))
	for i, ind := range r.Front {
		pts[i] = ind.Point()
	}
	return pts
}

// readFront is one search's front as a read sees it: the points, and score,
// which re-evaluates member i and returns its max posterior.
type readFront struct {
	pts   []pareto.Point
	score func(i int) (float64, error)
}

// frontReads times the analyst's read of a front: tabulating the trade-off
// at readLevels privacy levels spread evenly over the front, each picking
// the best-utility member that offers the level (the rule of
// Result.MatrixWithPrivacyAtLeast) and re-scoring it. Successive reads take
// the fronts kept so far in turn, so no single seed's front decides the
// figure.
type frontReads struct {
	rep    *report
	delta  float64
	fronts []readFront
	next   int        // the front the next read takes, modulo len(fronts)
	ms     *reservoir // timed read latencies
}

func (r *frontReads) read() {
	f := r.fronts[r.next%len(r.fronts)]
	r.next++
	lo, hi := pareto.PrivacyRange(f.pts)
	for k := 0; k < readLevels; k++ {
		level := math.Min(hi, lo+(hi-lo)*float64(k)/(readLevels-1))
		best := -1
		for i, pt := range f.pts {
			if pt.Privacy >= level && (best == -1 || pt.Utility < f.pts[best].Utility) {
				best = i
			}
		}
		if !r.rep.check(best >= 0, "no front member offers privacy %.4f inside the front's range", level) {
			continue
		}
		mp, err := f.score(best)
		if r.rep.check(err == nil, "re-scoring front member %d: %v", best, err) {
			r.rep.check(mp <= r.delta+1e-9, "front member %d has max posterior %.6f > δ", best, mp)
		}
	}
}

// run reads for d: untimed for the first tenth, which re-warms the caches
// the search used, and timed for the rest.
func (r *frontReads) run(d time.Duration) {
	for until := time.Now().Add(d / 10); time.Now().Before(until); {
		r.read()
	}
	for until := time.Now().Add(d - d/10); time.Now().Before(until); {
		start := time.Now()
		r.read()
		r.ms.add(ms(time.Since(start)))
	}
}

// report tops the timed reads up to 20, the fewest a median needs (only a
// test-sized run falls short), and sets read_p50_ms.
func (r *frontReads) report(o options) {
	for r.ms.seen < 20 {
		start := time.Now()
		r.read()
		r.ms.add(ms(time.Since(start)))
	}
	r.rep.set("read_p50_ms", quantiles(r.rep, o, "read latency", append([]float64(nil), r.ms.vals...), 0.50)[0])
	r.rep.notef("read ms of %d sampled %s", r.ms.seen, tailNote(r.ms.vals))
}

func setPeakRSS(rep *report) error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", mb)
	return nil
}

// checkFront verifies a search's output: every matrix is column-stochastic,
// every member meets the posterior bound δ, no member dominates another and
// the front has positive hypervolume hv.
func checkFront(rep *report, pts []pareto.Point, tuples [][]*optrr.Matrix, delta, hv float64, maxPosterior func(i int) (float64, error)) {
	rep.check(len(pts) > 0 && len(pts) == len(tuples), "front has %d points for %d matrix tuples", len(pts), len(tuples))
	for i, t := range tuples {
		for _, m := range t {
			rep.check(columnStochastic(m), "front member %d has a matrix that is not column-stochastic", i)
		}
		mp, err := maxPosterior(i)
		rep.check(err == nil && mp <= delta+1e-9, "front member %d: max posterior %.6f (δ %.3f), err %v", i, mp, delta, err)
	}
	for i, a := range pts {
		for j, b := range pts {
			if i != j && dominates(a, b) {
				rep.check(false, "front member %d dominates member %d", i, j)
			}
		}
	}
	rep.check(hv > 0, "front hypervolume %v is not positive", hv)
}

// dominates reports whether a is at least as private and as accurate as b
// and strictly better on one of the two.
func dominates(a, b pareto.Point) bool {
	return a.Privacy >= b.Privacy && a.Utility <= b.Utility && (a.Privacy > b.Privacy || a.Utility < b.Utility)
}

// columnStochastic reports whether every column of m is a probability
// distribution.
func columnStochastic(m *optrr.Matrix) bool {
	for j := 0; j < m.N(); j++ {
		sum := 0.0
		for _, v := range m.Column(j) {
			if v < -1e-12 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
	}
	return true
}
