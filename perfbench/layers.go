package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"time"

	"optrr"
	"optrr/internal/collector"
	"optrr/internal/core"
	"optrr/internal/dataset"
	"optrr/internal/matrix"
	"optrr/internal/metrics"
	"optrr/internal/obs"
	"optrr/internal/pareto"
	"optrr/internal/randx"
	"optrr/internal/rr"
	"optrr/internal/rrapi"
	"optrr/internal/sketch"
)

// The traced run (--trace 1) measures each layer from outside: it times
// calls into the layer's public functions on the workload's inputs and reads
// the trace events and registry series the program already emits. Every
// traced run reports every layer, whichever workload it is for: the search
// layers on the optimize and optimize-multi inputs, the serving layers on
// the collect-dense deployment, and the sketch layers on the count-mean
// sketch scheme. All at the run's seed.
const (
	// phaseTolerance bounds how far the summed optimizer phases may fall
	// short of the traced search's wall time: the remainder is set-up,
	// per-generation bookkeeping and the recorder itself. Test-sized runs
	// are all set-up and skip the check.
	phaseTolerance = 0.25
	kernelReps     = 200
	replayBatches  = 200
	codecReps      = 3
)

func traceRun(o options) (*report, error) {
	rep := newReport()
	d := denseDeployment()
	steps := []func(*report, options) error{
		traceSearch,
		traceMulti,
		func(rep *report, o options) error { return traceServing(rep, o, d) },
		traceDenseQuery,
		traceSketch,
	}
	for _, step := range steps {
		if err := step(rep, o); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	return rep, nil
}

// traceSearch runs the optimize search untraced and with an in-memory
// recorder, sums the optimizer.generation phase timings and times the fused
// evaluation kernel on every front matrix.
func traceSearch(rep *report, o options) error {
	p := optimizeProblem(o)
	reps := 2
	if o.tiny {
		reps = 1
	}
	var (
		plain, traced []float64
		rec           *obs.MemoryRecorder
		res           *optrr.Result
		hvPlain       float64
	)
	for k := 0; k < reps; k++ {
		start := time.Now()
		r, err := optrr.Optimize(p)
		if err != nil {
			return err
		}
		plain = append(plain, time.Since(start).Seconds())
		hvPlain = pareto.Hypervolume(r.Front, 0, optRefUtility)

		rec = optrr.NewMemoryRecorder()
		tp := p
		tp.Recorder = rec
		start = time.Now()
		if res, err = optrr.Optimize(tp); err != nil {
			return err
		}
		traced = append(traced, time.Since(start).Seconds())
	}
	hv := pareto.Hypervolume(res.Front, 0, optRefUtility)
	rep.check(hv == hvPlain, "traced search reached hypervolume %v, untraced %v", hv, hvPlain)

	sum := map[string]float64{}
	gens := rec.Named("optimizer.generation")
	for _, ev := range gens {
		for k, v := range ev.Fields {
			if f, ok := number(v); ok {
				sum[k] += f
			}
		}
	}
	rep.check(len(gens) == p.Generations, "%d optimizer.generation events for %d generations", len(gens), p.Generations)
	evals := float64(res.Evaluations)
	rep.set("core.eval_ms", sum["eval_ms"])
	rep.set("core.select_ms", sum["select_ms"])
	rep.set("core.vary_ms", sum["vary_ms"])
	rep.set("core.omega_ms", sum["omega_ms"])
	rep.set("emoo.fitness_ms", sum["fitness_ms"])
	rep.set("emoo.truncate_ms", sum["truncate_ms"])
	rep.set("core.evals", evals)
	rep.set("core.repair_frac", sum["repairs"]/evals)
	rep.set("core.omega_improved_frac", sum["omega_improved"]/evals)
	wall := traced[len(traced)-1] * 1e3
	coverage := (sum["select_ms"] + sum["vary_ms"] + sum["eval_ms"] + sum["omega_ms"]) / wall
	rep.set("core.phase_coverage_frac", coverage)
	rep.check(o.tiny || coverage >= 1-phaseTolerance && coverage <= 1+1e-6,
		"optimizer phases sum to %.1f%% of the traced search's %.1f ms, outside the %.0f%% tolerance",
		100*coverage, wall, 100*phaseTolerance)
	rep.set("obs.trace_overhead_frac", median(traced)/median(plain)-1)
	rep.notef("optimize_s untraced %.6g s, traced %.6g s (medians of %d)", median(plain), median(traced), reps)

	ws := metrics.NewWorkspace()
	var per []float64
	for _, m := range res.Matrices() {
		d, err := timeEach(kernelReps, func() error {
			_, err := ws.Evaluate(m, p.Prior, p.Records)
			return err
		})
		if !rep.op(err) {
			continue
		}
		per = append(per, us(d))
	}
	rep.set("metrics.evaluate_us", median(per))
	return nil
}

// traceMulti runs the optimize-multi search once and times the factored
// joint evaluation and the Kronecker inverse on every front tuple. The
// multi driver takes no recorder, so its non-evaluation share is derived:
// one minus evaluations × per-evaluation time over workers × wall time.
func traceMulti(rep *report, o options) error {
	cfg := multiConfig(o)
	start := time.Now()
	res, err := core.OptimizeMulti(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	ws := metrics.NewJointWorkspace()
	inv := matrix.KronZeros(multiSizes)
	lu := matrix.NewLU()
	var evalUs, invUs []float64
	for _, ind := range res.Front {
		tuple, err := ind.Matrices()
		if err != nil {
			return err
		}
		factors := make([]*matrix.Dense, len(tuple))
		for i, m := range tuple {
			factors[i] = m.DenseView()
		}
		k, err := matrix.NewKron(factors...)
		if err != nil {
			return err
		}
		d, err := timeEach(kernelReps, func() error {
			_, err := ws.Evaluate(tuple, cfg.Joint, cfg.Records)
			return err
		})
		if rep.op(err) {
			evalUs = append(evalUs, us(d))
		}
		d, err = timeEach(kernelReps, func() error {
			if err := k.Reset(factors); err != nil {
				return err
			}
			return k.InverseInto(inv, lu)
		})
		if rep.op(err) {
			invUs = append(invUs, us(d))
		}
	}
	joint := median(evalUs)
	rep.set("metrics.joint_evaluate_us", joint)
	rep.set("matrix.kron_inverse_us", median(invUs))
	rep.set("core.multi_evals", float64(res.Evaluations))
	workers := float64(runtime.GOMAXPROCS(0))
	rep.set("core.multi_nonevaluate_frac", 1-float64(res.Evaluations)*joint/(workers*us(wall)))
	rep.notef("optimize-multi optimize_s %.6g s, %d evaluations", wall.Seconds(), res.Evaluations)
	return nil
}

// traceServing deploys d, runs its open-loop phase to read the allocation,
// GC and schedule-keeping figures, then replays each serving layer of
// ReportValues and handleBatch on the deployment's own scheme and values.
func traceServing(rep *report, o options, d *deployment) error {
	workers := runtime.NumCPU()
	vals, err := drawPools(d.prior, o, workers)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	svc, _, err := startService(d, o, workers, dir, vals.batch(0, 0))
	if err != nil {
		return err
	}
	defer svc.close()
	rep.op(nil)
	svc.snapshotLoop()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	open := runOpenLoop(d, rep, svc, vals, o.window(0.5), d.reads)
	runtime.ReadMemStats(&after)
	var late []float64
	for _, b := range open.batches {
		late = append(late, ms(b.late))
	}
	rep.set("loadgen.late_p90_ms", quantiles(rep, o, "send lateness", append([]float64(nil), late...), 0.90)[0])
	rep.notef("loadgen lateness ms %s", tailNote(late))
	rep.set("runtime.alloc_bytes_per_report", float64(after.TotalAlloc-before.TotalAlloc)/float64(open.accepted))
	rep.set("runtime.gc_cycles", float64(after.NumGC-before.NumGC))

	// Client side of ReportValues: disguise each value, then encode the
	// batch; server side of handleBatch: decode it.
	scheme := svc.srv.Scheme()
	disguised, disguiseUs, err := replayDisguise(scheme, vals, replayCount(o), o.seed)
	if err != nil {
		return err
	}
	rep.set("rrclient.disguise_us", disguiseUs)
	var encodeUs, decodeUs, bodyBytes []float64
	for _, out := range disguised {
		start := time.Now()
		body, err := json.Marshal(rrapi.BatchRequest{Reports: out})
		if err != nil {
			return err
		}
		encodeUs = append(encodeUs, us(time.Since(start)))
		start = time.Now()
		var req rrapi.BatchRequest
		err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		decodeUs = append(decodeUs, us(time.Since(start)))
		rep.check(err == nil && len(req.Reports) == len(out), "decoding a replayed batch: %v", err)
		bodyBytes = append(bodyBytes, float64(len(body)))
	}
	rep.set("rrapi.encode_us", median(encodeUs))
	rep.set("rrapi.body_bytes", median(bodyBytes))
	rep.set("rrserver.decode_us", median(decodeUs))

	// The handler time comes from the server's own rrserver.ingest_ns
	// histogram over exactly the replayed requests; the round trip is what
	// the client saw beyond it.
	hist := svc.reg.Histogram("rrserver.ingest_ns", nil)
	count0, sum0 := hist.Count(), hist.Sum()
	var client time.Duration
	for _, batch := range disguised {
		start := time.Now()
		err := svc.clients[0].ReportBatch(context.Background(), batch)
		client += time.Since(start)
		rep.op(err)
	}
	handler := (hist.Sum() - sum0) / float64(hist.Count()-count0) / 1e3
	rep.set("rrserver.handler_us", handler)
	rep.set("http.roundtrip_us", us(client)/float64(len(disguised))-handler)

	m := scheme.(*rr.Matrix)
	ing, plain := replayIngest(rep, disguised, collector.NewSharded(m, 0), collector.NewSharded(m, 0))
	rep.set("collector.ingest_us", ing)
	rep.set("collector.ingest_plain_us", plain)
	rep.set("obs.instrument_frac", ing/plain-1)

	snapMs, snapBytes, restoreMs := replaySnapshot(rep, svc.srv.Collector(), func(data []byte) error {
		_, err := collector.RestoreSharded(data, 0)
		return err
	})
	rep.set("collector.snapshot_ms", snapMs)
	rep.set("collector.snapshot_bytes", snapBytes)
	rep.set("collector.restore_ms", restoreMs)
	return svc.close()
}

func replayCount(o options) int {
	if o.tiny {
		return 10
	}
	return replayBatches
}

// replayDisguise disguises n of the pooled batches value by value, as
// ReportValues does, and returns them with the median µs per batch.
func replayDisguise(scheme rr.Scheme, vals *values, n int, seed uint64) ([][]int, float64, error) {
	rng := randx.New(seed)
	workers := len(vals.pools)
	out := make([][]int, n)
	times := make([]float64, n)
	for k := range out {
		batch := vals.batch(k%workers, k/workers)
		out[k] = make([]int, len(batch))
		start := time.Now()
		for i, v := range batch {
			var err error
			if out[k][i], err = scheme.DisguiseValue(v, rng); err != nil {
				return nil, 0, err
			}
		}
		times[k] = us(time.Since(start))
	}
	return out, median(times), nil
}

// ingester is the collector surface the landing replay drives.
type ingester interface {
	IngestBatch(reports []int) error
	Instrument(rec obs.Recorder, reg *obs.Registry)
}

// replayIngest instruments the first collector the way rrserver instruments
// its own, lands every batch on both collectors, alternating, and returns
// the median µs per batch of each.
func replayIngest(rep *report, batches [][]int, instrumented, plain ingester) (float64, float64) {
	instrumented.Instrument(nil, obs.NewRegistry())
	var ingUs, plainUs []float64
	for _, batch := range batches {
		start := time.Now()
		rep.op(instrumented.IngestBatch(batch))
		ingUs = append(ingUs, us(time.Since(start)))
		start = time.Now()
		rep.op(plain.IngestBatch(batch))
		plainUs = append(plainUs, us(time.Since(start)))
	}
	return median(ingUs), median(plainUs)
}

// replaySnapshot times marshaling a live collector, as the snapshot loop
// does, and restoring the result; it returns the median ms of each and the
// snapshot's size in bytes.
func replaySnapshot(rep *report, live json.Marshaler, restore func([]byte) error) (float64, float64, float64) {
	var snap []byte
	marshal, err := timeEach(codecReps, func() (err error) { snap, err = json.Marshal(live); return err })
	if !rep.op(err) {
		return 0, 0, 0
	}
	unmarshal, err := timeEach(codecReps, func() error { return restore(snap) })
	rep.op(err)
	return ms(marshal), float64(len(snap)), ms(unmarshal)
}

// fill lands batches of values disguised through scheme on ing.
func fill(ing ingester, scheme rr.Scheme, vals *values, batches int, seed uint64) error {
	out := make([]int, batchSize)
	for k := 0; k < batches; k++ {
		if err := scheme.DisguiseBatchInto(out, vals.batch(0, k), seed+uint64(k), 1); err != nil {
			return err
		}
		if err := ing.IngestBatch(out); err != nil {
			return err
		}
	}
	return nil
}

// traceDenseQuery times the dense estimate query behind GET /v1/estimate
// with a margin: a Snapshot plus the ReportsForMargin projection.
func traceDenseQuery(rep *report, o options) error {
	d := denseDeployment()
	scheme, err := d.build(o.seed)
	if err != nil {
		return err
	}
	vals, err := drawPools(d.prior, o, 1)
	if err != nil {
		return err
	}
	col := collector.NewSharded(scheme.(*rr.Matrix), 0)
	if err := fill(col, scheme, vals, poolBatches, o.seed); err != nil {
		return err
	}
	t, err := timeEach(kernelReps, func() error {
		if _, err := col.Snapshot(serveZ); err != nil {
			return err
		}
		_, err := col.ReportsForMargin(0.01, serveZ)
		return err
	})
	rep.op(err)
	rep.set("collector.estimate_us", us(t))
	return nil
}

// The sketch layers run on a count-mean sketch with k hash rows, hash range
// m and inner k-RR ε over a 100k-category Zipf(1) domain: a scheme whose
// 23 MB envelope every client of the deployment would decode.
const (
	sketchDomain    = 100000
	sketchHashes    = 16
	sketchRange     = 1024
	sketchEpsilon   = 4
	sketchThreshold = 0.005 // heavy-hitter floor, below the 10th Zipf frequency
	sketchReadLimit = 20
)

// traceSketch builds the sketch scheme, runs its envelope codec, replays
// disguise and collector landing on Zipf values, and times the heavy-hitter
// scan GET /v1/heavyhitters runs (SketchCollector.HeavyHitters, not the
// chunked mining.HeavyHitters, which the server does not call) and the
// collector's snapshot and restore.
func traceSketch(rep *report, o options) error {
	start := time.Now()
	scheme, err := sketch.NewKRR(sketchDomain, sketchHashes, sketchRange, sketchEpsilon, o.seed)
	if err != nil {
		return err
	}
	rep.set("sketch.new_ms", ms(time.Since(start)))

	var env []byte
	encode, err := timeEach(codecReps, func() (err error) { env, err = rr.MarshalScheme(scheme); return err })
	if err != nil {
		return err
	}
	decode, err := timeEach(codecReps, func() error { _, err := rr.UnmarshalScheme(env); return err })
	rep.op(err)
	rep.set("rr.scheme_encode_ms", ms(encode))
	rep.set("rr.scheme_decode_ms", ms(decode))
	rep.set("rr.scheme_bytes", float64(len(env)))

	vals, err := drawPools(dataset.ZipfGenerator(1).Prior(sketchDomain), o, 1)
	if err != nil {
		return err
	}
	disguised, disguiseUs, err := replayDisguise(scheme, vals, replayCount(o), o.seed)
	if err != nil {
		return err
	}
	rep.set("sketch.disguise_us", disguiseUs)
	col := collector.NewSketch(scheme, 0)
	ing, plain := replayIngest(rep, disguised, col, collector.NewSketch(scheme, 0))
	rep.set("sketch.ingest_us", ing)
	rep.set("sketch.ingest_plain_us", plain)
	rep.set("sketch.instrument_frac", ing/plain-1)

	t, err := timeEach(5, func() error {
		_, err := col.HeavyHitters(sketchThreshold, sketchReadLimit)
		return err
	})
	rep.op(err)
	rep.set("collector.heavyhitters_ms", ms(t))

	snapMs, snapBytes, restoreMs := replaySnapshot(rep, col, func(data []byte) error {
		_, err := collector.RestoreSketch(data, 0)
		return err
	})
	rep.set("sketch.snapshot_ms", snapMs)
	rep.set("sketch.snapshot_bytes", snapBytes)
	rep.set("sketch.restore_ms", restoreMs)
	return nil
}

// number reads a numeric trace field.
func number(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	}
	return 0, false
}
