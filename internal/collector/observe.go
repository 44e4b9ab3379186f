package collector

import (
	"fmt"

	"optrr/internal/obs"
)

// This file instruments the collection pipeline. A bare Collector carries a
// nil *instrumentation and pays nothing; Instrument attaches counters
// (ingestion volume, per-category report counts, malformed reports), gauges
// (running confidence margin) and structured events ("collector.batch" per
// batch, "collector.snapshot" per consistency query). Single-report Ingest
// updates counters only — at millions of respondents an event per report
// would drown the trace.

// instrumentation caches the metric pointers the ingestion hot path touches.
type instrumentation struct {
	rec        obs.Recorder
	ingested   *obs.Counter   // collector.reports
	batches    *obs.Counter   // collector.batches
	badReports *obs.Counter   // collector.bad_reports
	snapshots  *obs.Counter   // collector.snapshots
	perCat     []*obs.Counter // collector.reports.cat<k>
	margin     *obs.Gauge     // collector.margin (worst half-width at last snapshot)
	batchSize  *obs.Histogram // collector.batch_size
}

// Instrument attaches a recorder and a metrics registry to the collector.
// Either may be nil: a nil rec records nothing, a nil reg sends the metrics
// to a private unpublished registry (so the counters still work for local
// inspection via the returned registry of a later call — callers wanting
// them served must pass their own). Call before ingestion starts; the
// method is not synchronized with concurrent use.
func (c *Collector) Instrument(rec obs.Recorder, reg *obs.Registry) {
	c.ins = newInstrumentation(rec, reg, len(c.counts))
}

// newInstrumentation builds the shared metric set with n per-category
// series. Collector and ShardedCollector both register under the same
// metric names, so dashboards don't care which collector is behind the
// campaign.
func newInstrumentation(rec obs.Recorder, reg *obs.Registry, n int) *instrumentation {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ins := &instrumentation{
		rec:        obs.OrNop(rec),
		ingested:   reg.Counter("collector.reports"),
		batches:    reg.Counter("collector.batches"),
		badReports: reg.Counter("collector.bad_reports"),
		snapshots:  reg.Counter("collector.snapshots"),
		perCat:     make([]*obs.Counter, n),
		margin:     reg.Gauge("collector.margin"),
		batchSize: reg.Histogram("collector.batch_size",
			[]float64{1, 10, 100, 1000, 10000, 100000}),
	}
	for k := range ins.perCat {
		ins.perCat[k] = reg.Counter(fmt.Sprintf("collector.reports.cat%d", k))
	}
	return ins
}

// observeIngest updates the per-report counters. The per-category counter is
// bounds-guarded: a collector over a non-dense scheme registers no
// per-category series (its report space is encoded cells, such as k·m
// sketch cells, not categories), so its instrumentation has an empty
// perCat.
func (ins *instrumentation) observeIngest(report int) {
	if ins == nil {
		return
	}
	ins.ingested.Inc()
	if report < len(ins.perCat) {
		ins.perCat[report].Inc()
	}
}

// observeBad counts a rejected report.
func (ins *instrumentation) observeBad() {
	if ins == nil {
		return
	}
	ins.badReports.Inc()
}

// observeBatch updates the batch counters and emits a "collector.batch"
// event. total is called only when the recorder is enabled: on the sharded
// collector it takes every shard lock and folds every cell, a cost nobody
// should pay for an event that is not recorded.
func (ins *instrumentation) observeBatch(size int, total func() int) {
	if ins == nil {
		return
	}
	ins.batches.Inc()
	ins.batchSize.Observe(float64(size))
	if ins.rec.Enabled() {
		ins.rec.Record("collector.batch", obs.Fields{
			"size":  size,
			"total": total(),
		})
	}
}

// observeSnapshot publishes the running reconstruction: the worst
// half-width moves the margin gauge, and the full per-category view goes to
// the trace.
func (ins *instrumentation) observeSnapshot(s Summary) {
	if ins == nil {
		return
	}
	ins.snapshots.Inc()
	worst := 0.0
	for _, h := range s.HalfWidth {
		if h > worst {
			worst = h
		}
	}
	ins.margin.Set(worst)
	if ins.rec.Enabled() {
		ins.rec.Record("collector.snapshot", obs.Fields{
			"reports":    s.Reports,
			"z":          s.Z,
			"margin":     worst,
			"estimate":   append([]float64(nil), s.Estimate...),
			"half_width": append([]float64(nil), s.HalfWidth...),
		})
	}
}
