package collector

import (
	"testing"

	"optrr/internal/obs"
	"optrr/internal/rr"
)

func instrumentedCollector(t *testing.T) (*Collector, *obs.MemoryRecorder, *obs.Registry) {
	t.Helper()
	m, err := rr.Warner(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	c := New(m)
	rec := obs.NewMemory()
	reg := obs.NewRegistry()
	c.Instrument(rec, reg)
	return c, rec, reg
}

func TestInstrumentCounters(t *testing.T) {
	c, rec, reg := instrumentedCollector(t)
	if err := c.IngestBatch([]int{0, 1, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(99); err == nil {
		t.Fatal("bad report accepted")
	}

	if got := reg.Counter("collector.reports").Value(); got != 5 {
		t.Fatalf("collector.reports = %d, want 5", got)
	}
	if got := reg.Counter("collector.batches").Value(); got != 1 {
		t.Fatalf("collector.batches = %d, want 1", got)
	}
	if got := reg.Counter("collector.bad_reports").Value(); got != 1 {
		t.Fatalf("collector.bad_reports = %d, want 1", got)
	}
	for k, want := range []int64{1, 3, 1} {
		if got := reg.Counter("collector.reports.cat" + string(rune('0'+k))).Value(); got != want {
			t.Fatalf("cat%d = %d, want %d", k, got, want)
		}
	}

	batches := rec.Named("collector.batch")
	if len(batches) != 1 {
		t.Fatalf("got %d batch events, want 1", len(batches))
	}
	if batches[0].Fields["size"] != 4 || batches[0].Fields["total"] != 4 {
		t.Fatalf("batch event = %v", batches[0].Fields)
	}
}

func TestInstrumentSnapshotEventAndMarginGauge(t *testing.T) {
	c, rec, reg := instrumentedCollector(t)
	if err := c.IngestBatch([]int{0, 0, 1, 2, 1, 0, 2, 1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	s, err := c.Snapshot(1.96)
	if err != nil {
		t.Fatal(err)
	}
	evs := rec.Named("collector.snapshot")
	if len(evs) != 1 {
		t.Fatalf("got %d snapshot events, want 1", len(evs))
	}
	f := evs[0].Fields
	if f["reports"] != 10 || f["z"] != 1.96 {
		t.Fatalf("snapshot event = %v", f)
	}
	margin := f["margin"].(float64)
	if margin <= 0 {
		t.Fatalf("margin = %v", margin)
	}
	if got := reg.Gauge("collector.margin").Value(); got != margin {
		t.Fatalf("margin gauge = %v, event margin = %v", got, margin)
	}
	est := f["estimate"].([]float64)
	if len(est) != 3 || len(f["half_width"].([]float64)) != len(s.HalfWidth) {
		t.Fatalf("snapshot arrays malformed: %v", f)
	}
	if got := reg.Counter("collector.snapshots").Value(); got != 1 {
		t.Fatalf("collector.snapshots = %d, want 1", got)
	}
}

func TestInstrumentNilRegistryStillWorks(t *testing.T) {
	m, err := rr.Warner(2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	c := New(m)
	rec := obs.NewMemory()
	c.Instrument(rec, nil) // metrics go to a private registry; events still flow
	if err := c.IngestBatch([]int{0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Named("collector.batch")) != 1 {
		t.Fatal("no batch event with nil registry")
	}
}

// TestUninstrumentedAndNopIngestAllocations guards the zero-overhead claim:
// neither a bare collector nor one instrumented with a no-op recorder may
// allocate on the per-report hot path, and a sharded batch instrumented the
// way rrserver runs it (registry plus no-op recorder) must not fold the
// shards for a batch event nobody records.
func TestUninstrumentedAndNopIngestAllocations(t *testing.T) {
	m, err := rr.Warner(4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	bare := New(m)
	if n := testing.AllocsPerRun(200, func() {
		if err := bare.Ingest(2); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("bare Ingest allocated %v times per run, want 0", n)
	}

	nop := New(m)
	nop.Instrument(nil, obs.NewRegistry())
	if n := testing.AllocsPerRun(200, func() {
		if err := nop.Ingest(2); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("nop-instrumented Ingest allocated %v times per run, want 0", n)
	}

	sharded := NewSharded(m, 4)
	sharded.Instrument(obs.Nop, obs.NewRegistry())
	batch := []int{0, 3, 1, 2, 2, 1}
	if n := testing.AllocsPerRun(200, func() {
		if err := sharded.IngestBatch(batch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("nop-instrumented sharded IngestBatch allocated %v times per run, want 0", n)
	}
}
