package collector

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"

	"optrr/internal/obs"
	"optrr/internal/rr"
)

// ShardedCollector is the concurrency-safe collector for reports encoded by
// any rr.Scheme. Counts live in cache-line-padded shards of atomic counters,
// one cell per encoded report (the category count for the dense matrix,
// hashes × hash range for the count-mean sketch), so many goroutines can
// ingest without serializing on one mutex and memory stays
// O(shards · ReportSpace), independent of the domain size. A single report
// is one atomic add on the ingesting goroutine's home shard — no lock, no
// shared write other than the counter cell itself; goroutines map onto
// shards by stack address, so a steady ingester keeps hitting the same shard
// and never bounces a foreign cache line.
//
// Batches (IngestBatch, Merge, Writer.Flush) land whole on one shard under
// that shard's mutex; query methods (Count, Estimate, Snapshot, …) take
// every shard mutex in index order before reading, so a batch is either
// fully in a query's view or not at all. The total is derived from the
// counts actually read, so every consistent view is a whole number of
// reports.
//
// Estimate and HeavyHitters debias through the scheme. For the dense
// *rr.Matrix scheme they go through the same cached LU factorization as the
// serial Collector, so the two answer every query with bit-for-bit
// identical numbers on identical streams, and the Theorem-6 queries
// (Snapshot, MarginOfError, ReportsForMargin) are available; for any other
// scheme those return ErrUnsupported.
//
// The zero value is not usable; construct with NewSharded or RestoreSharded.
type ShardedCollector struct {
	scheme rr.Scheme
	sv     *solver // the dense matrix's cached factorization; nil for other schemes
	set    shardSet
	cursor atomic.Uint64 // round-robins Writer shard assignment only
	ins    *instrumentation
}

// HeavyHitter is one discovered frequent category: its index in the original
// domain and its debiased frequency estimate.
type HeavyHitter struct {
	Category int     `json:"category"`
	Estimate float64 `json:"estimate"`
}

// NewSharded returns a sharded collector for reports encoded by scheme. The
// shard count is rounded up to a power of two; shards <= 0 picks a default
// sized to the scheduler (GOMAXPROCS). As with New, a singular dense matrix
// is accepted — ingestion works, estimate queries return rr.ErrSingular.
func NewSharded(scheme rr.Scheme, shards int) *ShardedCollector {
	c := &ShardedCollector{scheme: scheme, set: newShardSet(shards, scheme.ReportSpace())}
	if m, ok := scheme.(*rr.Matrix); ok {
		c.sv = newSolver(m)
	}
	return c
}

// Scheme returns the scheme the reports are encoded with.
func (c *ShardedCollector) Scheme() rr.Scheme { return c.scheme }

// Categories returns the original domain size the scheme covers.
func (c *ShardedCollector) Categories() int { return c.scheme.Domain() }

// ReportSpace returns the encoded report space the counters cover.
func (c *ShardedCollector) ReportSpace() int { return c.set.width }

// Shards returns the number of stripes.
func (c *ShardedCollector) Shards() int { return len(c.set.shards) }

// Instrument attaches a recorder and metrics registry (see
// Collector.Instrument); the metric names are identical, so dashboards don't
// care which collector runs the campaign. Per-category series are
// registered for the dense scheme only: other schemes' report indices are
// encoded cells, not categories. Call before ingestion starts — the
// attachment itself is not synchronized, though the attached counters are
// safe for the concurrent ingestion that follows.
func (c *ShardedCollector) Instrument(rec obs.Recorder, reg *obs.Registry) {
	perCategory := 0
	if c.sv != nil {
		perCategory = c.set.width
	}
	c.ins = newInstrumentation(rec, reg, perCategory)
}

// badReport counts and describes a report outside the report space.
func (c *ShardedCollector) badReport(report int) error {
	c.ins.observeBad()
	if c.sv != nil {
		return fmt.Errorf("%w: %d of %d categories", ErrBadReport, report, c.set.width)
	}
	return fmt.Errorf("%w: %d of report space %d", ErrBadReport, report, c.set.width)
}

// Ingest adds one encoded report: a single atomic increment on the calling
// goroutine's home shard.
func (c *ShardedCollector) Ingest(report int) error {
	if report < 0 || report >= c.set.width {
		return c.badReport(report)
	}
	c.set.home().counts[report].Add(1)
	c.ins.observeIngest(report)
	return nil
}

// IngestBatch adds many reports atomically onto one shard; on error the
// collector state is unchanged. The shard mutex holds the batch together
// against queries; the adds stay atomic because lock-free single reports may
// land on the same shard concurrently.
func (c *ShardedCollector) IngestBatch(reports []int) error {
	for _, r := range reports {
		if r < 0 || r >= c.set.width {
			return c.badReport(r)
		}
	}
	sh := c.set.home()
	sh.mu.Lock()
	for _, r := range reports {
		sh.counts[r].Add(1)
	}
	sh.mu.Unlock()
	if c.ins != nil {
		for _, r := range reports {
			c.ins.observeIngest(r)
		}
		c.ins.observeBatch(len(reports), c.Count)
	}
	return nil
}

// fold returns a consistent (counts, total) view across every shard.
func (c *ShardedCollector) fold() ([]int, int) {
	defer c.set.lockAll()()
	return c.set.countsLocked()
}

// Count returns the number of reports ingested so far.
func (c *ShardedCollector) Count() int {
	_, total := c.fold()
	return total
}

// Counts returns a consistent copy of the encoded report counts (the
// per-category counts for the dense scheme, row-major k×m for the sketch).
func (c *ShardedCollector) Counts() []int {
	counts, _ := c.fold()
	return counts
}

// Disguised returns the empirical distribution of the encoded reports.
func (c *ShardedCollector) Disguised() ([]float64, error) {
	return disguised(c.fold())
}

// Estimate returns debiased frequency estimates for the requested original
// categories, in order; with no arguments it estimates the full domain
// (which for a huge sketch domain is an O(domain · hashes) scan — prefer
// point queries or HeavyHitters there). The dense scheme reconstructs
// through the cached factorization (inversion estimator, Theorem 1).
func (c *ShardedCollector) Estimate(categories ...int) ([]float64, error) {
	counts, total := c.fold()
	if c.sv == nil {
		if total == 0 {
			return nil, ErrNoReports
		}
		if len(categories) == 0 {
			categories = nil
		}
		return c.scheme.EstimateFrom(counts, categories)
	}
	pStar, err := disguised(counts, total)
	if err != nil {
		return nil, err
	}
	est, err := c.sv.estimate(pStar)
	if err != nil || len(categories) == 0 {
		return est, err
	}
	out := make([]float64, len(categories))
	for i, x := range categories {
		if x < 0 || x >= len(est) {
			return nil, fmt.Errorf("%w: category %d of %d", rr.ErrShape, x, len(est))
		}
		out[i] = est[x]
	}
	return out, nil
}

// EstimateClipped is the full-domain Estimate projected onto the probability
// simplex.
func (c *ShardedCollector) EstimateClipped() ([]float64, error) {
	est, err := c.Estimate()
	if err != nil {
		return nil, err
	}
	return rr.Clip(est), nil
}

// HeavyHitters scans the full domain and returns the categories whose
// estimate is at least threshold, sorted by estimate descending (ties by
// category index). The estimate scanned is the one the collector publishes
// for the whole domain: the clipped reconstruction Snapshot reports for the
// dense scheme, the scheme's debiased point estimates otherwise. limit > 0
// caps the result length; limit <= 0 returns every category over the
// threshold.
func (c *ShardedCollector) HeavyHitters(threshold float64, limit int) ([]HeavyHitter, error) {
	var ests []float64
	var err error
	if c.sv != nil {
		ests, err = c.EstimateClipped()
	} else {
		ests, err = c.Estimate()
	}
	if err != nil {
		return nil, err
	}
	hits := make([]HeavyHitter, 0, 16)
	for x, e := range ests {
		if e >= threshold {
			hits = append(hits, HeavyHitter{Category: x, Estimate: e})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Estimate != hits[j].Estimate {
			return hits[i].Estimate > hits[j].Estimate
		}
		return hits[i].Category < hits[j].Category
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits, nil
}

// unsupported is the error of a dense-only query on another scheme.
func (c *ShardedCollector) unsupported(query string) error {
	return fmt.Errorf("%w: %s needs a dense matrix scheme, not %q", ErrUnsupported, query, c.scheme.Kind())
}

// Snapshot returns a consistent point-in-time view with confidence
// half-widths at quantile z (see Collector.Snapshot). It needs the dense
// scheme's closed-form variance; other schemes get ErrUnsupported.
func (c *ShardedCollector) Snapshot(z float64) (Summary, error) {
	if c.sv == nil {
		return Summary{}, c.unsupported("Snapshot")
	}
	counts, total := c.fold()
	s, err := summarize(c.sv, counts, total, z)
	if err != nil {
		return Summary{}, err
	}
	c.ins.observeSnapshot(s)
	return s, nil
}

// MarginOfError returns the worst-category half-width at quantile z (dense
// scheme only, like Snapshot).
func (c *ShardedCollector) MarginOfError(z float64) (float64, error) {
	s, err := c.Snapshot(z)
	if err != nil {
		return 0, err
	}
	return s.worstHalfWidth(), nil
}

// ReportsForMargin projects the reports needed to reach the target margin
// (dense scheme only, like Snapshot).
func (c *ShardedCollector) ReportsForMargin(margin, z float64) (int, error) {
	if c.sv == nil {
		return 0, c.unsupported("ReportsForMargin")
	}
	counts, total := c.fold()
	return reportsForMargin(c.sv, counts, total, margin, z)
}

// Merge folds a consistent view of other's counts into c, e.g. to combine
// per-region collectors into a campaign-wide one. The two collectors must
// use the identical scheme (same rr.SchemeVersion fingerprint) — merging
// reports encoded under different matrices or hash families would make the
// debiasing meaningless. other is left unchanged. Merging a collector into
// itself deadlocks; don't.
func (c *ShardedCollector) Merge(other *ShardedCollector) error {
	if c.set.width != other.set.width {
		return fmt.Errorf("%w: merging report space %d into %d", rr.ErrShape, other.set.width, c.set.width)
	}
	cv, err := rr.SchemeVersion(c.scheme)
	if err != nil {
		return err
	}
	ov, err := rr.SchemeVersion(other.scheme)
	if err != nil {
		return err
	}
	if cv != ov {
		return fmt.Errorf("collector: merge requires identical schemes (version %s into %s)", ov, cv)
	}
	counts, total := other.fold()
	sh := c.set.home()
	sh.mu.Lock()
	for k, v := range counts {
		sh.counts[k].Add(int64(v))
	}
	sh.mu.Unlock()
	c.ins.observeBatch(total, c.Count)
	return nil
}

// snapshotJSON is the crash-recovery wire form: the scheme in its
// kind-tagged envelope, a consistent fold of the counts, and the total as a
// redundant integrity check (a truncated or hand-edited counts array with a
// plausible shape is otherwise undetectable). Shard layout is an in-memory
// concern and deliberately not persisted — restore re-stripes freely.
type snapshotJSON struct {
	Scheme json.RawMessage `json:"scheme,omitempty"`
	// Matrix is the dense-only form older snapshots carry instead of the
	// scheme envelope; it is read, never written.
	Matrix *rr.Matrix `json:"matrix,omitempty"`
	Counts []int      `json:"counts"`
	// Total is optional on decode so snapshots written before it existed
	// still restore; when present it must equal the sum of Counts.
	Total *int `json:"total,omitempty"`
}

// MarshalJSON serializes a consistent snapshot of the collection state
// (scheme envelope + folded counts + total) for crash recovery.
func (c *ShardedCollector) MarshalJSON() ([]byte, error) {
	env, err := rr.MarshalScheme(c.scheme)
	if err != nil {
		return nil, err
	}
	counts, total := c.fold()
	return json.Marshal(snapshotJSON{Scheme: env, Counts: counts, Total: &total})
}

// RestoreSharded rebuilds a sharded collector from a MarshalJSON snapshot —
// or from an older dense {matrix, counts, total} one — striped across the
// given number of shards (<= 0 picks the default). The snapshot is fully
// validated before any state is built: the scheme must decode and validate,
// the counts must match its report space and be non-negative, and the
// recorded total (when present) must equal their sum. Every rejection wraps
// ErrBadSnapshot, so a server restoring at boot can distinguish "corrupt
// file, start fresh" from I/O errors.
func RestoreSharded(data []byte, shards int) (*ShardedCollector, error) {
	var raw snapshotJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", ErrBadSnapshot, err)
	}
	var scheme rr.Scheme
	switch {
	case len(raw.Scheme) > 0:
		s, err := rr.UnmarshalScheme(raw.Scheme)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		scheme = s
	case raw.Matrix != nil:
		scheme = raw.Matrix
	default:
		return nil, fmt.Errorf("%w: no scheme", ErrBadSnapshot)
	}
	if len(raw.Counts) != scheme.ReportSpace() {
		return nil, fmt.Errorf("%w: %d counts for report space %d", ErrBadSnapshot, len(raw.Counts), scheme.ReportSpace())
	}
	sum := 0
	for k, v := range raw.Counts {
		if v < 0 {
			return nil, fmt.Errorf("%w: count[%d] = %d is negative", ErrBadSnapshot, k, v)
		}
		sum += v
	}
	if raw.Total != nil && *raw.Total != sum {
		return nil, fmt.Errorf("%w: total %d but counts sum to %d", ErrBadSnapshot, *raw.Total, sum)
	}
	c := NewSharded(scheme, shards)
	sh := &c.set.shards[0]
	for k, v := range raw.Counts {
		sh.counts[k].Store(int64(v))
	}
	return c, nil
}

// SketchCollector is the former name of the sketch-backed collector, now
// ShardedCollector for every scheme.
//
// Deprecated: use ShardedCollector.
type SketchCollector = ShardedCollector

// NewSketch is NewSharded.
//
// Deprecated: use NewSharded.
func NewSketch(scheme rr.Scheme, shards int) *ShardedCollector { return NewSharded(scheme, shards) }

// RestoreSketch is RestoreSharded.
//
// Deprecated: use RestoreSharded.
func RestoreSketch(data []byte, shards int) (*ShardedCollector, error) {
	return RestoreSharded(data, shards)
}
