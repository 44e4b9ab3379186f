// Package collector simulates the deployment scenario that motivates the
// paper (Section I): individuals hold private categorical values, each
// applies randomized response locally, and a central collector aggregates
// the disguised reports — never seeing an original value — while maintaining
// a running reconstruction of the population distribution with
// distribution-free error bars from the closed-form variance of Theorem 6.
package collector

import (
	"errors"
	"fmt"

	"optrr/internal/randx"
	"optrr/internal/rr"
)

// Collector errors.
var (
	// ErrBadReport reports a disguised value outside the category domain.
	ErrBadReport = errors.New("collector: report out of category range")
	// ErrNoReports reports an estimate request before any ingestion.
	ErrNoReports = errors.New("collector: no reports ingested")
	// ErrBadSnapshot reports a corrupted or inconsistent crash-recovery
	// snapshot: RestoreSharded refuses it rather than poisoning every
	// subsequent Estimate. Long-lived servers should treat it as "start
	// fresh and alert", not as fatal.
	ErrBadSnapshot = errors.New("collector: invalid snapshot")
	// ErrBadMargin reports a margin target that is not a positive finite
	// number, for which "reports needed" has no meaning.
	ErrBadMargin = errors.New("collector: margin must be a positive finite number")
	// ErrWriterClosed reports ingestion through a Writer after Close.
	ErrWriterClosed = errors.New("collector: writer is closed")
	// ErrUnsupported reports a query the collector's scheme cannot answer:
	// the Theorem-6 confidence queries need the dense matrix scheme.
	ErrUnsupported = errors.New("collector: query not supported by this scheme")
)

// Collector accumulates disguised reports for one attribute and answers
// distribution queries at any point during collection. It is not safe for
// concurrent use; use ShardedCollector if multiple goroutines ingest. It
// stays as the serial public API and as the reference the sharded
// collector's tests compare against bit for bit.
//
// Instrument attaches live metrics and structured trace events; a bare
// collector carries no instrumentation and pays nothing for the hooks.
type Collector struct {
	m      *rr.Matrix
	counts []int
	total  int
	ins    *instrumentation
	// sv caches the LU factorization (and inverse) of m, computed once at
	// construction: queries are triangular solves, not refactorizations.
	sv *solver
}

// New returns a collector for reports disguised with the given matrix. The
// matrix is factorized once here; a singular matrix is accepted (ingestion
// still works) but every estimate query will return rr.ErrSingular.
func New(m *rr.Matrix) *Collector {
	return &Collector{m: m, counts: make([]int, m.N()), sv: newSolver(m)}
}

// Categories returns the attribute domain size.
func (c *Collector) Categories() int { return len(c.counts) }

// Count returns the number of reports ingested so far.
func (c *Collector) Count() int { return c.total }

// Counts returns a copy of the per-category report counts.
func (c *Collector) Counts() []int {
	out := make([]int, len(c.counts))
	copy(out, c.counts)
	return out
}

// Ingest adds one disguised report.
func (c *Collector) Ingest(report int) error {
	if report < 0 || report >= len(c.counts) {
		c.ins.observeBad()
		return fmt.Errorf("%w: %d of %d categories", ErrBadReport, report, len(c.counts))
	}
	c.counts[report]++
	c.total++
	c.ins.observeIngest(report)
	return nil
}

// IngestBatch adds many reports; on error the collector state is unchanged.
func (c *Collector) IngestBatch(reports []int) error {
	for _, r := range reports {
		if r < 0 || r >= len(c.counts) {
			c.ins.observeBad()
			return fmt.Errorf("%w: %d of %d categories", ErrBadReport, r, len(c.counts))
		}
	}
	for _, r := range reports {
		c.counts[r]++
		c.ins.observeIngest(r)
	}
	c.total += len(reports)
	c.ins.observeBatch(len(reports), c.Count)
	return nil
}

// Disguised returns the empirical distribution of the disguised reports.
func (c *Collector) Disguised() ([]float64, error) {
	return disguised(c.counts, c.total)
}

// disguised normalizes a counts view into the empirical distribution of the
// reports; an empty view is ErrNoReports.
func disguised(counts []int, total int) ([]float64, error) {
	if total == 0 {
		return nil, ErrNoReports
	}
	out := make([]float64, len(counts))
	inv := 1 / float64(total)
	for i, n := range counts {
		out[i] = float64(n) * inv
	}
	return out, nil
}

// Estimate reconstructs the original distribution from the reports ingested
// so far (inversion estimator, Theorem 1) through the cached factorization.
// Components may fall slightly outside [0, 1] for small samples; see
// EstimateClipped.
func (c *Collector) Estimate() ([]float64, error) {
	pStar, err := c.Disguised()
	if err != nil {
		return nil, err
	}
	return c.sv.estimate(pStar)
}

// EstimateClipped is Estimate projected onto the probability simplex.
func (c *Collector) EstimateClipped() ([]float64, error) {
	est, err := c.Estimate()
	if err != nil {
		return nil, err
	}
	return rr.Clip(est), nil
}

// Summary is a point-in-time view of the collection.
type Summary struct {
	// Reports is the number of reports behind the estimate.
	Reports int
	// Disguised is the empirical disguised distribution.
	Disguised []float64
	// Estimate is the reconstructed original distribution (clipped).
	Estimate []float64
	// HalfWidth contains per-category half-widths of approximate normal
	// confidence intervals at the z used for the snapshot.
	HalfWidth []float64
	// Z is the normal quantile the half-widths were computed at.
	Z float64
}

// Snapshot returns the current reconstruction with z-quantile confidence
// half-widths (z = 1.96 for ~95%). The variance comes from Theorem 6
// evaluated at the clipped estimate, through the inverse cached at
// construction.
func (c *Collector) Snapshot(z float64) (Summary, error) {
	s, err := summarize(c.sv, c.counts, c.total, z)
	if err != nil {
		return Summary{}, err
	}
	c.ins.observeSnapshot(s)
	return s, nil
}

// MarginOfError returns the largest confidence half-width across categories
// at quantile z — "the estimate is within ±e of the truth (per category)
// with the stated confidence".
func (c *Collector) MarginOfError(z float64) (float64, error) {
	s, err := c.Snapshot(z)
	if err != nil {
		return 0, err
	}
	return s.worstHalfWidth(), nil
}

// ReportsForMargin returns the approximate number of reports needed for the
// worst-category half-width at quantile z to shrink to the target margin,
// assuming the current estimate of the distribution. It needs at least one
// ingested report to calibrate.
func (c *Collector) ReportsForMargin(margin, z float64) (int, error) {
	return reportsForMargin(c.sv, c.counts, c.total, margin, z)
}

// Respondent models one individual: a private value and the shared disguise
// matrix. Report draws the disguised value to submit; the private value
// never leaves the struct.
type Respondent struct {
	value    int
	samplers []*randx.Alias
}

// NewRespondent prepares a respondent holding the given private value. The
// alias samplers come from the matrix's shared cache (rr.Matrix.Samplers),
// so a population of respondents over one scheme builds the tables once
// instead of once per respondent.
func NewRespondent(m *rr.Matrix, value int) (*Respondent, error) {
	if value < 0 || value >= m.N() {
		return nil, fmt.Errorf("%w: value %d of %d categories", ErrBadReport, value, m.N())
	}
	samplers, err := m.Samplers()
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	return &Respondent{value: value, samplers: samplers}, nil
}

// Report draws one disguised report. Repeated reports are independent draws
// (callers wanting one-shot semantics should call it once).
func (r *Respondent) Report(rng *randx.Source) int {
	return r.samplers[r.value].Draw(rng)
}

// Simulate runs a complete collection campaign: records values drawn from
// the prior, disguised with m, ingested into a fresh collector. It returns
// the collector ready for querying.
func Simulate(m *rr.Matrix, prior []float64, records int, rng *randx.Source) (*Collector, error) {
	if records <= 0 {
		return nil, fmt.Errorf("collector: records must be positive, got %d", records)
	}
	alias, err := randx.NewAlias(prior)
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	originals := make([]int, records)
	for i := range originals {
		originals[i] = alias.Draw(rng)
	}
	disguised, err := m.Disguise(originals, rng)
	if err != nil {
		return nil, err
	}
	c := New(m)
	if err := c.IngestBatch(disguised); err != nil {
		return nil, err
	}
	return c, nil
}
