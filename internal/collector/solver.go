package collector

import (
	"fmt"
	"math"

	"optrr/internal/matrix"
	"optrr/internal/metrics"
	"optrr/internal/rr"
)

// solver caches the LU factorization — and the explicit inverse the variance
// queries need — of the disguise matrix at collector construction. The
// matrix is fixed for a whole collection campaign, but the query path used
// to re-factorize it on every Estimate and re-invert it on every Snapshot;
// with the cache a query is a single triangular solve. A singular matrix
// does not fail construction (mirroring New's historical no-error
// signature): the error is remembered and every estimate query returns it,
// exactly as the on-the-fly factorization used to.
type solver struct {
	m   *rr.Matrix
	lu  *matrix.LU
	inv *matrix.Dense
	err error
}

// newSolver factorizes m once. The factorization arithmetic is identical to
// the one-shot matrix.Dense.Solve path, so cached estimates are bit-for-bit
// the estimates the uncached collector produced.
func newSolver(m *rr.Matrix) *solver {
	sv := &solver{m: m, lu: matrix.NewLU()}
	if err := m.FactorizeInto(sv.lu); err != nil {
		sv.err = err
		return sv
	}
	inv, err := sv.lu.Inverse()
	if err != nil {
		sv.err = fmt.Errorf("%w: %v", rr.ErrSingular, err)
		return sv
	}
	sv.inv = inv
	return sv
}

// estimate applies the inversion estimator (Theorem 1) to an
// already-computed disguised distribution through the cached factorization.
func (sv *solver) estimate(pStar []float64) ([]float64, error) {
	if sv.err != nil {
		return nil, sv.err
	}
	x, err := sv.lu.SolveVec(pStar)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", rr.ErrSingular, err)
	}
	return x, nil
}

// distributions derives the disguised and reconstructed (clipped)
// distributions from a point-in-time counts view.
func (sv *solver) distributions(counts []int, total int) (pStar, est []float64, err error) {
	pStar, err = disguised(counts, total)
	if err != nil {
		return nil, nil, err
	}
	raw, err := sv.estimate(pStar)
	if err != nil {
		return nil, nil, err
	}
	return pStar, rr.Clip(raw), nil
}

// summarize builds the Summary for a point-in-time counts/total view.
// Collector.Snapshot and ShardedCollector.Snapshot both go through it, so
// the two collectors reconstruct through the same cached factorization and
// report identical numbers for identical ingest streams.
func summarize(sv *solver, counts []int, total int, z float64) (Summary, error) {
	// !(z > 0) rather than z <= 0: NaN fails every comparison, so a NaN z
	// would otherwise sail through and poison every half-width.
	if !(z > 0) || math.IsInf(z, 1) {
		return Summary{}, fmt.Errorf("collector: z must be a positive finite number, got %v", z)
	}
	pStar, est, err := sv.distributions(counts, total)
	if err != nil {
		return Summary{}, err
	}
	mses, err := metrics.PerCategoryMSEWithInverse(sv.m, sv.inv, est, total)
	if err != nil {
		return Summary{}, fmt.Errorf("collector: %w", err)
	}
	half := make([]float64, len(mses))
	for k, v := range mses {
		if v > 0 {
			half[k] = z * math.Sqrt(v)
		}
	}
	return Summary{
		Reports:   total,
		Disguised: pStar,
		Estimate:  est,
		HalfWidth: half,
		Z:         z,
	}, nil
}

// reportsForMargin projects the reports needed for the worst-category
// half-width at quantile z to shrink to the target margin, given the current
// counts. Edge cases are pinned by TestReportsForMarginEdgeCases: a
// non-positive or non-finite margin is ErrBadMargin (NaN fails the < 0 and
// <= 0 comparisons, so it needs an explicit check — before the fix it flowed
// into the extrapolation and produced an undefined int conversion); an empty
// collector is ErrNoReports, never a division by zero; and a margin the
// current collection already meets answers with the current total rather
// than extrapolating downward.
func reportsForMargin(sv *solver, counts []int, total int, margin, z float64) (int, error) {
	if !(margin > 0) || math.IsInf(margin, 1) {
		return 0, fmt.Errorf("%w: got %v", ErrBadMargin, margin)
	}
	if total == 0 {
		return 0, ErrNoReports
	}
	s, err := summarize(sv, counts, total, z)
	if err != nil {
		return 0, err
	}
	cur := s.worstHalfWidth()
	if cur <= margin {
		// Already there (or exactly there): the answer is the evidence we
		// have, not a <= total extrapolation.
		return total, nil
	}
	// Half-widths scale as 1/sqrt(N).
	scale := cur / margin
	need := float64(total) * scale * scale
	if need > math.MaxInt32 {
		return math.MaxInt32, nil
	}
	return int(math.Ceil(need)), nil
}

// worstHalfWidth returns the largest confidence half-width across categories.
func (s Summary) worstHalfWidth() float64 {
	var worst float64
	for _, h := range s.HalfWidth {
		if h > worst {
			worst = h
		}
	}
	return worst
}
