package core

import (
	"context"
	"fmt"
	"math"

	"optrr/internal/metrics"
	"optrr/internal/pareto"
	"optrr/internal/randx"
	"optrr/internal/rr"
)

// Multi-dimensional OptRR — the paper's stated future work (Section VII).
// A record has d attributes, each disguised with its own matrix; the genome
// is the tuple of per-attribute genomes. Objectives are record-level: the
// privacy of the MAP adversary observing the full disguised record, and the
// MSE of the reconstructed joint distribution. The bound δ now limits the
// record-level posterior max P(X-record | Y-record), which per-attribute
// bounds cannot express (they do not compose), so repair operates through
// the joint posterior.
//
// The search is the 1-D generation loop (search, loop.go) run over the tuple
// genotype: OptimizeMulti maps MultiConfig onto Config and hands the loop a
// tupleGenotype, which supplies attribute-wise crossover, mutation of a
// random attribute, a Warner-seeded initial population, and the joint-bound
// repair. Everything else — SPEA2 selection, the Ω three-set update with its
// archive backfill, worker-parallel realize with sequential redraws — is
// literally the 1-D code.
//
// Evaluation is Kronecker-factored end to end: every individual is scored
// through a per-worker metrics.JointWorkspace that works on the d small
// per-attribute matrices — O(N·Σn_d) per evaluation with zero steady-state
// allocations and no product-space matrix, so the search scales to product
// spaces far beyond the old dense-channel cap. The output is bit-for-bit
// identical at every worker count.

// MultiConfig parameterizes the multi-dimensional optimizer.
type MultiConfig struct {
	// Joint is the original joint distribution over the product space
	// (row-major, attribute 0 slowest), e.g. from
	// rr.Product.EmpiricalJoint on clean calibration data.
	Joint []float64
	// Sizes lists the per-attribute category counts; their product must be
	// len(Joint).
	Sizes []int
	// Records is the data-set size N for the utility metric.
	Records int
	// Delta bounds the record-level posterior.
	Delta float64

	// PopulationSize, ArchiveSize, OmegaSize, Generations, MutationRate,
	// Seed and Workers mirror Config and are range-checked like it. Zero
	// values take Config's defaults, except Generations (300) and
	// OmegaSize (1000: the multi search always keeps Ω).
	PopulationSize int
	ArchiveSize    int
	OmegaSize      int
	Generations    int
	MutationRate   float64
	Seed           uint64
	Workers        int
	// Context, if non-nil, is checked once per generation; cancellation
	// stops the search and returns the best-so-far front together with an
	// error wrapping ctx.Err().
	Context context.Context
}

// MultiIndividual couples a tuple of per-attribute genomes with its
// record-level evaluation.
type MultiIndividual struct {
	Genomes []Genome
	Eval    metrics.Evaluation
}

// Point returns the individual's objective-space image, carrying any extra
// objective values the evaluation recorded (canonical minimized form).
func (mi MultiIndividual) Point() pareto.Point {
	return pareto.NewPoint(mi.Eval.Privacy, mi.Eval.Utility, mi.Eval.Extra...)
}

// Matrices converts the genome tuple into validated RR matrices.
func (mi MultiIndividual) Matrices() ([]*rr.Matrix, error) {
	out := make([]*rr.Matrix, len(mi.Genomes))
	for d, g := range mi.Genomes {
		m, err := g.Matrix()
		if err != nil {
			return nil, err
		}
		out[d] = m
	}
	return out, nil
}

// MultiResult is the outcome of a multi-dimensional run.
type MultiResult struct {
	// Front is the Pareto-optimal set, ascending in privacy.
	Front []MultiIndividual
	// Generations and Evaluations report search effort.
	Generations int
	Evaluations int
}

// FrontPoints returns the front in objective space.
func (res MultiResult) FrontPoints() []pareto.Point {
	pts := make([]pareto.Point, len(res.Front))
	for i, ind := range res.Front {
		pts[i] = ind.Point()
	}
	pareto.SortByPrivacy(pts)
	return pts
}

// config maps the multi-attribute search onto the shared loop's Config. The
// joint is the record-level prior: its mode is the floor of the
// record-level bound, exactly as the 1-D prior's is (Theorem 5). The multi
// defaults are kept: no immigrants, two mutations per child, normalized
// SPEA2 density with k = 1, 300 generations and a 1000-bin Ω.
func (c MultiConfig) config() Config {
	cfg := Config{
		Prior:             c.Joint,
		Records:           c.Records,
		Delta:             c.Delta,
		PopulationSize:    c.PopulationSize,
		ArchiveSize:       c.ArchiveSize,
		OmegaSize:         c.OmegaSize,
		Generations:       c.Generations,
		MutationRate:      c.MutationRate,
		MutationsPerChild: 2,
		ImmigrantFraction: -1,
		KNearest:          1,
		Normalize:         true,
		Context:           c.Context,
		Seed:              c.Seed,
		Workers:           c.Workers,
	}
	if cfg.Generations == 0 {
		cfg.Generations = 300
	}
	if cfg.OmegaSize == 0 {
		cfg.OmegaSize = 1000
	}
	return cfg
}

// Validate checks the attribute schema, then the mapped Config: the joint
// as a distribution, records, delta against the joint mode, and the search
// parameter ranges.
func (c MultiConfig) Validate() error {
	if len(c.Sizes) == 0 {
		return fmt.Errorf("%w: no attributes", ErrBadConfig)
	}
	total := 1
	for d, s := range c.Sizes {
		if s < 2 {
			return fmt.Errorf("%w: attribute %d has %d categories", ErrBadConfig, d, s)
		}
		total *= s
	}
	if len(c.Joint) != total {
		return fmt.Errorf("%w: joint has %d cells, want %d", ErrBadConfig, len(c.Joint), total)
	}
	return c.config().Validate()
}

// OptimizeMulti runs the multi-dimensional search and returns its Pareto
// front: the shared generation loop over the tuple genotype. The output is
// bit-for-bit identical at every Workers setting.
func OptimizeMulti(cfg MultiConfig) (MultiResult, error) {
	if err := cfg.Validate(); err != nil {
		return MultiResult{}, err
	}
	c := cfg.config().withDefaults()
	geno := &tupleGenotype{cfg: cfg, population: c.PopulationSize, scratch: make([]*multiScratch, c.Workers)}
	for w := range geno.scratch {
		geno.scratch[w] = newMultiScratch(cfg.Sizes)
	}
	s := newSearch[tuple](c, geno)
	rs, front, err := s.run()
	if rs == nil {
		return MultiResult{}, err
	}
	res := MultiResult{Front: make([]MultiIndividual, len(front)), Generations: rs.gen, Evaluations: s.evaluations}
	for i, m := range front {
		res.Front[i] = MultiIndividual{Genomes: m.Genome, Eval: m.Eval}
	}
	return res, err
}

// tuple is the multi-attribute genotype: one genome per attribute.
type tuple []Genome

// Clone deep-copies every attribute's genome.
func (t tuple) Clone() tuple {
	out := make(tuple, len(t))
	for d, g := range t {
		out[d] = g.Clone()
	}
	return out
}

// tupleGenotype supplies the multi-attribute operations to the generation
// loop. Each worker owns one multiScratch: a factored workspace and
// per-attribute scratch matrices whose contents are fully overwritten per
// individual, so the dynamic item-to-worker assignment never affects
// results.
type tupleGenotype struct {
	cfg        MultiConfig
	population int
	scratch    []*multiScratch
}

// initial is the memetic initialization: even slots are random, odd slots
// seed the baseline one-parameter family (the same Warner diagonal on every
// attribute, spread over its range), so the search starts from the
// symmetric baseline and can only improve on it.
func (t *tupleGenotype) initial(r *randx.Source) []tuple {
	out := make([]tuple, t.population)
	for i := range out {
		if i%2 == 0 {
			out[i] = t.random(r)
			continue
		}
		p := 0.1 + 0.85*float64(i)/float64(t.population)
		out[i] = make(tuple, len(t.cfg.Sizes))
		for d, n := range t.cfg.Sizes {
			out[i][d] = diagonalGenome(n, p)
		}
	}
	return out
}

// random draws a fresh random genome per attribute.
func (t *tupleGenotype) random(r *randx.Source) tuple {
	g := make(tuple, len(t.cfg.Sizes))
	for d, n := range t.cfg.Sizes {
		g[d] = NewRandomGenome(n, r)
	}
	return g
}

// crossover recombines the parents attribute by attribute.
func (t *tupleGenotype) crossover(a, b tuple, r *randx.Source) (tuple, tuple, error) {
	c1, c2 := make(tuple, len(a)), make(tuple, len(a))
	for d := range a {
		var err error
		if c1[d], c2[d], err = Crossover(a[d], b[d], r); err != nil {
			return nil, nil, err
		}
	}
	return c1, c2, nil
}

// mutate applies the proportional mutation to one random attribute.
func (t *tupleGenotype) mutate(g tuple, r *randx.Source) {
	Mutate(g[r.Intn(len(g))], MutationProportional, 1, r)
}

// evaluate repairs the record-level bound and scores g on worker w's
// factored workspace.
func (t *tupleGenotype) evaluate(w int, g tuple) (metrics.Evaluation, genomeOutcome) {
	sc := t.scratch[w]
	// Materialize, repair, and re-materialize the repaired genomes.
	if !materializeTuple(sc.mats, g) || !meetJointBound(g, sc, t.cfg) || !materializeTuple(sc.mats, g) {
		return metrics.Evaluation{}, genomeOutcome{}
	}
	ev, err := sc.jws.Evaluate(sc.mats, t.cfg.Joint, t.cfg.Records)
	if err != nil {
		return metrics.Evaluation{}, genomeOutcome{}
	}
	return ev, genomeOutcome{ok: true}
}

// referenceUtility is never read: MultiConfig attaches no observer, so the
// loop builds no per-generation statistics for the multi search.
func (t *tupleGenotype) referenceUtility() float64 { return 1 }

// multiScratch is one worker's exclusive evaluation state: the factored
// joint workspace plus per-attribute scratch matrices for materialization
// and for the repair bisection's blended candidates, with preallocated
// column buffers so a repair performs no steady-state allocations either.
type multiScratch struct {
	jws   *metrics.JointWorkspace
	mats  []*rr.Matrix
	blend []*rr.Matrix
	cols  [][][]float64
}

func newMultiScratch(sizes []int) *multiScratch {
	sc := &multiScratch{
		jws:   metrics.NewJointWorkspace(),
		mats:  make([]*rr.Matrix, len(sizes)),
		blend: make([]*rr.Matrix, len(sizes)),
		cols:  make([][][]float64, len(sizes)),
	}
	for d, n := range sizes {
		sc.mats[d] = rr.NewScratchMatrix(n)
		sc.blend[d] = rr.NewScratchMatrix(n)
		cols := make([][]float64, n)
		for i := range cols {
			cols[i] = make([]float64, n)
		}
		sc.cols[d] = cols
	}
	return sc
}

// materializeTuple writes each genome into its scratch matrix, validating as
// Genome.Matrix would.
func materializeTuple(ms []*rr.Matrix, gs []Genome) bool {
	for d, g := range gs {
		if err := ms[d].SetColumns(g); err != nil {
			return false
		}
	}
	return true
}

// meetJointBound enforces the record-level posterior bound: per-attribute
// slack repair cannot target a joint posterior, so the repair blends every
// attribute's genome toward its uniform matrix by a common factor found by
// bisection (at factor 1 the joint posteriors equal the joint prior, whose
// mode is below delta by Validate). Every posterior probe runs on the
// worker's factored workspace — two mode contractions and a sweep, no joint
// channel and no inverse — so the ~30 bisection probes per infeasible child
// stay off the allocator entirely. sc.mats must hold the materialized gs.
func meetJointBound(gs []Genome, sc *multiScratch, cfg MultiConfig) bool {
	if mp, err := sc.jws.MaxPosterior(sc.mats, cfg.Joint); err == nil && mp <= cfg.Delta+1e-12 {
		return true
	}
	worst := func(t float64) float64 {
		for d, g := range gs {
			n := g.N()
			u := 1 / float64(n)
			cols := sc.cols[d]
			for i, col := range g {
				ci := cols[i]
				for j, v := range col {
					ci[j] = (1-t)*v + t*u
				}
			}
			if err := sc.blend[d].SetColumns(cols); err != nil {
				return math.Inf(1)
			}
		}
		mp, err := sc.jws.MaxPosterior(sc.blend, cfg.Joint)
		if err != nil {
			return math.Inf(1)
		}
		return mp
	}
	if worst(1) > cfg.Delta+1e-12 {
		return false
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 30; iter++ {
		mid := (lo + hi) / 2
		if worst(mid) <= cfg.Delta+1e-12 {
			hi = mid
		} else {
			lo = mid
		}
	}
	for _, g := range gs {
		u := 1 / float64(g.N())
		for _, col := range g {
			for j := range col {
				col[j] = (1-hi)*col[j] + hi*u
			}
		}
	}
	return true
}
